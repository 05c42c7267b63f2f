"""Task-based comparison: segment both images, compare the segmentations.

The segmenter is a deterministic range-relative threshold followed by a
connected-component size filter. It stands in for a trained model at desk
scale; scores it produces are labeled proxy-task scores in reports and
are not comparable to any trained segmenter's output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateRangeError
from .image import Image, Mask, require_same_shape
from .metrics.overlap import dice
from .metrics.score import MetricScore, fingerprint

__all__ = ["SegmenterParams", "threshold_segment", "task_similarity"]


@dataclass(frozen=True)
class SegmenterParams:
    """Range-relative threshold segmenter configuration.

    ``threshold_rel`` is the cut as a fraction of the image's intensity
    range, so segmentation is invariant under affine normalization with
    positive scale. Components smaller than ``min_component_size`` under
    the chosen connectivity are discarded.
    """

    threshold_rel: float = 0.94
    min_component_size: int = 20
    connectivity: str = "face"  # "face" | "face+corner"

    def __post_init__(self):
        if not 0.0 < self.threshold_rel < 1.0:
            raise ConfigError(
                f"threshold_rel must lie strictly in (0, 1), got {self.threshold_rel}")
        if self.min_component_size < 1:
            raise ConfigError("min_component_size must be >= 1")
        if self.connectivity not in ("face", "face+corner"):
            raise ConfigError(f"unknown connectivity {self.connectivity!r}")

    def fingerprint(self) -> str:
        return fingerprint(connectivity=self.connectivity,
                           min_component_size=self.min_component_size,
                           threshold_rel=self.threshold_rel)


def threshold_segment(img: Image, params: SegmenterParams | None = None) -> Mask:
    """Pixels above min + threshold_rel * (max - min), size-filtered."""
    p = params or SegmenterParams()
    lo = float(img.data.min())
    hi = float(img.data.max())
    if hi == lo:
        raise DegenerateRangeError("cannot segment a constant image")
    labels = _label(img.data > lo + p.threshold_rel * (hi - lo), p.connectivity)
    keep = np.bincount(labels.ravel()) >= p.min_component_size
    keep[0] = False
    return Mask(keep[labels])


def _label(raw: np.ndarray, connectivity: str) -> np.ndarray:
    """Connected components of the 2D or 3D boolean array ``raw``: 0 off
    it, one id per component on it. Ids are positive but not consecutive; the
    partition is ``ndimage.label``'s.

    ``face`` joins the 2·ndim axis neighbours, ``face+corner`` all
    3^ndim − 1. Pixels are grouped into runs along the last axis, and an
    edge joins two runs where a pixel of one neighbours a pixel of the
    other. Such a pair repeats the pair one step back along the last axis
    unless one of its pixels starts its run, so only those pairs are kept.
    The run graph is solved by hooking and shortcutting: each round hooks
    every root that has an edge to a smaller root onto one such root, then
    flattens the trees by pointer jumping. The rounds therefore do not grow
    with the length of a path through a component; a serpentine takes one.
    """
    start = raw.copy()
    start[..., 1:] &= ~raw[..., :-1]
    run = np.cumsum(start, dtype=np.intp).reshape(raw.shape)
    run *= raw
    us, vs = [], []
    # One offset of each +/- pair, and none along the last axis (inside a run).
    for d in itertools.product((-1, 0, 1), repeat=raw.ndim):
        lead = [k for k in d[:-1] if k]
        if not lead or lead[0] < 0 or (connectivity == "face" and sum(map(abs, d)) > 1):
            continue
        a = tuple(slice(max(0, -k), n - max(0, k)) for k, n in zip(d, raw.shape))
        b = tuple(slice(max(0, k), n - max(0, -k)) for k, n in zip(d, raw.shape))
        pair = (start[a] & raw[b]) | (start[b] & raw[a])
        us.append(run[a][pair])
        vs.append(run[b][pair])
    u, v = np.concatenate(us), np.concatenate(vs)
    parent = np.arange(np.count_nonzero(start) + 1)
    while True:
        pu, pv = parent[u], parent[v]
        live = pu != pv
        if not live.any():
            return parent[run]
        u, v, pu, pv = u[live], v[live], pu[live], pv[live]
        parent[np.maximum(pu, pv)] = np.minimum(pu, pv)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def task_similarity(ref: Image, test: Image,
                    params: SegmenterParams | None = None) -> MetricScore:
    """DICE overlap of the two images' proxy segmentations."""
    require_same_shape(ref, test)
    p = params or SegmenterParams()
    score = dice(threshold_segment(ref, p), threshold_segment(test, p))
    return MetricScore("dice", score.value, p.fingerprint())
