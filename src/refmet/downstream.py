"""Task-based comparison: segment both images, compare the segmentations.

The segmenter is a deterministic range-relative threshold followed by a
face-connected component size filter. It stands in for a trained model at
desk scale; scores it produces are labeled proxy-task scores in reports and
are not comparable to any trained segmenter's output.

It has no settings. Both constants fit the phantoms' intensity layout
(:mod:`refmet.phantom`): the cut, 0.94 of the image's range above its
minimum, sits between tissue (at most 0.92) and tumor (at least 0.955), and
the vessel marker is smaller than the size filter. The cut is relative to
the range, so segmentation is invariant under affine normalization with
positive scale.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRangeError
from .image import Image, Mask, require_same_shape
from .metrics.overlap import dice
from .metrics.score import MetricScore, fingerprint

__all__ = ["THRESHOLD_REL", "MIN_COMPONENT_SIZE", "threshold_segment", "task_similarity"]

THRESHOLD_REL = 0.94
MIN_COMPONENT_SIZE = 20  # pixels; smaller face-connected components are dropped
_FINGERPRINT = fingerprint(connectivity="face", min_component_size=MIN_COMPONENT_SIZE,
                           threshold_rel=THRESHOLD_REL)


def threshold_segment(img: Image) -> Mask:
    """Pixels above min + THRESHOLD_REL * (max - min), size-filtered."""
    lo = float(img.data.min())
    hi = float(img.data.max())
    if hi == lo:
        raise DegenerateRangeError("cannot segment a constant image")
    labels = _label(img.data > lo + THRESHOLD_REL * (hi - lo))
    keep = np.bincount(labels.ravel()) >= MIN_COMPONENT_SIZE
    keep[0] = False
    return Mask(keep[labels])


def _label(raw: np.ndarray) -> np.ndarray:
    """Face-connected components of the 2D or 3D boolean array ``raw``: 0
    off it, one id per component on it. Ids are positive but not
    consecutive; the partition is ``ndimage.label``'s.

    Pixels are grouped into runs along the last axis, and an edge joins two
    runs where a pixel of one is the next pixel along a leading axis of a
    pixel of the other. Such a pair repeats the pair one step back along the
    last axis unless one of its pixels starts its run, so only those pairs
    are kept. The run graph is solved by hooking and shortcutting: each
    round hooks every root that has an edge to a smaller root onto one such
    root, then flattens the trees by pointer jumping. The rounds therefore do
    not grow with the length of a path through a component; a serpentine
    takes one.
    """
    start = raw.copy()
    start[..., 1:] &= ~raw[..., :-1]
    run = np.cumsum(start, dtype=np.intp).reshape(raw.shape)
    run *= raw
    us, vs = [], []
    # One unit step along each leading axis (the last axis is inside a run).
    for axis in range(raw.ndim - 1):
        a = (slice(None),) * axis + (slice(0, -1),)
        b = (slice(None),) * axis + (slice(1, None),)
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


def task_similarity(ref: Image, test: Image) -> MetricScore:
    """DICE overlap of the two images' proxy segmentations."""
    require_same_shape(ref, test)
    score = dice(threshold_segment(ref), threshold_segment(test))
    return MetricScore("dice", score.value, _FINGERPRINT)
