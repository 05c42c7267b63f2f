"""Task-based comparison: segment both images, compare the segmentations.

The segmenter is a deterministic range-relative threshold followed by a
connected-component size filter. It stands in for a trained model at desk
scale; scores it produces are labeled proxy-task scores in reports and
are not comparable to any trained segmenter's output.
"""

from __future__ import annotations

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
    from scipy import ndimage  # refmet's only scipy use; kept off the import path

    p = params or SegmenterParams()
    lo = float(img.data.min())
    hi = float(img.data.max())
    if hi == lo:
        raise DegenerateRangeError("cannot segment a constant image")
    raw = img.data > lo + p.threshold_rel * (hi - lo)
    rank = 1 if p.connectivity == "face" else img.ndim
    labels, count = ndimage.label(raw, ndimage.generate_binary_structure(img.ndim, rank))
    if count == 0:
        return Mask(raw)
    sizes = np.bincount(labels.ravel())
    keep = sizes >= p.min_component_size
    keep[0] = False
    return Mask(keep[labels])


def task_similarity(ref: Image, test: Image,
                    params: SegmenterParams | None = None) -> MetricScore:
    """DICE overlap of the two images' proxy segmentations."""
    require_same_shape(ref, test)
    p = params or SegmenterParams()
    score = dice(threshold_segment(ref, p), threshold_segment(test, p))
    return MetricScore("dice", score.value, p.fingerprint())
