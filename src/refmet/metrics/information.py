"""Mutual information metrics from joint intensity histograms.

Entropies use the natural logarithm. The joint histogram has ``bins``
equal-width bins per axis, the one setting; each axis's bin edges cover
that image's own min/max (``hist_range=per_image`` in the fingerprint).
Marginal entropies are derived from the same joint histogram, so
mi(R, R) = H(R) holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DegenerateRangeError
from .score import fingerprint

__all__ = ["HistogramParams", "joint_histogram", "entropies", "mi_values", "nmi_values"]


@dataclass(frozen=True)
class HistogramParams:
    bins: int = 256

    def __post_init__(self):
        if self.bins < 2:
            raise ConfigError(f"histogram bins must be >= 2, got {self.bins}")

    def fingerprint(self) -> str:
        return fingerprint(bins=self.bins, hist_range="per_image")


def _edges(vals: np.ndarray, bins: int) -> np.ndarray:
    """``bins + 1`` uniform edges over the values' own min/max."""
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        # Constant axis: a single occupied bin, entropy 0.
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, bins + 1)


def _bin_index(vals: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each value on uniform ``edges`` that cover every value.

    Direct indexing with ``np.histogram``'s correction for the ~1 ULP the
    division can miss by: bins are half-open except the closed last one,
    so the result equals ``np.histogram2d``'s binning on the same edges.
    """
    bins = len(edges) - 1
    idx = ((vals - edges[0]) / (edges[-1] - edges[0]) * bins).astype(np.intp)
    idx[idx == bins] -= 1
    idx -= vals < edges[idx]
    idx += (vals >= edges[idx + 1]) & (idx != bins - 1)
    return idx


def joint_histogram(ref_vals: np.ndarray, test_vals: np.ndarray,
                    h: HistogramParams) -> np.ndarray:
    """Float64 counts, rows binned on ``ref_vals``, columns on ``test_vals``."""
    flat = (_bin_index(ref_vals.ravel(), _edges(ref_vals, h.bins)) * h.bins
            + _bin_index(test_vals.ravel(), _edges(test_vals, h.bins)))
    counts = np.bincount(flat, minlength=h.bins * h.bins)
    return counts.reshape(h.bins, h.bins).astype(np.float64)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def entropies(ref_vals: np.ndarray, test_vals: np.ndarray,
              h: HistogramParams) -> tuple[float, float, float]:
    """(H(R), H(I), H(R,I)) from one shared joint histogram."""
    hist = joint_histogram(ref_vals, test_vals, h)
    p = hist / hist.sum()
    return _entropy(p.sum(axis=1)), _entropy(p.sum(axis=0)), _entropy(p.ravel())


def mi_values(ref_vals: np.ndarray, test_vals: np.ndarray, h: HistogramParams) -> float:
    hr, ht, hrt = entropies(ref_vals, test_vals, h)
    return hr + ht - hrt


def nmi_values(ref_vals: np.ndarray, test_vals: np.ndarray, h: HistogramParams) -> float:
    """Normalized mutual information (H(R) + H(I)) / H(R,I), in [1, 2]."""
    hr, ht, hrt = entropies(ref_vals, test_vals, h)
    if hrt == 0.0:
        raise DegenerateRangeError("nmi undefined: joint entropy is 0 (constant images)")
    return (hr + ht) / hrt
