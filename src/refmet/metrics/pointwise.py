"""Error and statistical-dependency metrics computed per pixel location.

These operate on the multiset of co-located intensity pairs, so masking
simply restricts the set of locations (see ``masked_evaluate``).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateRangeError
from ..normalize import DataRangePolicy, resolve_data_range_values
from .score import MetricScore, fingerprint

__all__ = ["mae_values", "mse_values", "psnr_values", "psnr_score", "pcc_values"]


def mae_values(ref: np.ndarray, test: np.ndarray) -> float:
    return float(np.mean(np.abs(ref - test)))


def mse_values(ref: np.ndarray, test: np.ndarray) -> float:
    diff = ref - test
    return float(np.mean(diff * diff))


def psnr_values(ref: np.ndarray, test: np.ndarray, data_range: float) -> float:
    """10 log10(L^2 / MSE) in dB; identical inputs score +inf (a legitimate
    best case, not an error)."""
    err = mse_values(ref, test)
    if err == 0.0:
        return math.inf
    if math.isinf(err):
        raise DegenerateRangeError("psnr undefined: the mean squared error overflows float64")
    ratio = data_range * data_range / err
    if ratio == 0.0 or math.isinf(ratio):
        # L^2 / MSE leaves float64's range although both logs are finite.
        return 20.0 * math.log10(data_range) - 10.0 * math.log10(err)
    return 10.0 * math.log10(ratio)


def pcc_values(ref: np.ndarray, test: np.ndarray) -> float:
    """Pearson correlation of co-located intensities; errors on constant input."""
    r = ref.ravel() - ref.mean()
    t = test.ravel() - test.mean()
    denom = math.sqrt(float(r @ r) * float(t @ t))
    if denom == 0.0:
        raise DegenerateRangeError("pcc undefined for constant input")
    return float(np.clip(float(r @ t) / denom, -1.0, 1.0))


def psnr_score(ref: np.ndarray, test: np.ndarray,
               policy: DataRangePolicy) -> MetricScore:
    L = resolve_data_range_values(ref, test, policy)
    return MetricScore("psnr", psnr_values(ref, test, L),
                       fingerprint(data_range=L, range_policy=policy.spec_string()))
