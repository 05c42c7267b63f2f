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


def _mean_squared_error(ref: np.ndarray, test: np.ndarray) -> float:
    """Mean squared difference; ``inf`` when the squares overflow float64."""
    with np.errstate(over="ignore"):
        diff = ref - test
        return float(np.mean(diff * diff))


def mse_values(ref: np.ndarray, test: np.ndarray) -> float:
    err = _mean_squared_error(ref, test)
    if math.isinf(err):
        raise DegenerateRangeError("mse undefined: the squared differences overflow float64")
    return err


def psnr_values(ref: np.ndarray, test: np.ndarray, data_range: float) -> float:
    """10 log10(L^2 / MSE) in dB; identical inputs score +inf (a legitimate
    best case, not an error)."""
    err = _mean_squared_error(ref, test)
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
    """Pearson correlation of co-located intensities; errors on constant input
    and on input whose squares overflow float64.

    The sums are numpy reductions, whose order numpy fixes, not BLAS dot
    products, whose order and threads depend on the BLAS build and the
    machine: the score does not depend on BLAS threads.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = ref.ravel() - ref.mean()
        t = test.ravel() - test.mean()
        sum_rr = float(np.sum(r * r))
        sum_tt = float(np.sum(t * t))
        if not (math.isfinite(sum_rr) and math.isfinite(sum_tt)):
            raise DegenerateRangeError("pcc undefined: the squared deviations overflow float64")
        # Two roots, not the root of the product, which overflows for sums
        # past about 1e154 that are finite on their own.
        denom = math.sqrt(sum_rr) * math.sqrt(sum_tt)
        if denom == 0.0:
            raise DegenerateRangeError("pcc undefined for constant input")
        return float(np.clip(float(np.sum(r * t)) / denom, -1.0, 1.0))


def psnr_score(ref: np.ndarray, test: np.ndarray,
               policy: DataRangePolicy) -> MetricScore:
    L = resolve_data_range_values(ref, test, policy)
    return MetricScore("psnr", psnr_values(ref, test, L),
                       fingerprint(data_range=L, range_policy=policy.spec_string()))
