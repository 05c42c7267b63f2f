"""Error and statistical-dependency metrics computed per pixel location.

These operate on the multiset of co-located intensity pairs, so masking
simply restricts the set of locations (see ``masked_evaluate``).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateRangeError
from ..image import Image, require_same_shape
from ..normalize import DataRangePolicy, resolve_data_range_values
from .score import MetricScore, fingerprint

__all__ = ["mae", "mse", "psnr", "pcc"]


def mae_values(ref: np.ndarray, test: np.ndarray) -> float:
    return float(np.mean(np.abs(ref - test)))


def mse_values(ref: np.ndarray, test: np.ndarray) -> float:
    diff = ref - test
    return float(np.mean(diff * diff))


def psnr_values(ref: np.ndarray, test: np.ndarray, data_range: float) -> float:
    err = mse_values(ref, test)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(data_range * data_range / err)


def pcc_values(ref: np.ndarray, test: np.ndarray) -> float:
    r = ref.ravel() - ref.mean()
    t = test.ravel() - test.mean()
    denom = math.sqrt(float(r @ r) * float(t @ t))
    if denom == 0.0:
        raise DegenerateRangeError("pcc undefined for constant input")
    return float(np.clip(float(r @ t) / denom, -1.0, 1.0))


def mae(ref: Image, test: Image) -> MetricScore:
    """Mean absolute error (1/N) sum |R - I|."""
    require_same_shape(ref, test)
    return MetricScore("mae", mae_values(ref.data, test.data))


def mse(ref: Image, test: Image) -> MetricScore:
    """Mean squared error (1/N) sum (R - I)^2."""
    require_same_shape(ref, test)
    return MetricScore("mse", mse_values(ref.data, test.data))


def psnr_score(ref: np.ndarray, test: np.ndarray,
               policy: DataRangePolicy) -> MetricScore:
    L = resolve_data_range_values(ref, test, policy)
    return MetricScore("psnr", psnr_values(ref, test, L),
                       fingerprint(data_range=L, range_policy=policy.spec_string()))


def psnr(ref: Image, test: Image,
         range_policy: DataRangePolicy | None = None) -> MetricScore:
    """Peak signal-to-noise ratio 10 log10(L^2 / MSE) in dB.

    Identical images score +inf (a legitimate best case, not an error).
    L comes from ``range_policy`` (default: joint range of both images).
    """
    require_same_shape(ref, test)
    return psnr_score(ref.data, test.data, range_policy or DataRangePolicy.joint())


def pcc(ref: Image, test: Image) -> MetricScore:
    """Pearson correlation of co-located intensities; errors on constant input."""
    require_same_shape(ref, test)
    return MetricScore("pcc", pcc_values(ref.data, test.data))
