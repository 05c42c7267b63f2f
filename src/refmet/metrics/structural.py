"""Structural similarity (single scale and multi-scale).

SSIM slides a weighting window over both images and, at every position
where the window fits entirely inside the grid, compares local mean
intensity and local contrast/structure:

    lum = (2 mu_r mu_t + C1) / (mu_r^2 + mu_t^2 + C1)
    cs  = (2 cov_rt + C2)  / (var_r + var_t + C2)

with C1 = (K1 L)^2, C2 = (K2 L)^2 and L the data-range parameter, which
each call resolves from ``ctx.range_policy``. The window and constants are
the standard ones of Wang et al. (IEEE TIP 2004): an 11-tap Gaussian with
sigma 1.5, K1 = 0.01 and K2 = 0.03. The score is the mean of lum*cs over
all valid positions. Local moments are window-weighted without bias
correction.

MS-SSIM evaluates cs at every scale and luminance only at the coarsest,
combining them as a weighted geometric product. Downsampling halves each
axis by non-overlapping 2x2 (2x2x2 in 3D) mean pooling; trailing odd rows
are dropped.

Both metrics accept 2D and 3D grids via separable windows. The reference's
moments do not depend on L, so a :class:`RefWorkspace` keeps them for every
test scored against one reference, and keeps a pair's scale-0 result per
L so ms_ssim reuses ssim's; it never moves a bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..errors import ConfigError, RefmetError
from ..image import Image, correlate_valid, gaussian_kernel, require_same_shape
from ..normalize import resolve_data_range_values
from .score import MetricScore, fingerprint

if TYPE_CHECKING:
    from . import EvalContext

__all__ = ["RefWorkspace", "ssim", "ms_ssim"]

K1 = 0.01
K2 = 0.03
_SIGMA = 1.5
# Read-only: every SSIM and MS-SSIM call shares this one array.
_WINDOW = gaussian_kernel(_SIGMA)
_WINDOW.flags.writeable = False
_WINDOW_NAME = f"gaussian(radius={len(_WINDOW) // 2},sigma={_SIGMA!r})"

# Weights from the standard multi-scale construction.
DEFAULT_MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


def truncated_weights(scales: int) -> tuple[float, ...]:
    """First ``scales`` standard weights, renormalized to sum to 1.

    The full 5-scale set is returned verbatim (its published sum is 1.0001,
    accepted by the validation slack).
    """
    if not 1 <= scales <= len(DEFAULT_MSSSIM_WEIGHTS):
        raise ConfigError(f"scales must be in 1..{len(DEFAULT_MSSSIM_WEIGHTS)}")
    if scales == len(DEFAULT_MSSSIM_WEIGHTS):
        return DEFAULT_MSSSIM_WEIGHTS
    w = DEFAULT_MSSSIM_WEIGHTS[:scales]
    total = sum(w)
    return tuple(x / total for x in w)


def _windowed_mean(arr: np.ndarray) -> np.ndarray:
    """Window-weighted local mean at all valid positions (separable)."""
    for ax in range(arr.ndim):
        arr = correlate_valid(arr, _WINDOW, ax)
    return arr


def _downsample2(arr: np.ndarray) -> np.ndarray:
    """Non-overlapping block-mean pooling by 2 along every axis."""
    halved = tuple(n // 2 for n in arr.shape)
    if any(n < 1 for n in halved):
        raise RefmetError(f"cannot halve shape {arr.shape}")
    sl = tuple(slice(0, 2 * n) for n in halved)
    arr = arr[sl]
    if arr.ndim == 2:
        h, w = halved
        return arr.reshape(h, 2, w, 2).mean(axis=(1, 3))
    d, h, w = halved
    return arr.reshape(d, 2, h, 2, w, 2).mean(axis=(1, 3, 5))


class RefMoments(NamedTuple):
    """A reference at one scale with its window-weighted mean and mean of
    squares; neither depends on the data range L."""

    data: np.ndarray
    mu: np.ndarray
    sq: np.ndarray


def _ref_moments(ref: np.ndarray) -> RefMoments:
    if any(n < len(_WINDOW) for n in ref.shape):
        raise RefmetError(
            f"window support {len(_WINDOW)} does not fit image shape {ref.shape}")
    return RefMoments(ref, _windowed_mean(ref), _windowed_mean(ref * ref))


def ssim_and_cs(ref: RefMoments, test: np.ndarray, data_range: float) -> tuple[float, float]:
    """(mean lum*cs, mean cs) over valid window positions at data range L;
    ``ref`` carries the reference moments."""
    c1 = (K1 * data_range) ** 2
    c2 = (K2 * data_range) ** 2
    mu_r = ref.mu
    mu_t = _windowed_mean(test)
    var_r = ref.sq - mu_r * mu_r
    var_t = _windowed_mean(test * test) - mu_t * mu_t
    cov = _windowed_mean(ref.data * test) - mu_r * mu_t
    lum = (2.0 * mu_r * mu_t + c1) / (mu_r * mu_r + mu_t * mu_t + c1)
    cs = (2.0 * cov + c2) / (var_r + var_t + c2)
    return float(np.mean(lum * cs)), float(np.mean(cs))


class RefWorkspace:
    """What ssim and ms_ssim reuse across calls, built on first use: per
    scale, one reference Image's downsampled data and moments
    (:class:`RefMoments`), and per data range L, one (reference, test)
    pair's scale-0 ``ssim_and_cs`` result (MS-SSIM's scale 0 is SSIM's).

    Both are keyed on Image identity: another reference object, even one
    with equal values, drops everything, and another test drops the scale-0
    results. So it holds one reference and one test at most, never serves a
    stale value, and scores never depend on it.
    """

    def __init__(self):
        self._ref: Image | None = None
        self._test: Image | None = None
        self._pyramid: list[RefMoments] = []
        self._scale0: dict[float, tuple[float, float]] = {}

    def moments(self, ref: Image, scale: int) -> RefMoments:
        if ref is not self._ref:
            self._ref, self._pyramid = ref, []
            self._test, self._scale0 = None, {}
        levels = self._pyramid
        while len(levels) <= scale:
            data = _downsample2(levels[-1].data) if levels else ref.data
            levels.append(_ref_moments(data))
        return levels[scale]

    def scale0(self, ref: Image, test: Image, data_range: float) -> tuple[float, float]:
        require_same_shape(ref, test)
        r = self.moments(ref, 0)
        if test is not self._test:
            self._test, self._scale0 = test, {}
        if data_range not in self._scale0:
            self._scale0[data_range] = ssim_and_cs(r, test.data, data_range)
        return self._scale0[data_range]


def ssim(ref: Image, test: Image, ctx: EvalContext,
         ws: RefWorkspace | None = None) -> MetricScore:
    """Single-scale structural similarity at the L ``ctx.range_policy``
    resolves; identical images score 1. ``ws`` lets calls share work (see
    :class:`RefWorkspace`)."""
    L = resolve_data_range_values(ref.data, test.data, ctx.range_policy)
    value, _ = (ws or RefWorkspace()).scale0(ref, test, L)
    return MetricScore("ssim", value, fingerprint(
        data_range=L, k1=K1, k2=K2, range_policy=ctx.range_policy.spec_string(),
        window=_WINDOW_NAME))


def ms_ssim(ref: Image, test: Image, ctx: EvalContext,
            ws: RefWorkspace | None = None) -> MetricScore:
    """Multi-scale structural similarity over ``ctx.scales`` scales with
    ``ctx.weights`` (default: the standard weights cut to ``scales``).

    With a single scale and weight (1.0,) this degenerates to plain SSIM.
    Negative per-scale terms are clamped to 0 before weighting. ``ws`` lets
    calls share work (see :class:`RefWorkspace`).
    """
    L = resolve_data_range_values(ref.data, test.data, ctx.range_policy)
    scales = ctx.scales
    weights = truncated_weights(scales) if ctx.weights is None else ctx.weights
    ws = ws or RefWorkspace()
    t = test.data
    factors = []
    for scale in range(scales):
        if scale == 0:
            full, cs = ws.scale0(ref, test, L)
        else:
            r = ws.moments(ref, scale)
            t = _downsample2(t)
            full, cs = ssim_and_cs(r, t, L)
        factors.append(full if scale == scales - 1 else cs)
    value = 1.0
    for f, w in zip(factors, weights):
        value *= max(f, 0.0) ** w
    return MetricScore("ms_ssim", float(value), fingerprint(
        data_range=L, downsample="mean2", k1=K1, k2=K2,
        range_policy=ctx.range_policy.spec_string(), scales=scales, weights=weights,
        window=_WINDOW_NAME))
