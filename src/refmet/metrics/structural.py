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

Both metrics accept 2D and 3D grids via separable windows. The moments
are computed in blocks of rows (axis 0), each with its 10-row halo, so a
large image's temporaries stay in cache; every element takes the same
operations as in one pass, so the bits do not depend on the blocks.

Reuse across calls is one per-thread memo keyed on bits. It holds the last
reference's pyramid: per scale, its downsampled data and its moments, which
do not depend on L, each built on first use. The pyramid holds the last
test's scale-0 result, keyed on the test's bits and L: MS-SSIM's scale 0 is
SSIM's, so ms_ssim after ssim on one pair (or on an equal crop of it)
computes scale 0 once. Neither moves a bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..errors import ConfigError, RefmetError
from ..image import Image, correlate_valid, gaussian_kernel, require_same_shape, row_blocks
from ..normalize import resolve_data_range_values
from .memo import BitsMemo
from .score import MetricScore, fingerprint

if TYPE_CHECKING:
    from . import EvalContext

__all__ = ["ssim", "ms_ssim"]

K1 = 0.01
K2 = 0.03
_SIGMA = 1.5
# Read-only: every SSIM and MS-SSIM call shares this one array.
_WINDOW = gaussian_kernel(_SIGMA)
_WINDOW.flags.writeable = False
_WINDOW_NAME = f"gaussian(radius={len(_WINDOW) // 2},sigma={_SIGMA!r})"
# Rows a valid position's window reaches beyond it along axis 0.
_HALO = len(_WINDOW) - 1

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


def _by_row_blocks(maps, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """``maps(rows)``, a tuple of maps over the valid positions of
    ``shape``, called once per row block and joined into full-size maps;
    one block returns ``maps``' own arrays."""
    blocks = row_blocks(shape, _HALO)
    if len(blocks) == 1:
        return maps(blocks[0])
    valid = tuple(n - _HALO for n in shape)
    out = None
    for rows in blocks:
        parts = maps(rows)
        out = out or tuple(np.empty(valid) for _ in parts)
        for full, part in zip(out, parts):
            full[rows] = part
    return out


def _with_halo(rows: slice) -> slice:
    return slice(rows.start, rows.stop + _HALO)


def _ref_moments(ref: np.ndarray) -> RefMoments:
    if any(n < len(_WINDOW) for n in ref.shape):
        raise RefmetError(
            f"window support {len(_WINDOW)} does not fit image shape {ref.shape}")

    def maps(rows):
        r = ref[_with_halo(rows)]
        return _windowed_mean(r), _windowed_mean(r * r)

    return RefMoments(ref, *_by_row_blocks(maps, ref.shape))


def ssim_and_cs(ref: RefMoments, test: np.ndarray, data_range: float) -> tuple[float, float]:
    """(mean lum*cs, mean cs) over valid window positions at data range L;
    ``ref`` carries the reference moments."""
    c1 = (K1 * data_range) ** 2
    c2 = (K2 * data_range) ** 2

    def maps(rows):
        r, t = ref.data[_with_halo(rows)], test[_with_halo(rows)]
        mu_r = ref.mu[rows]
        mu_t = _windowed_mean(t)
        var_r = ref.sq[rows] - mu_r * mu_r
        var_t = _windowed_mean(t * t) - mu_t * mu_t
        cov = _windowed_mean(r * t) - mu_r * mu_t
        lum = (2.0 * mu_r * mu_t + c1) / (mu_r * mu_r + mu_t * mu_t + c1)
        cs = (2.0 * cov + c2) / (var_r + var_t + c2)
        return lum * cs, cs

    full, cs = _by_row_blocks(maps, test.shape)
    return float(np.mean(full)), float(np.mean(cs))


class _Pyramid:
    """One reference's per-scale downsampled data and moments
    (:class:`RefMoments`), each built on first use, and the last test's
    scale-0 ``ssim_and_cs`` result, keyed on the test's bits and L."""

    def __init__(self, data: np.ndarray):
        self.levels = [data]
        self.moments: dict[int, RefMoments] = {}
        self.scale0 = BitsMemo()

    def at(self, scale: int) -> RefMoments:
        levels = self.levels
        while len(levels) <= scale:
            levels.append(_downsample2(levels[-1]))
        if scale not in self.moments:
            self.moments[scale] = _ref_moments(levels[scale])
        return self.moments[scale]


# The last reference's pyramid per thread, keyed on the bits of its data.
_PYRAMID = BitsMemo()


def _scale0(ref: Image, test: Image,
            data_range: float) -> tuple[_Pyramid, tuple[float, float]]:
    """The pyramid of ``ref`` and the scale-0 (ssim, cs) of the pair at L."""
    require_same_shape(ref, test)
    pyramid = _PYRAMID.get(ref.data, None, lambda: _Pyramid(ref.data))
    return pyramid, pyramid.scale0.get(
        test.data, data_range, lambda: ssim_and_cs(pyramid.at(0), test.data, data_range))


def ssim(ref: Image, test: Image, ctx: EvalContext) -> MetricScore:
    """Single-scale structural similarity at the L ``ctx.range_policy``
    resolves; identical images score 1."""
    L = resolve_data_range_values(ref.data, test.data, ctx.range_policy)
    _, (value, _) = _scale0(ref, test, L)
    return MetricScore("ssim", value, fingerprint(
        data_range=L, k1=K1, k2=K2, range_policy=ctx.range_policy.spec_string(),
        window=_WINDOW_NAME))


def ms_ssim(ref: Image, test: Image, ctx: EvalContext) -> MetricScore:
    """Multi-scale structural similarity over ``ctx.scales`` scales with
    ``ctx.weights`` (default: the standard weights cut to ``scales``).

    With a single scale and weight (1.0,) this degenerates to plain SSIM.
    Negative per-scale terms are clamped to 0 before weighting.
    """
    L = resolve_data_range_values(ref.data, test.data, ctx.range_policy)
    scales = ctx.scales
    weights = truncated_weights(scales) if ctx.weights is None else ctx.weights
    pyramid, (full, cs) = _scale0(ref, test, L)
    t = test.data
    factors = []
    for scale in range(scales):
        if scale > 0:
            r = pyramid.at(scale)
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
