"""Structural similarity (single scale and multi-scale).

SSIM slides a weighting window over both images and, at every position
where the window fits entirely inside the grid, compares local mean
intensity and local contrast/structure:

    lum = (2 mu_r mu_t + C1) / (mu_r^2 + mu_t^2 + C1)
    cs  = (2 cov_rt + C2)  / (var_r + var_t + C2)

with C1 = (k1 L)^2, C2 = (k2 L)^2 and L the data-range parameter. The
score is the mean of lum*cs over all valid positions. Local moments are
window-weighted without bias correction.

MS-SSIM evaluates cs at every scale and luminance only at the coarsest,
combining them as a weighted geometric product. Downsampling halves each
axis by non-overlapping 2x2 (2x2x2 in 3D) mean pooling; trailing odd rows
are dropped.

Both metrics accept 2D and 3D grids via separable windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, RefmetError
from ..image import Image, correlate_valid, require_same_shape
from .score import MetricScore, fingerprint

__all__ = ["WindowSpec", "SsimParams", "MsSsimParams", "ssim", "ms_ssim"]

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


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window weighting: gaussian(sigma, radius) or uniform(side)."""

    kind: str = "gaussian"
    sigma: float = 1.5
    radius: int = 5
    side: int = 11

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform"):
            raise ConfigError(f"unknown window kind {self.kind!r}")
        if self.kind == "gaussian":
            if not self.sigma > 0 or self.radius < 1:
                raise ConfigError("gaussian window needs sigma > 0 and radius >= 1")
        else:
            if self.side < 3 or self.side % 2 == 0:
                raise ConfigError("uniform window side must be odd and >= 3")

    @classmethod
    def gaussian(cls, sigma: float = 1.5, radius: int = 5) -> "WindowSpec":
        return cls("gaussian", sigma=float(sigma), radius=int(radius))

    @classmethod
    def uniform(cls, side: int) -> "WindowSpec":
        return cls("uniform", side=int(side))

    @property
    def support(self) -> int:
        return 2 * self.radius + 1 if self.kind == "gaussian" else self.side

    def kernel1d(self) -> np.ndarray:
        if self.kind == "uniform":
            return np.full(self.side, 1.0 / self.side)
        x = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        k = np.exp(-(x * x) / (2.0 * self.sigma * self.sigma))
        return k / k.sum()

    def describe(self) -> str:
        if self.kind == "uniform":
            return f"uniform(side={self.side})"
        return f"gaussian(radius={self.radius},sigma={self.sigma!r})"


@dataclass(frozen=True)
class SsimParams:
    data_range: float
    window: WindowSpec = field(default_factory=WindowSpec)
    k1: float = 0.01
    k2: float = 0.03

    def __post_init__(self):
        if not self.data_range > 0:
            raise ConfigError(f"data_range must be > 0, got {self.data_range}")
        if not (self.k1 > 0 and self.k2 > 0):
            raise ConfigError("k1 and k2 must be > 0")

    def fingerprint(self) -> str:
        return fingerprint(data_range=float(self.data_range), k1=self.k1, k2=self.k2,
                           window=self.window.describe())


@dataclass(frozen=True)
class MsSsimParams:
    base: SsimParams
    scales: int = 5
    weights: tuple[float, ...] = DEFAULT_MSSSIM_WEIGHTS

    def __post_init__(self):
        if self.scales < 1:
            raise ConfigError("scales must be >= 1")
        if len(self.weights) != self.scales:
            raise ConfigError(
                f"need one weight per scale: {len(self.weights)} weights, "
                f"{self.scales} scales")
        if any(w <= 0 for w in self.weights):
            raise ConfigError("weights must be positive")
        # 1e-3 slack: the standard published weights sum to 1.0001.
        if abs(sum(self.weights) - 1.0) > 1e-3:
            raise ConfigError(f"weights must sum to 1, got {sum(self.weights)}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    def fingerprint(self) -> str:
        return fingerprint(data_range=float(self.base.data_range),
                           downsample="mean2", k1=self.base.k1, k2=self.base.k2,
                           scales=self.scales, weights=self.weights,
                           window=self.base.window.describe())


def _windowed_mean(arr: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Window-weighted local mean at all valid positions (separable)."""
    for ax in range(arr.ndim):
        arr = correlate_valid(arr, kern, ax)
    return arr


def _check_window_fits(shape: tuple[int, ...], support: int) -> None:
    if any(n < support for n in shape):
        raise RefmetError(
            f"window support {support} does not fit image shape {shape}")


def ssim_and_cs(ref: np.ndarray, test: np.ndarray, p: SsimParams) -> tuple[float, float]:
    """(mean lum*cs, mean cs) over valid window positions."""
    _check_window_fits(ref.shape, p.window.support)
    kern = p.window.kernel1d()
    c1 = (p.k1 * p.data_range) ** 2
    c2 = (p.k2 * p.data_range) ** 2
    mu_r = _windowed_mean(ref, kern)
    mu_t = _windowed_mean(test, kern)
    var_r = _windowed_mean(ref * ref, kern) - mu_r * mu_r
    var_t = _windowed_mean(test * test, kern) - mu_t * mu_t
    cov = _windowed_mean(ref * test, kern) - mu_r * mu_t
    lum = (2.0 * mu_r * mu_t + c1) / (mu_r * mu_r + mu_t * mu_t + c1)
    cs = (2.0 * cov + c2) / (var_r + var_t + c2)
    return float(np.mean(lum * cs)), float(np.mean(cs))


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


def ssim(ref: Image, test: Image, params: SsimParams) -> MetricScore:
    """Single-scale structural similarity; identical images score 1."""
    require_same_shape(ref, test)
    value, _ = ssim_and_cs(ref.data, test.data, params)
    return MetricScore("ssim", value, params.fingerprint())


def ms_ssim(ref: Image, test: Image, params: MsSsimParams) -> MetricScore:
    """Multi-scale structural similarity.

    With a single scale and weight (1.0,) this degenerates to plain SSIM.
    Negative per-scale terms are clamped to 0 before weighting.
    """
    require_same_shape(ref, test)
    r, t = ref.data, test.data
    factors = []
    for scale in range(params.scales):
        if scale > 0:
            r, t = _downsample2(r), _downsample2(t)
        last = scale == params.scales - 1
        full, cs = ssim_and_cs(r, t, params.base)
        factors.append(full if last else cs)
    value = 1.0
    for f, w in zip(factors, params.weights):
        value *= max(f, 0.0) ** w
    return MetricScore("ms_ssim", float(value), params.fingerprint())
