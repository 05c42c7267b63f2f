"""Complex-wavelet structural similarity.

Images are decomposed into complex oriented subbands with an FFT-domain
filter bank in the steerable-pyramid style: octave-wide raised-cosine
radial bands (level l centered at pi / 2^l) times one-sided angular
windows cos(theta - theta_o)^(K-1), which makes the coefficients complex
(analytic). No subsampling is applied; every subband keeps full
resolution.

Per subband, a 7x7 neighborhood around each valid position is compared
via

    (2 |sum c_r conj(c_t)| + k) / (sum |c_r|^2 + sum |c_t|^2 + k)

and the score is the mean over positions and subbands. The consistent
phase shift a small translation imprints on band-pass coefficients
cancels inside |sum c_r conj(c_t)|, which is what makes this variant
tolerant to small misalignments. There is no data-range parameter
anywhere in the computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from ..errors import ConfigError, RefmetError
from ..image import Image, correlate_valid, require_same_shape
from .score import MetricScore, fingerprint

__all__ = ["CwSsimParams", "cw_ssim"]

_NEIGHBORHOOD = 7


@dataclass(frozen=True)
class CwSsimParams:
    levels: int = 2
    orientations: int = 6
    k: float = 0.03

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError("levels must be >= 1")
        if self.orientations < 2:
            raise ConfigError("orientations must be >= 2")
        if not self.k > 0:
            raise ConfigError("k must be > 0")

    def fingerprint(self) -> str:
        return fingerprint(k=self.k, levels=self.levels, neighborhood=_NEIGHBORHOOD,
                           orientations=self.orientations)


# One entry: an audit scores many pairs of one shape, and a 512x512 bank
# holds 25 MB.
@lru_cache(maxsize=1)
def _filter_bank(shape: tuple[int, int], levels: int,
                 orientations: int) -> tuple[np.ndarray, ...]:
    """Read-only frequency-domain masks for every (level, orientation)
    subband; cached, so every caller shares the same arrays."""
    h, w = shape
    wy = 2.0 * np.pi * np.fft.fftfreq(h)[:, None]
    wx = 2.0 * np.pi * np.fft.fftfreq(w)[None, :]
    r = np.hypot(wy, wx)
    theta = np.arctan2(wy, wx)
    # Orientation windows, one-sided so subbands are analytic.
    order = orientations - 1
    norm = np.sqrt((2.0 ** (2 * order)) * factorial(order) ** 2
                   / (orientations * factorial(2 * order)))
    angular = []
    for o in range(orientations):
        dt = np.mod(theta - np.pi * o / orientations + np.pi, 2.0 * np.pi) - np.pi
        a = np.where(np.abs(dt) < np.pi / 2.0, norm * np.cos(dt) ** order, 0.0)
        angular.append(a)
    # Octave radial bands centered at pi/2^l.
    masks = []
    with np.errstate(divide="ignore"):
        logr = np.log2(np.where(r > 0, r, 1e-30))
    for level in range(1, levels + 1):
        center = np.log2(np.pi) - level
        band = np.cos(np.pi / 2.0 * np.clip(logr - center, -1.0, 1.0))
        band = np.where(np.abs(logr - center) < 1.0, band, 0.0)
        for a in angular:
            mask = band * a
            mask.flags.writeable = False
            masks.append(mask)
    return tuple(masks)


def _neighborhood_sum(arr: np.ndarray) -> np.ndarray:
    """Plain 7x7 sums at valid positions (no weighting); real or complex."""
    ones = np.ones(_NEIGHBORHOOD)
    return correlate_valid(correlate_valid(arr, ones, 0), ones, 1)


def _subband_index(fr: np.ndarray, ft: np.ndarray, mask: np.ndarray, k: float) -> float:
    """Mean CW-SSIM index of one subband, from the two images' spectra."""
    cr = np.fft.ifft2(fr * mask)
    ct = np.fft.ifft2(ft * mask)
    den = _neighborhood_sum(np.abs(cr) ** 2) + _neighborhood_sum(np.abs(ct) ** 2) + k
    cross = cr * np.conj(ct)
    # The box sums are cw_ssim's memory peak, so no subband is held through the
    # cross sum, nor the product through its second pass. A complex box sum
    # adds the real and imaginary parts separately.
    del cr, ct
    ones = np.ones(_NEIGHBORHOOD)
    cross = correlate_valid(cross, ones, 0)
    num = 2.0 * np.abs(correlate_valid(cross, ones, 1)) + k
    return np.mean(num / den)


def cw_ssim(ref: Image, test: Image, params: CwSsimParams | None = None) -> MetricScore:
    """Complex-wavelet SSIM; 2D only, identical images score 1."""
    require_same_shape(ref, test)
    if ref.ndim != 2:
        raise RefmetError("cw_ssim supports 2D images only")
    p = params or CwSsimParams()
    min_extent = (2 ** p.levels) * _NEIGHBORHOOD
    if min(ref.shape) < min_extent:
        raise RefmetError(
            f"image extent {ref.shape} too small for {p.levels} levels "
            f"(needs >= {min_extent} per axis)")
    fr = np.fft.fft2(ref.data)
    ft = np.fft.fft2(test.data)
    subband_means = [_subband_index(fr, ft, mask, p.k)
                     for mask in _filter_bank(ref.data.shape, p.levels, p.orientations)]
    return MetricScore("cw_ssim", float(np.mean(subband_means)), p.fingerprint())
