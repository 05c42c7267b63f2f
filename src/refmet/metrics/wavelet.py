"""Complex-wavelet structural similarity.

Images are decomposed into complex oriented subbands with an FFT-domain
filter bank in the steerable-pyramid style: 2 octave-wide raised-cosine
radial bands (level l centered at pi / 2^l) times 6 one-sided angular
windows cos(theta - theta_o)^5, which makes the coefficients complex
(analytic). No subsampling is applied; every subband keeps full
resolution.

Per subband, a 7x7 neighborhood around each valid position is compared
via

    (2 |sum c_r conj(c_t)| + k) / (sum |c_r|^2 + sum |c_t|^2 + k)

with k = 0.03, and the score is the mean over positions and subbands.
The consistent phase shift a small translation imprints on band-pass
coefficients cancels inside |sum c_r conj(c_t)|, which is what makes this
variant tolerant to small misalignments. There is no data-range parameter
anywhere in the computation, and no setting at all: levels, orientations,
k and the neighborhood are fixed.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from ..errors import RefmetError
from ..image import Image, correlate_valid, require_same_shape
from .score import MetricScore, fingerprint

__all__ = ["cw_ssim"]

_NEIGHBORHOOD = 7
_LEVELS = 2
_ORIENTATIONS = 6
_K = 0.03
_FINGERPRINT = fingerprint(k=_K, levels=_LEVELS, neighborhood=_NEIGHBORHOOD,
                           orientations=_ORIENTATIONS)


# One entry: an audit scores many pairs of one shape, and a 512x512 bank
# holds 25 MB.
@lru_cache(maxsize=1)
def _filter_bank(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Read-only frequency-domain masks for every (level, orientation)
    subband; cached, so every caller shares the same arrays."""
    h, w = shape
    wy = 2.0 * np.pi * np.fft.fftfreq(h)[:, None]
    wx = 2.0 * np.pi * np.fft.fftfreq(w)[None, :]
    r = np.hypot(wy, wx)
    theta = np.arctan2(wy, wx)
    # Orientation windows, one-sided so subbands are analytic.
    order = _ORIENTATIONS - 1
    norm = np.sqrt((2.0 ** (2 * order)) * factorial(order) ** 2
                   / (_ORIENTATIONS * factorial(2 * order)))
    angular = []
    for o in range(_ORIENTATIONS):
        dt = np.mod(theta - np.pi * o / _ORIENTATIONS + np.pi, 2.0 * np.pi) - np.pi
        a = np.where(np.abs(dt) < np.pi / 2.0, norm * np.cos(dt) ** order, 0.0)
        angular.append(a)
    # Octave radial bands centered at pi/2^l.
    masks = []
    with np.errstate(divide="ignore"):
        logr = np.log2(np.where(r > 0, r, 1e-30))
    for level in range(1, _LEVELS + 1):
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


def _subband_index(fr: np.ndarray, ft: np.ndarray, mask: np.ndarray) -> float:
    """Mean CW-SSIM index of one subband, from the two images' spectra."""
    cr = np.fft.ifft2(fr * mask)
    ct = np.fft.ifft2(ft * mask)
    den = _neighborhood_sum(np.abs(cr) ** 2) + _neighborhood_sum(np.abs(ct) ** 2) + _K
    cross = cr * np.conj(ct)
    # The box sums are cw_ssim's memory peak, so no subband is held through the
    # cross sum, nor the product through its second pass. A complex box sum
    # adds the real and imaginary parts separately.
    del cr, ct
    ones = np.ones(_NEIGHBORHOOD)
    cross = correlate_valid(cross, ones, 0)
    num = 2.0 * np.abs(correlate_valid(cross, ones, 1)) + _K
    return np.mean(num / den)


def cw_ssim(ref: Image, test: Image) -> MetricScore:
    """Complex-wavelet SSIM; 2D only, identical images score 1."""
    require_same_shape(ref, test)
    if ref.ndim != 2:
        raise RefmetError("cw_ssim supports 2D images only")
    min_extent = (2 ** _LEVELS) * _NEIGHBORHOOD
    if min(ref.shape) < min_extent:
        raise RefmetError(
            f"image extent {ref.shape} too small for {_LEVELS} levels "
            f"(needs >= {min_extent} per axis)")
    fr = np.fft.fft2(ref.data)
    ft = np.fft.fft2(test.data)
    subband_means = [_subband_index(fr, ft, mask) for mask in _filter_bank(ref.data.shape)]
    return MetricScore("cw_ssim", float(np.mean(subband_means)), _FINGERPRINT)
