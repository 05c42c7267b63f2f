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

The 12 subbands are independent until the final mean. Every call runs one
schedule of two steps: the filter bank is built when its shape is not
cached (as for every bounding-box crop), or else the test image is
transformed, while the caller transforms the rest; then the odd subbands
are scored while the caller scores the even ones. When the process may run
on more than one CPU, one worker thread, made by the first call that can
use it, runs the first task of each step; on one CPU the caller runs it at
once, and no thread starts. The 12 means are averaged in subband order, so
the bits are the same either way. Only the caller reads and writes the
filter-bank cache; the worker runs this module's bank builder, transform
and subband kernel, and nothing else. A score that is not finite (a sum
overflowed float64) is a ``DegenerateRangeError``.

Two steps save work per subband with the bits unchanged:

* ``ifft2`` is ``ifft`` along the rows and then along the columns, and the
  row pass runs only on the one or two runs of rows where the subband's
  mask is nonzero (about 60% of the rows on average); the rest are zero;
* an image larger than one block of rows (SSIM's walker,
  ``image.by_row_blocks``, with the 6-row halo of the 7x7 neighbourhood:
  a 192x192 image is one block, a 512x512 one five) has its statistics
  computed per block of valid rows, each reading its rows of the two
  subbands plus the halo, into one full-size ratio map, whose mean is the
  subband's; every element takes the operations of one pass, so its
  temporaries stay in cache.
"""

from __future__ import annotations

import os
import threading
from math import factorial

import numpy as np

from ..errors import RefmetError
from ..image import Image, by_row_blocks, correlate_valid, require_same_shape, row_blocks
from .score import MetricScore, finite_value, fingerprint

__all__ = ["cw_ssim"]

_NEIGHBORHOOD = 7
# Rows a valid position's neighbourhood reaches beyond it along axis 0.
_HALO = _NEIGHBORHOOD - 1
_LEVELS = 2
_ORIENTATIONS = 6
_K = 0.03
_FINGERPRINT = fingerprint(k=_K, levels=_LEVELS, neighborhood=_NEIGHBORHOOD,
                           orientations=_ORIENTATIONS)


# One cached filter bank, (shape, factors). A bank is its 8 factors (2 radial
# bands, 6 angular windows); a subband's mask band * a is formed when the
# subband is scored, so a 512x512 bank holds 16.8 MB where its 12 masks held
# 25 MB. A new shape replaces the cached one only when the call before had
# the same shape: a stream of varying crops keeps the full image's bank, and
# a workload that moves to another shape for good caches it from its second
# call on. Both cache globals are rebound whole, never changed in place, so
# concurrent calls need no lock for them.
_bank: tuple[tuple[int, int], tuple] | None = None
_last_shape: tuple[int, int] | None = None
_worker = None  # (pid, executor) of the process that made it
_worker_lock = threading.Lock()


def _build_bank(shape: tuple[int, int]):
    """Read-only frequency-domain factors: one radial band per level and
    one angular window per orientation."""
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
        # np.mod(x, 2 pi) for x in [-5 pi / 6, 2 pi], except at x = 2 pi, where
        # |dt| = pi either way and the window is closed.
        x = theta - np.pi * o / _ORIENTATIONS + np.pi
        dt = np.where(x < 0, x + 2.0 * np.pi, x) - np.pi
        # The power is taken only where the window is open: same values, and
        # a power of the closed half's negative cosines is about 15x slower.
        a = np.zeros(shape)
        inside = np.abs(dt) < np.pi / 2.0
        a[inside] = norm * np.cos(dt[inside]) ** order
        angular.append(a)
    # Octave radial bands centered at pi/2^l.
    bands = []
    with np.errstate(divide="ignore"):
        logr = np.log2(np.where(r > 0, r, 1e-30))
    for level in range(1, _LEVELS + 1):
        center = np.log2(np.pi) - level
        band = np.cos(np.pi / 2.0 * np.clip(logr - center, -1.0, 1.0))
        bands.append(np.where(np.abs(logr - center) < 1.0, band, 0.0))
    for factor in bands + angular:
        factor.flags.writeable = False
    return tuple(bands), tuple(angular)


def _cached_bank(shape: tuple[int, int]):
    """``(factors, keep)``: the cached factors of ``shape``, or None, and
    whether a bank built now for ``shape`` is to be cached (see above)."""
    global _last_shape
    cached, repeat = _bank, shape == _last_shape
    _last_shape = shape
    if cached is not None and cached[0] == shape:
        return cached[1], False
    return None, cached is None or repeat


def _keep_bank(shape: tuple[int, int], factors, keep: bool):
    """``factors``, cached as ``shape``'s bank when ``keep``."""
    global _bank
    if keep:
        _bank = shape, factors
    return factors


def _subband_means(fr: np.ndarray, ft: np.ndarray, bank, subbands) -> list[float]:
    """The mean index of each of ``subbands``: subband ``i`` has the mask
    ``bands[i // 6] * angular[i % 6]``. Overflow is left to ``cw_ssim``'s
    check of its score; errstate is per thread, so it is set here, where
    the worker runs."""
    bands, angular = bank
    with np.errstate(over="ignore", invalid="ignore"):
        return [_subband_index(fr, ft, bands[i // _ORIENTATIONS] * angular[i % _ORIENTATIONS])
                for i in subbands]


def _spectrum(data: np.ndarray) -> np.ndarray:
    """``np.fft.fft2(data)``, which may overflow like ``_subband_means``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.fft2(data)


def _pool():
    """The one worker thread, or None when the process may use one CPU only."""
    global _worker
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        return None
    # A forked child inherits the pool but not its thread, and would wait for
    # it forever: each process makes its own. The lock keeps concurrent first
    # calls from making two.
    with _worker_lock:
        if _worker is None or _worker[0] != os.getpid():
            # Imported on first use, so importing refmet loads no thread pool.
            from concurrent.futures import ThreadPoolExecutor
            _worker = os.getpid(), ThreadPoolExecutor(max_workers=1,
                                                      thread_name_prefix="refmet-cw_ssim")
        return _worker[1]


def _later(pool, fn, *args):
    """A callable that gives ``fn(*args)``: submitted to the worker ``pool``,
    or, when there is none, run at once on the caller."""
    if pool is not None:
        return pool.submit(fn, *args).result
    value = fn(*args)
    return lambda: value


def _neighborhood_sum(arr: np.ndarray) -> np.ndarray:
    """Plain 7x7 sums at valid positions (no weighting); real or complex."""
    ones = np.ones(_NEIGHBORHOOD)
    return correlate_valid(correlate_valid(arr, ones, 0), ones, 1)


def _ratio_map(cr: np.ndarray, ct: np.ndarray) -> np.ndarray:
    """num / den at the valid positions of two subbands (or of a block of
    their rows with its halo)."""
    den = _neighborhood_sum(np.abs(cr) ** 2) + _neighborhood_sum(np.abs(ct) ** 2) + _K
    cross = cr * np.conj(ct)
    # The box sums are cw_ssim's memory peak, so no subband is held through the
    # cross sum, nor the product through its second pass. A complex box sum
    # adds the real and imaginary parts separately.
    del cr, ct
    ones = np.ones(_NEIGHBORHOOD)
    cross = correlate_valid(cross, ones, 0)
    num = 2.0 * np.abs(correlate_valid(cross, ones, 1)) + _K
    return num / den


def _row_runs(mask: np.ndarray) -> list[slice]:
    """The runs of rows on which ``mask`` is nonzero: one, or two when the
    mask's rows wrap around row 0."""
    edges = np.flatnonzero(np.diff(mask.any(axis=1), prepend=False, append=False))
    return [slice(start, stop) for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist())]


def _masked_ifft2(f: np.ndarray, mask: np.ndarray, runs: list[slice]) -> np.ndarray:
    """``np.fft.ifft2(f * mask)``, bit for bit, where ``runs`` holds every
    row on which ``mask`` is nonzero. ``ifft2`` is ``ifft`` along the last
    axis, then along the first; the first pass runs on ``runs`` alone, and
    the other rows, all zero, join before the second."""
    out = np.zeros(f.shape, dtype=complex)
    for rows in runs:
        out[rows] = np.fft.ifft(f[rows] * mask[rows], axis=-1)
    return np.fft.ifft(out, axis=0)


def _subband_index(fr: np.ndarray, ft: np.ndarray, mask: np.ndarray) -> float:
    """Mean CW-SSIM index of one subband, from the two images' spectra."""
    runs = _row_runs(mask)
    if len(row_blocks(fr.shape, _HALO)) == 1:
        # No name holds the subbands, so _ratio_map frees them before its box sums.
        return np.mean(_ratio_map(_masked_ifft2(fr, mask, runs), _masked_ifft2(ft, mask, runs)))
    cr = _masked_ifft2(fr, mask, runs)
    ct = _masked_ifft2(ft, mask, runs)
    ratio, = by_row_blocks(lambda rows, span: (_ratio_map(cr[span], ct[span]),),
                           fr.shape, _HALO)
    return np.mean(ratio)


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
    shape = ref.data.shape
    n = _LEVELS * _ORIENTATIONS
    # Each _later step runs on the worker, or at once on the caller on one CPU.
    pool = _pool()
    bank, keep = _cached_bank(shape)
    if bank is None:
        built = _later(pool, _build_bank, shape)
        fr, ft = _spectrum(ref.data), _spectrum(test.data)
        bank = _keep_bank(shape, built(), keep)
    else:
        spectrum = _later(pool, _spectrum, test.data)
        fr = _spectrum(ref.data)
        ft = spectrum()
    odd = _later(pool, _subband_means, fr, ft, bank, range(1, n, 2))
    even = _subband_means(fr, ft, bank, range(0, n, 2))
    subband_means = [m for pair in zip(even, odd()) for m in pair]
    return MetricScore("cw_ssim", finite_value("cw_ssim", float(np.mean(subband_means))),
                       _FINGERPRINT)
