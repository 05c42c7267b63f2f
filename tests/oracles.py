"""Naive reference implementations used as independent oracles.

Everything here is deliberately written with explicit Python loops and
direct window slicing, sharing no code path with the package (which uses
separable convolutions). Keep it that way: these exist to catch bugs in
the fast implementations.
"""

import math

import numpy as np


def gaussian_kernel2d(sigma: float, radius: int) -> np.ndarray:
    size = 2 * radius + 1
    k = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            dy, dx = i - radius, j - radius
            k[i, j] = math.exp(-(dy * dy + dx * dx) / (2.0 * sigma * sigma))
    return k / k.sum()


def naive_ssim_and_cs(ref, test, data_range, k1=0.01, k2=0.03, kernel=None):
    """Double-loop SSIM: weighted window moments at every valid position."""
    if kernel is None:
        kernel = gaussian_kernel2d(1.5, 5)
    side = kernel.shape[0]
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    h, w = ref.shape
    lum_cs, cs_only = [], []
    for y in range(h - side + 1):
        for x in range(w - side + 1):
            wr = ref[y:y + side, x:x + side]
            wt = test[y:y + side, x:x + side]
            mu_r = float((kernel * wr).sum())
            mu_t = float((kernel * wt).sum())
            var_r = float((kernel * wr * wr).sum()) - mu_r * mu_r
            var_t = float((kernel * wt * wt).sum()) - mu_t * mu_t
            cov = float((kernel * wr * wt).sum()) - mu_r * mu_t
            lum = (2 * mu_r * mu_t + c1) / (mu_r * mu_r + mu_t * mu_t + c1)
            cs = (2 * cov + c2) / (var_r + var_t + c2)
            lum_cs.append(lum * cs)
            cs_only.append(cs)
    return float(np.mean(lum_cs)), float(np.mean(cs_only))


def naive_ssim(ref, test, data_range, **kw):
    return naive_ssim_and_cs(ref, test, data_range, **kw)[0]


def naive_halve(arr):
    """Block 2x2 means via explicit loops (trailing odd row/column dropped)."""
    h2, w2 = arr.shape[0] // 2, arr.shape[1] // 2
    out = np.empty((h2, w2))
    for i in range(h2):
        for j in range(w2):
            out[i, j] = arr[2 * i:2 * i + 2, 2 * j:2 * j + 2].mean()
    return out


def naive_ms_ssim(ref, test, data_range, weights, k1=0.01, k2=0.03, kernel=None):
    """Naive multi-scale recursion: cs at every scale, full ssim at coarsest."""
    score = 1.0
    for i, weight in enumerate(weights):
        if i > 0:
            ref, test = naive_halve(ref), naive_halve(test)
        full, cs = naive_ssim_and_cs(ref, test, data_range, k1=k1, k2=k2,
                                     kernel=kernel)
        term = full if i == len(weights) - 1 else cs
        score *= max(term, 0.0) ** weight
    return score


def naive_entropy_bits(values, bins, lo, hi):
    """Histogram entropy in nats via explicit counting."""
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in values:
        idx = bins - 1 if v == hi else int((v - lo) / width)
        counts[min(max(idx, 0), bins - 1)] += 1
    n = len(values)
    return -sum((c / n) * math.log(c / n) for c in counts if c > 0)


def naive_box_sum(arr, side):
    """Unweighted side x side window sums at every valid position."""
    h, w = arr.shape
    out = np.empty((h - side + 1, w - side + 1), dtype=arr.dtype)
    for y in range(h - side + 1):
        for x in range(w - side + 1):
            total = 0.0
            for dy in range(side):
                for dx in range(side):
                    total += arr[y + dy, x + dx]
            out[y, x] = total
    return out


def naive_cw_ssim_index(ref_subbands, test_subbands, k=0.03, side=7):
    """CW-SSIM index stage over given complex subbands: at every valid
    position, (2 |sum c_r conj(c_t)| + k) / (sum |c_r|^2 + sum |c_t|^2 + k)
    over the side x side neighborhood, averaged over positions, then over
    subbands."""
    means = []
    for cr, ct in zip(ref_subbands, test_subbands):
        cross = naive_box_sum(cr * np.conj(ct), side)
        energy_r = naive_box_sum(np.abs(cr) ** 2, side)
        energy_t = naive_box_sum(np.abs(ct) ** 2, side)
        h, w = cross.shape
        total = 0.0
        for y in range(h):
            for x in range(w):
                total += ((2.0 * abs(cross[y, x]) + k)
                          / (energy_r[y, x] + energy_t[y, x] + k))
        means.append(total / (h * w))
    return sum(means) / len(means)


def naive_pcc(ref, test):
    """Pearson correlation over Python floats in two passes: the means, then
    the centred sums of products, each summed exactly by ``math.fsum``."""
    r = [float(v) for v in np.ravel(ref)]
    t = [float(v) for v in np.ravel(test)]
    mean_r = math.fsum(r) / len(r)
    mean_t = math.fsum(t) / len(t)
    dr = [v - mean_r for v in r]
    dt = [v - mean_t for v in t]
    cov = math.fsum(a * b for a, b in zip(dr, dt))
    return cov / (math.sqrt(math.fsum(a * a for a in dr))
                  * math.sqrt(math.fsum(b * b for b in dt)))


def _frequency(index, n):
    """Angular frequency of DFT bin ``index`` out of ``n``, in (-pi, pi]."""
    k = index if index <= (n - 1) // 2 else index - n
    return 2.0 * math.pi * k / n


def naive_filter_bank(shape, levels=2, orientations=6):
    """CW-SSIM's subband masks, one frequency at a time: subband
    ``level * orientations + o`` is an octave raised-cosine radial band
    centered at pi / 2^(level + 1) times the one-sided angular window
    norm * cos(theta - pi o / orientations)^(orientations - 1)."""
    h, w = shape
    order = orientations - 1
    norm = math.sqrt(2.0 ** (2 * order) * math.factorial(order) ** 2
                     / (orientations * math.factorial(2 * order)))
    masks = [np.zeros(shape) for _ in range(levels * orientations)]
    for y in range(h):
        for x in range(w):
            wy, wx = _frequency(y, h), _frequency(x, w)
            r = math.hypot(wy, wx)
            if r == 0.0:
                continue  # the DC bin is in no band
            theta = math.atan2(wy, wx)
            for level in range(levels):
                offset = math.log2(r) - (math.log2(math.pi) - (level + 1))
                if abs(offset) >= 1.0:
                    continue
                band = math.cos(math.pi / 2.0 * offset)
                for o in range(orientations):
                    dt = (theta - math.pi * o / orientations + math.pi) % (2.0 * math.pi)
                    dt -= math.pi
                    if abs(dt) < math.pi / 2.0:
                        window = norm * math.cos(dt) ** order
                        masks[level * orientations + o][y, x] = band * window
    return masks


def _dft(seq, inverse):
    """Direct 1D DFT over a list of complex numbers; the inverse is scaled by 1/n."""
    n = len(seq)
    sign = 1.0 if inverse else -1.0
    twiddle = [complex(math.cos(2.0 * math.pi * k / n), sign * math.sin(2.0 * math.pi * k / n))
               for k in range(n)]
    out = [sum(v * twiddle[(k * j) % n] for j, v in enumerate(seq)) for k in range(n)]
    return [v / n for v in out] if inverse else out


def _dft2(grid, inverse=False):
    """Direct 2D DFT of a list of rows: rows first, then columns."""
    rows = [_dft(list(row), inverse) for row in grid]
    cols = [_dft([row[x] for row in rows], inverse) for x in range(len(rows[0]))]
    return [[col[y] for col in cols] for y in range(len(rows))]


def naive_cw_ssim(ref, test, k=0.03, side=7):
    """CW-SSIM built independently: direct DFTs, :func:`naive_filter_bank`, inverse
    direct DFTs for the complex subbands, then the loop index stage."""
    spectra = [_dft2([[complex(v) for v in row] for row in img]) for img in (ref, test)]
    subbands = ([], [])
    for mask in naive_filter_bank(np.shape(ref)):
        for spectrum, out in zip(spectra, subbands):
            product = [[f * float(mask[y, x]) for x, f in enumerate(row)]
                       for y, row in enumerate(spectrum)]
            out.append(np.array(_dft2(product, inverse=True)))
    return naive_cw_ssim_index(*subbands, k=k, side=side)
