"""``image.correlate_valid``, the one correlation kernel behind the SSIM
moments, the CW-SSIM box sums and blur, pinned bit for bit against scipy,
which stays the test-time reference (the module skips without scipy)."""

import subprocess
import sys

import numpy as np
import pytest

from refmet.distort import gaussian_blur
from refmet.image import Image, correlate_valid, gaussian_kernel

ndimage = pytest.importorskip("scipy.ndimage")

KERNELS = {
    "ssim_gaussian_11": gaussian_kernel(1.5),
    "uniform_7": np.full(7, 1 / 7),
}


def _scipy_valid(arr, kernel, axis):
    r = len(kernel) // 2
    full = ndimage.correlate1d(arr, kernel, axis=axis, mode="constant")
    sl = [slice(None)] * arr.ndim
    sl[axis] = slice(r, arr.shape[axis] - r)
    return full[tuple(sl)]


def _wide_range(shape, seed):
    g = np.random.default_rng(seed)
    return g.normal(size=shape) * 10.0 ** g.uniform(-3, 3, size=shape)


# An extent equal to the kernel length leaves a single valid position.
@pytest.mark.parametrize("kernel, shape", [
    (kernel, shape) for kernel, n in (("ssim_gaussian_11", 11), ("uniform_7", 7))
    for shape in [(n, n), (n, 40), (40, n + 2), (192, 192), (n + 2, n, n + 1),
                  (n, n, n), (24, 20, n)]])
def test_correlate_valid_equals_scipy_constant_mode_plus_crop(kernel, shape):
    k = KERNELS[kernel]
    arr = _wide_range(shape, sum(shape))
    for axis in range(len(shape)):
        got = correlate_valid(arr, k, axis)
        expected_shape = list(shape)
        expected_shape[axis] -= len(k) - 1
        assert got.shape == tuple(expected_shape)
        assert np.array_equal(got, _scipy_valid(arr, k, axis))


@pytest.mark.parametrize("shape", [(7, 7), (20, 17), (9, 8, 7)])
def test_correlate_valid_complex_ones_kernel_sums_parts_separately(shape):
    g = np.random.default_rng(5)
    arr = g.normal(size=shape) + 1j * g.normal(size=shape)
    ones = np.ones(7)
    for axis in range(len(shape)):
        got = correlate_valid(arr, ones, axis)
        assert np.array_equal(got.real, _scipy_valid(arr.real, ones, axis))
        assert np.array_equal(got.imag, _scipy_valid(arr.imag, ones, axis))


@pytest.mark.parametrize("shape", [(192, 192), (512, 512), (5, 7), (2, 40), (30, 30, 30),
                                   (1, 1), (1, 9), (9, 1), (1, 3, 4), (3, 1, 1)])
def test_gaussian_blur_equals_scipy_reflect(shape):
    # Includes axes shorter than the kernel radius (up to 10 at sigma 3.3),
    # where the symmetric padding reflects more than once.
    data = _wide_range(shape, 11)
    for sigma in (0.5, 1.0, 1.5, 2.0, 3.3):
        expected = data
        for axis in range(len(shape)):
            expected = ndimage.correlate1d(expected, gaussian_kernel(sigma), axis=axis,
                                           mode="reflect")
        got = gaussian_blur(Image(data), sigma).data
        assert np.array_equal(got, expected), sigma


def test_cold_cli_import_loads_no_scipy():
    code = ("import sys, refmet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
