"""Micro-benchmarks of the CW-SSIM kernel, SSIM and MS-SSIM, Gaussian blur,
the joint histogram behind mi/nmi, and one harness scenario run.

Outside tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import numpy as np
import pytest

from refmet.distort import gamma_transform, gaussian_blur, translate
from refmet.harness import HarnessConfig, builtin_scenario, generate_phantoms, run_scenario
from refmet.image import Image
from refmet.metrics import MsSsimParams, SsimParams, cw_ssim, ms_ssim, ssim, truncated_weights
from refmet.metrics.information import HistogramParams, joint_histogram
from refmet.phantom import PhantomParams, generate_phantom

SIZES = (192, 512)


def _pair(n, distort):
    ref = generate_phantom(1000, PhantomParams(dims=(n, n))).image
    return ref, distort(ref)


@pytest.mark.parametrize("n", SIZES)
def test_cw_ssim(benchmark, n):
    ref, test = _pair(n, lambda img: translate(img, (2, 0)))
    score = benchmark(cw_ssim, ref, test)
    assert 0.0 < score.value < 1.0


def _volume(n):
    """A smooth n^3 volume (blurred seeded noise) and a 1-voxel shift of it."""
    noise = Image(np.random.default_rng(n).standard_normal((n, n, n)))
    ref = gaussian_blur(noise, 2.0)
    return ref, translate(ref, (1, 0, 0))


# size -> (pair maker, MS-SSIM scales): the most scales each size admits.
STRUCTURAL = {"192": (lambda: _pair(192, lambda img: translate(img, (2, 0))), 5),
              "512": (lambda: _pair(512, lambda img: translate(img, (2, 0))), 5),
              "64^3": (lambda: _volume(64), 3)}


def _data_range(ref, test):
    return float(max(ref.data.max(), test.data.max()) - min(ref.data.min(), test.data.min()))


@pytest.mark.parametrize("size", STRUCTURAL)
def test_ssim(benchmark, size):
    ref, test = STRUCTURAL[size][0]()
    score = benchmark(ssim, ref, test, SsimParams(_data_range(ref, test)))
    assert 0.0 < score.value < 1.0


@pytest.mark.parametrize("size", STRUCTURAL)
def test_ms_ssim(benchmark, size):
    make, scales = STRUCTURAL[size]
    ref, test = make()
    params = MsSsimParams(SsimParams(_data_range(ref, test)), scales, truncated_weights(scales))
    score = benchmark(ms_ssim, ref, test, params)
    assert 0.0 < score.value < 1.0


@pytest.mark.parametrize("n", SIZES)
def test_gaussian_blur(benchmark, n):
    ref = generate_phantom(1000, PhantomParams(dims=(n, n))).image
    out = benchmark(gaussian_blur, ref, 1.0)
    assert out.shape == ref.shape


@pytest.mark.parametrize("n", SIZES)
def test_joint_histogram(benchmark, n):
    ref, test = _pair(n, lambda img: gamma_transform(img, 0.4))
    hist = benchmark(joint_histogram, ref.data, test.data, HistogramParams())
    assert hist.sum() == n * n


def test_run_scenario_pitfall2(benchmark):
    cfg = HarnessConfig(phantom_count=2)
    phantoms = generate_phantoms(cfg)
    report = benchmark(run_scenario, builtin_scenario("pitfall2"), phantoms, cfg)
    assert len(report.rows) == 32 * (len(phantoms) + 1)
