"""Micro-benchmarks of the CW-SSIM kernel, the joint histogram behind
mi/nmi, and one harness scenario run.

Outside tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import pytest

from refmet.distort import gamma_transform, translate
from refmet.harness import HarnessConfig, builtin_scenario, generate_phantoms, run_scenario
from refmet.metrics import cw_ssim
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
