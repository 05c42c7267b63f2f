"""Micro-benchmarks of the CW-SSIM kernel, SSIM and MS-SSIM, the other
registered metrics, the full metric panel, Gaussian blur, the joint
histogram behind mi/nmi, the proxy-task segmenter, each distortion kind,
normalization and binning, the lint, report rendering, and one harness
scenario run.

Outside tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import numpy as np
import pytest

import refmet.metrics.structural as structural
import refmet.metrics.wavelet as wavelet
from refmet.downstream import _label, threshold_segment
from refmet.distort import (DistortionSpec, apply_chain, gamma_transform, gaussian_blur,
                            linear_scale, translate)
from refmet.harness import (PANEL_FULL, SCENARIO_IDS, EvalPlan, HarnessConfig,
                            builtin_scenario, generate_phantoms, lint_configuration,
                            run_scenario)
from refmet.image import Image
from refmet.metrics import EvalContext, cw_ssim, evaluate, ms_ssim, ssim, truncated_weights
from refmet.metrics.information import joint_histogram
from refmet.normalize import DataRangePolicy, NormMethod, bin_quantize, normalize
from refmet.phantom import PhantomParams, generate_phantom
from refmet.report import Report, render_csv, render_markdown

SIZES = (192, 512)


def _pair(n, distort):
    ref = generate_phantom(1000, PhantomParams(dims=(n, n))).image
    return ref, distort(ref)


def _phantom_pair(dims):
    ref = generate_phantom(1000, PhantomParams(dims=dims)).image
    return ref, translate(ref, (2, 0))


# 192x192 and 512x512 phantoms, and two shapes of a 512x512 phantom's
# bounding-box crop: 426x358 has a 179-point axis, which takes pocketfft's
# slow path. Repeated calls on one shape use the cached filter bank. The
# one-CPU cases run the same schedule with no worker: the caller runs every
# step, as under a one-CPU affinity.
CW_SHAPES = {"192": (192, 192), "512": (512, 512), "426x362": (426, 362),
             "426x358": (426, 358), "192-1cpu": (192, 192), "512-1cpu": (512, 512)}


@pytest.mark.parametrize("size", CW_SHAPES)
def test_cw_ssim(benchmark, monkeypatch, size):
    if size.endswith("-1cpu"):
        monkeypatch.setattr(wavelet, "_pool", lambda: None)
    ref, test = _phantom_pair(CW_SHAPES[size])
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
              "426x362": (lambda: _phantom_pair((426, 362)), 5),
              "64^3": (lambda: _volume(64), 3),
              "128^3": (lambda: _volume(128), 4)}


def _cold(*args):
    """Setup for cold rounds: the SSIM memo (the last reference's pyramid
    and scale 0) is cleared before every round, outside the timing."""
    def setup():
        structural._PYRAMID.clear()
        return args, {}
    return setup


@pytest.mark.parametrize("size", STRUCTURAL)
def test_ssim(benchmark, size):
    ref, test = STRUCTURAL[size][0]()
    score = benchmark.pedantic(ssim, setup=_cold(ref, test, EvalContext()), rounds=20)
    assert 0.0 < score.value < 1.0


@pytest.mark.parametrize("size", STRUCTURAL)
def test_ms_ssim(benchmark, size):
    make, scales = STRUCTURAL[size]
    ref, test = make()
    ctx = EvalContext(scales=scales)
    score = benchmark.pedantic(ms_ssim, setup=_cold(ref, test, ctx), rounds=20)
    assert 0.0 < score.value < 1.0


# score_large's calling pattern for one pair: every metric of the panel by
# id, so ms_ssim takes ssim's scale 0 from the memo.
# Every round starts cold.
PANEL_LARGE = {"512": (("mae", "mse", "psnr", "ssim", "ms_ssim", "cw_ssim", "pcc", "mi",
                        "nmi"), 5),
               "64^3": (("mae", "mse", "psnr", "ssim", "ms_ssim", "pcc", "mi", "nmi"), 3)}


@pytest.mark.parametrize("size", PANEL_LARGE)
def test_evaluate_panel_large(benchmark, size):
    ref, test = STRUCTURAL[size][0]()
    panel, scales = PANEL_LARGE[size]
    ctx = EvalContext(scales=scales, weights=truncated_weights(scales))

    def score_panel():
        return [evaluate(m, ref, test, ctx) for m in panel]

    scores = benchmark.pedantic(score_panel, setup=_cold(), rounds=10)
    assert [s.metric_id for s in scores] == list(panel)


@pytest.mark.parametrize("metric_id", ("mae", "mse", "psnr", "pcc", "mi", "nmi"))
@pytest.mark.parametrize("size", STRUCTURAL)
def test_registered_metric(benchmark, size, metric_id):
    ref, test = STRUCTURAL[size][0]()
    score = benchmark(evaluate, metric_id, ref, test, EvalContext())
    assert score.value > 0.0


# Every round scores a fresh test object, and no round reuses an earlier
# round's scale 0. Cold: the SSIM memo is cleared before every round, as in
# one ``refmet compare`` (ms_ssim still takes ssim's scale 0). Warm: the memo
# is kept, so it already holds the reference's SSIM moments, as for the
# second and later tests of one reference in the harness; only the held
# test's scale 0 is dropped.
@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
def test_evaluate_panel_full_loop(benchmark, warm):
    ref, test = _pair(192, lambda img: translate(img, (2, 0)))
    plan = EvalPlan(metrics=PANEL_FULL)

    def fresh_test():
        if warm:
            structural._PYRAMID.entry[2].scale0.clear()
        else:
            structural._PYRAMID.clear()
        return (Image(test.data),), {}

    def score_panel(t):
        return [evaluate(m, ref, t, plan) for m in PANEL_FULL]

    score_panel(Image(test.data))  # fills the memo
    scores = benchmark.pedantic(score_panel, setup=fresh_test, rounds=20)
    assert [s.metric_id for s in scores] == list(PANEL_FULL)


@pytest.mark.parametrize("n", SIZES)
def test_gaussian_blur(benchmark, n):
    ref = generate_phantom(1000, PhantomParams(dims=(n, n))).image
    out = benchmark(gaussian_blur, ref, 1.0)
    assert out.shape == ref.shape


@pytest.mark.parametrize("n", SIZES)
def test_joint_histogram(benchmark, n):
    ref, test = _pair(n, lambda img: gamma_transform(img, 0.4))
    hist = benchmark(joint_histogram, ref.data, test.data, 256)
    assert hist.sum() == n * n


def _serpentine(n):
    """One n x n component whose path runs through every even row."""
    grid = np.zeros((n, n))
    grid[::2] = 1.0
    grid[1::4, -1] = 1.0
    grid[3::4, 0] = 1.0
    return Image(grid)


# The audit's input (a 192^2 phantom: a few small blobs) and one component
# with the longest path a 512^2 grid holds.
SEGMENTER_INPUTS = {
    "phantom_192": lambda: generate_phantom(1000).image,
    "serpentine_512": lambda: _serpentine(512),
}


@pytest.mark.parametrize("case", SEGMENTER_INPUTS)
def test_threshold_segment(benchmark, case):
    img = SEGMENTER_INPUTS[case]()
    seg = benchmark(threshold_segment, img)
    assert 0 < seg.count() < img.data.size


def test_label_random_64_cubed(benchmark):
    # A 64^3 volume at half density, above the face-connected percolation
    # threshold: many short runs and edges. Timed on the labeler, since the
    # segmenter's 0.94 cut of uniform noise leaves no 20-voxel component.
    raw = np.random.default_rng(64).random((64, 64, 64)) > 0.5
    labels = benchmark(_label, raw)
    assert np.array_equal(labels > 0, raw)


def test_run_scenario_pitfall2(benchmark):
    cfg = HarnessConfig(phantom_count=2)
    phantoms = generate_phantoms(cfg)
    report = benchmark(run_scenario, builtin_scenario("pitfall2"), phantoms)
    assert len(report.rows) == 32 * (len(phantoms) + 1)


# One spec per distortion kind, as in scripts/behaviour_digest.py.
DISTORTIONS = {
    "gamma": DistortionSpec("gamma", {"gamma": 0.4}),
    "linear_scale": DistortionSpec("linear_scale", {"factor": 1.2}),
    "translate": DistortionSpec("translate", {"shift": (2, 0)}),
    "mirror_replace": DistortionSpec("mirror_replace", {"axis": 0}),
    "gaussian_noise": DistortionSpec("gaussian_noise", {"sigma_rel": 0.05}, seed=7),
    "stripes": DistortionSpec("stripes", {"period": 8, "amplitude_rel": 0.25, "axis": 0}),
    "gaussian_blur": DistortionSpec("gaussian_blur", {"sigma": 1.0}),
    "crop_fraction": DistortionSpec("crop_fraction", {"fraction": 0.03}),
}


@pytest.mark.parametrize("kind", DISTORTIONS)
def test_apply_chain(benchmark, kind):
    ref = generate_phantom(1000).image
    out = benchmark(apply_chain, (DISTORTIONS[kind],), ref)
    assert out is not ref


@pytest.mark.parametrize("method", (NormMethod.minmax(), NormMethod.zscore()),
                         ids=("minmax", "zscore"))
def test_normalize(benchmark, method):
    ref = generate_phantom(1000).image
    assert benchmark(normalize, ref, method).shape == ref.shape


def test_bin_quantize(benchmark):
    ref = generate_phantom(1000).image
    assert benchmark(bin_quantize, ref, 256).data.max() == 255.0


# Fires W02 to W04 on a 192^2 pair (W01 does not fire with pre-binning):
# differing ranges under a per-image range policy, a non-rectangular mask
# with windowed metrics, and prebin != nmi_bins.
def test_lint_configuration(benchmark):
    ph = generate_phantom(1000)
    test = linear_scale(ph.image, 1.2)
    plan = EvalPlan(metrics=PANEL_FULL, range_policy=DataRangePolicy.ref(), prebin=64,
                    mask=ph.foreground_mask)
    lints = benchmark(lint_configuration, ph.image, test, plan)
    assert [lint.code for lint in lints] == ["W02", "W03", "W04"]


@pytest.fixture(scope="module")
def audit_report():
    """The report of every scenario on 2 phantoms (``refmet audit``'s rows
    and lints at a tenth of the default phantom count)."""
    cfg = HarnessConfig(phantom_count=2)
    phantoms = generate_phantoms(cfg)
    report = Report()
    for sid in SCENARIO_IDS:
        report.extend(run_scenario(builtin_scenario(sid), phantoms))
    return report


def test_render_csv(benchmark, audit_report):
    assert benchmark(render_csv, audit_report).count("\n") == len(audit_report.rows) + 1


def test_render_markdown(benchmark, audit_report):
    assert "## Lints" in benchmark(render_markdown, audit_report)
