import warnings

import numpy as np
import pytest

from oracles import gaussian_kernel2d, naive_ms_ssim, naive_ssim
import refmet.image as image
import refmet.metrics.structural as structural
from refmet.errors import DegenerateRangeError, RefmetError
from refmet.image import Image, gaussian_kernel, row_blocks
from refmet.metrics import EvalContext, evaluate, ms_ssim, ssim, wavelet
from refmet.metrics.structural import _WINDOW, truncated_weights
from refmet.normalize import DataRangePolicy


def _fixed(L, **knobs):
    return EvalContext(range_policy=DataRangePolicy.fixed(L), **knobs)


def test_window_is_read_only_standard_gaussian():
    assert _WINDOW.tobytes() == gaussian_kernel(1.5).tobytes()
    assert len(_WINDOW) == 11
    with pytest.raises(ValueError):
        _WINDOW[0] = 1.0


def test_identical_images_score_one():
    rng = np.random.default_rng(0)
    img = Image(rng.random((32, 32)))
    for L in (1.0, 255.0, 1e4):
        assert ssim(img, img, _fixed(L)).value == pytest.approx(1.0, abs=1e-12)


def test_constant_images_closed_form():
    # mu_r = 0, mu_t = L, k1 = 0.01: lum = C1 / (L^2 + C1), cs = 1
    L = 1.0
    r = Image(np.zeros((16, 16)))
    t = Image(np.full((16, 16), L))
    c1 = (0.01 * L) ** 2
    expected = c1 / (L * L + c1)
    assert ssim(r, t, _fixed(L)).value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_matches_naive_oracle_gaussian(seed):
    rng = np.random.default_rng(100 + seed)
    r = Image(rng.random((32, 32)))
    t = Image(rng.random((32, 32)))
    got = ssim(r, t, _fixed(1.0)).value
    want = naive_ssim(r.data, t.data, 1.0, kernel=gaussian_kernel2d(1.5, 5))
    assert got == pytest.approx(want, abs=1e-6)


def test_symmetry():
    rng = np.random.default_rng(5)
    r = Image(rng.random((20, 20)))
    t = Image(rng.random((20, 20)))
    p = _fixed(1.0)
    assert ssim(r, t, p).value == pytest.approx(ssim(t, r, p).value, abs=1e-12)


def test_window_must_fit():
    img = Image(np.zeros((8, 8)))
    with pytest.raises(RefmetError):
        ssim(img, img, _fixed(1.0))  # default window is 11x11


def test_monotone_in_data_range():
    rng = np.random.default_rng(11)
    r = Image(rng.random((32, 32)))
    t = Image(rng.random((32, 32)) * 1.5 + 0.2)
    scores = [ssim(r, t, _fixed(L)).value for L in (1.0, 4.0, 16.0, 1e3, 1e6)]
    assert all(b > a for a, b in zip(scores, scores[1:]))
    assert scores[-1] > 0.999


def test_huge_range_saturates_toward_one(phantoms):
    # a large enough L makes any fixed non-identical pair look near-perfect
    from refmet.normalize import resolve_data_range_values
    for p in phantoms[:5]:
        t = Image(p.image.data ** 0.4 * 1.2)
        joint = resolve_data_range_values(p.image.data, t.data, DataRangePolicy.joint())
        assert ssim(p.image, t, _fixed(1e6 * joint)).value > 0.999


def test_local_terms_nondecreasing_in_l():
    # windows with non-negative covariance: lum and cs terms grow with L
    rng = np.random.default_rng(13)
    base = rng.random((11, 11))
    wr = base + 0.05 * rng.random((11, 11))
    wt = 1.2 * base
    kernel = gaussian_kernel2d(1.5, 5)
    mu_r = (kernel * wr).sum()
    mu_t = (kernel * wt).sum()
    var_r = (kernel * wr * wr).sum() - mu_r ** 2
    var_t = (kernel * wt * wt).sum() - mu_t ** 2
    cov = (kernel * wr * wt).sum() - mu_r * mu_t
    assert cov >= 0
    prev_lum = prev_cs = -np.inf
    for L in (0.5, 1.0, 2.0, 8.0, 100.0):
        c1, c2 = (0.01 * L) ** 2, (0.03 * L) ** 2
        lum = (2 * mu_r * mu_t + c1) / (mu_r ** 2 + mu_t ** 2 + c1)
        cs = (2 * cov + c2) / (var_r + var_t + c2)
        assert lum >= prev_lum and cs >= prev_cs
        prev_lum, prev_cs = lum, cs


def test_3d_support():
    rng = np.random.default_rng(17)
    r = Image(rng.random((14, 14, 14)))
    assert ssim(r, r, _fixed(1.0)).value == pytest.approx(1.0, abs=1e-12)


def test_fingerprint_stable():
    rng = np.random.default_rng(19)
    r = Image(rng.random((16, 16)))
    p = _fixed(2.0)
    assert (ssim(r, r, p).params_fingerprint ==
            ssim(r, r, p).params_fingerprint ==
            "data_range=2.0;k1=0.01;k2=0.03;range_policy=fixed:L=2.0;"
            "window=gaussian(radius=5,sigma=1.5)")


# --- multi-scale ------------------------------------------------------------

def test_ms_identical_is_one():
    rng = np.random.default_rng(23)
    img = Image(rng.random((192, 192)))
    score = ms_ssim(img, img, _fixed(1.0))
    assert score.value == pytest.approx(1.0, abs=1e-9)


def test_single_scale_degenerates_to_ssim():
    rng = np.random.default_rng(29)
    r = Image(rng.random((64, 64)))
    t = Image(rng.random((64, 64)))
    p = _fixed(1.0)
    single = ms_ssim(r, t, _fixed(1.0, scales=1, weights=(1.0,))).value
    assert single == pytest.approx(ssim(r, t, p).value, abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_ms_matches_naive_recursion(seed):
    rng = np.random.default_rng(200 + seed)
    base = rng.random((192, 192))
    r = Image(base)
    t = Image(np.clip(base + rng.normal(0, 0.08, base.shape), 0, 2))
    weights = truncated_weights(5)
    got = ms_ssim(r, t, _fixed(1.0, scales=5, weights=weights)).value
    want = naive_ms_ssim(r.data, t.data, 1.0, weights,
                         kernel=gaussian_kernel2d(1.5, 5))
    assert got == pytest.approx(want, abs=1e-6)


def test_ms_image_too_small_for_scales():
    img = Image(np.zeros((40, 40)))
    with pytest.raises(RefmetError):
        ms_ssim(img, img, _fixed(1.0))  # 40 -> ... -> 2 < 11


def _bits(arr):
    return arr.view(np.int64)


# (shape, block budget): 6 and 9 blocks, the last one short; 10 valid rows
# per block (a budget smaller than one row); 512x512 (5 blocks, the last
# short), 64^3 (9) and rows wider than the module's own budget (3).
BLOCKED = [((63, 37), 20 * 37 * 8), ((45, 23, 19), 14 * 23 * 19 * 8), ((31, 40), 1),
           ((27, 12, 13), 1), ((512, 512), None), ((64, 64, 64), None),
           ((40, 6000), None)]


@pytest.mark.parametrize("shape, budget", BLOCKED, ids=[str(s) for s, _ in BLOCKED])
def test_row_blocks_give_the_bits_of_one_block(monkeypatch, shape, budget):
    g = np.random.default_rng(sum(shape))
    ref = g.random(shape) * 50.0
    test = 0.9 * ref + 5.0 * g.random(shape)
    if budget is not None:
        monkeypatch.setattr(image, "_BLOCK_BYTES", budget)
    assert len(row_blocks(shape, structural._HALO)) > 1
    blocked = structural._ref_moments(ref)
    got = structural.ssim_and_cs(blocked, test, 50.0)
    monkeypatch.setattr(image, "_BLOCK_BYTES", 2 ** 62)
    assert len(row_blocks(shape, structural._HALO)) == 1
    whole = structural._ref_moments(ref)
    want = structural.ssim_and_cs(whole, test, 50.0)
    assert np.array_equal(_bits(blocked.mu), _bits(whole.mu))
    assert np.array_equal(_bits(blocked.sq), _bits(whole.sq))
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _steps(start, stop, step):
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


# A 192x192 image (every audit image) is one block; a 96^3 volume's planes
# are wider than the budget, so its blocks keep 10 valid planes each.
@pytest.mark.parametrize("shape, blocks", [((192, 192), [slice(0, 182)]),
                                           ((96, 96, 96), _steps(0, 86, 10))])
def test_row_block_layout(shape, blocks):
    assert row_blocks(shape, structural._HALO) == blocks


# Finite 64x64 images with one pixel halved, whose windowed sums overflow
# float64: near 1e154 for ssim and ms_ssim (beyond it L^2 is refused
# first), and near 1e155 (squares) and 1e306 (the FFT) for cw_ssim. Each
# scored nan, with raw numpy warnings.
OVERFLOWING = [("ssim", 1e154), ("ms_ssim", 1e154), ("cw_ssim", 1e155), ("cw_ssim", 1e306)]


@pytest.mark.parametrize("path", ["serial", "worker"])
@pytest.mark.parametrize("metric_id, scale", OVERFLOWING)
def test_windowed_metrics_raise_on_overflow(two_cpus, monkeypatch, path, metric_id, scale):
    if path == "serial":
        monkeypatch.setattr(wavelet, "_pool", lambda: None)
    ref = np.random.default_rng(0).random((64, 64)) * scale
    test = ref.copy()
    test[10, 10] /= 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateRangeError, match=f"^{metric_id} undefined"):
            evaluate(metric_id, Image(ref), Image(test), EvalContext(scales=2))
