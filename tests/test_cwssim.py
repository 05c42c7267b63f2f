import json
from pathlib import Path

import numpy as np
import pytest

from oracles import naive_box_sum, naive_cw_ssim_index
from refmet.errors import RefmetError
from refmet.image import Image
from refmet.metrics import EvalContext, cw_ssim, ssim
from refmet.metrics.wavelet import _K, _filter_bank, _neighborhood_sum
from refmet.distort import gamma_transform, linear_scale, mirror_replace, translate
from refmet.phantom import generate_phantom

GOLDEN = json.loads((Path(__file__).parent / "golden" / "golden.json").read_text())


def test_identical_images_score_one(phantoms):
    img = phantoms[0].image
    assert cw_ssim(img, img).value == pytest.approx(1.0, abs=1e-9)


def test_rejects_3d():
    vol = Image(np.zeros((32, 32, 32)))
    with pytest.raises(RefmetError):
        cw_ssim(vol, vol)


def test_rejects_too_small():
    img = Image(np.zeros((20, 20)))
    with pytest.raises(RefmetError):
        cw_ssim(img, img)


def test_no_data_range_parameter(rng):
    # the fingerprint carries no L; scaling both images jointly is a no-op
    # on SSIM-with-L but cw_ssim has no such knob at all
    img = Image(rng.random((28, 28)))
    fp = cw_ssim(img, img).params_fingerprint
    assert "data_range" not in fp
    assert fp == "k=0.03;levels=2;neighborhood=7;orientations=6"


def test_positive_rescale_scores_near_one(phantoms):
    # coefficients scale linearly: score ~ 2a/(1+a^2) plus k-term pull
    for p in phantoms[:5]:
        scaled = linear_scale(p.image, 1.1)
        assert cw_ssim(p.image, scaled).value >= 0.99


def test_translation_tolerance_vs_ssim(phantoms):
    wins = 0
    for p in phantoms:
        shifted = translate(p.image, (2, 0))
        drop_ssim = 1.0 - ssim(p.image, shifted, EvalContext()).value
        drop_cw = 1.0 - cw_ssim(p.image, shifted).value
        wins += drop_cw < drop_ssim
    assert wins >= 18  # >= 90% of 20 phantoms


def test_symmetric(phantoms):
    a = phantoms[0].image
    b = translate(a, (1, 1))
    assert cw_ssim(a, b).value == pytest.approx(cw_ssim(b, a).value, rel=1e-9)


# Captured with the full-frame correlate-and-crop box sums and a filter bank
# rebuilt per call; pinned as exact float.hex values.
@pytest.mark.parametrize("case", ["gamma_linear", "shift_2px", "mirror_replace"])
def test_golden_values(case):
    ref = generate_phantom(1000).image
    test = {"gamma_linear": lambda: linear_scale(gamma_transform(ref, 0.4), 1.2),
            "shift_2px": lambda: translate(ref, (2, 0)),
            "mirror_replace": lambda: mirror_replace(ref, 0)}[case]()
    assert cw_ssim(ref, test).value.hex() == GOLDEN["cw_ssim_phantom1000_hex"][case]


def _correlate_and_crop(ndimage, arr):
    kern = np.ones(7)
    out = ndimage.correlate1d(arr, kern, axis=0, mode="constant")
    out = ndimage.correlate1d(out, kern, axis=1, mode="constant")
    return out[3:arr.shape[0] - 3, 3:arr.shape[1] - 3]


@pytest.mark.parametrize("shape", [(7, 7), (7, 30), (30, 7), (8, 13), (29, 41), (64, 48)])
def test_neighborhood_sum_matches_correlate_and_oracle(ndimage, shape):
    g = np.random.default_rng(sum(shape))
    arr = g.normal(size=shape) * 10.0 ** g.uniform(-3, 3, size=shape)
    got = _neighborhood_sum(arr)
    assert got.shape == (shape[0] - 6, shape[1] - 6)
    assert np.array_equal(got, _correlate_and_crop(ndimage, arr))
    # summation order differs from the loop: bound by the sum of magnitudes
    err = np.abs(got - naive_box_sum(arr, 7))
    assert np.all(err <= 1e-12 * naive_box_sum(np.abs(arr), 7))


def test_neighborhood_sum_complex_sums_parts_separately(ndimage):
    g = np.random.default_rng(3)
    arr = g.normal(size=(20, 17)) + 1j * g.normal(size=(20, 17))
    got = _neighborhood_sum(arr)
    assert np.array_equal(got.real, _correlate_and_crop(ndimage, arr.real))
    assert np.array_equal(got.imag, _correlate_and_crop(ndimage, arr.imag))


def test_filter_bank_masks_are_read_only():
    masks = _filter_bank((64, 64))
    assert len(masks) == 12
    with pytest.raises(ValueError):
        masks[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        masks[5] *= 2.0


def test_filter_bank_cache_holds_one_bank(rng):
    for shape in ((56, 56), (64, 72), (80, 60)):
        img = Image(rng.random(shape))
        assert cw_ssim(img, translate(img, (1, 0))).value < 1.0
    assert _filter_bank.cache_info().currsize <= 1


@pytest.mark.parametrize("shape", [(28, 28), (32, 40)])
def test_index_stage_matches_naive_loop(shape):
    # 28 is the smallest extent 2 levels admit. The oracle takes the same
    # subbands (FFT filter-bank stage) and redoes num/den with explicit loops.
    g = np.random.default_rng(sum(shape))
    ref = Image(g.normal(size=shape))
    test = Image(ref.data + 0.3 * g.normal(size=shape))
    fr, ft = np.fft.fft2(ref.data), np.fft.fft2(test.data)
    masks = _filter_bank(shape)
    expected = naive_cw_ssim_index([np.fft.ifft2(fr * m) for m in masks],
                                   [np.fft.ifft2(ft * m) for m in masks], k=_K)
    assert cw_ssim(ref, test).value == pytest.approx(expected, rel=1e-12, abs=0)
