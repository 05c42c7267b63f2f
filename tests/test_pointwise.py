import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from refmet.errors import DegenerateRangeError, ShapeMismatchError
from refmet.image import Image
from refmet.normalize import DataRangePolicy, NormMethod, normalize
from refmet.metrics import EvalContext, evaluate

pair_elems = st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)
img_pair = st.tuples(arrays(np.float64, (4, 6), elements=pair_elems),
                     arrays(np.float64, (4, 6), elements=pair_elems))


def _fixed(L):
    return EvalContext(range_policy=DataRangePolicy.fixed(L))


def test_mae_identical_zero():
    img = Image(np.arange(6.0).reshape(2, 3))
    assert evaluate("mae", img, img).value == 0.0


def test_mae_constants():
    r, t = Image(np.full((2, 2), 10.0)), Image(np.full((2, 2), 13.0))
    assert evaluate("mae", r, t).value == 3.0


def test_mae_hand_computed():
    r = Image(np.array([[0.0, 1.0, 2.0, 3.0]]))
    t = Image(np.array([[1.0, 1.0, 2.0, 7.0]]))
    assert evaluate("mae", r, t).value == 1.25


def test_mse_identical_zero():
    img = Image(np.ones((3, 3)))
    assert evaluate("mse", img, img).value == 0.0


def test_mse_hand_computed():
    r = Image(np.array([[0.0, 0.0]]))
    t = Image(np.array([[3.0, 4.0]]))
    assert evaluate("mse", r, t).value == 12.5


def test_mse_constant_offset():
    img = Image(np.arange(9.0).reshape(3, 3))
    shifted = Image(img.data + 2.0)
    assert evaluate("mse", img, shifted).value == pytest.approx(4.0)


def test_dims_mismatch():
    with pytest.raises(ShapeMismatchError):
        evaluate("mae", Image(np.zeros((2, 2))), Image(np.zeros((2, 3))))


def test_psnr_identical_is_inf():
    img = Image(np.arange(4.0).reshape(2, 2))
    assert evaluate("psnr", img, img).value == math.inf


def test_psnr_zero_db_when_mse_equals_l_squared():
    r = Image(np.array([[0.0, 0.0]]))
    t = Image(np.array([[2.0, 2.0]]))
    score = evaluate("psnr", r, t, _fixed(2.0))
    assert score.value == pytest.approx(0.0, abs=1e-12)


def test_psnr_30db_case():
    # MSE 65.025 with L=255: 255^2 / 65.025 = 1000 -> 30 dB
    err = math.sqrt(65.025)
    r = Image(np.zeros((10, 10)))
    t = Image(np.full((10, 10), err))
    score = evaluate("psnr", r, t, _fixed(255.0))
    assert score.value == pytest.approx(30.0, abs=1e-9)


# L^2 and mse are normal floats but L^2 / mse is not: it rounds to 0 (a raw
# math domain error before) or overflows to inf (psnr read inf, the score of
# identical images). The score is 20 log10 L - 10 log10 mse.
@pytest.mark.parametrize("value, L, expected", [(1e20, 1e-150, -3400.0),
                                                (1e-5, 1e150, 3100.0)])
def test_psnr_ratio_outside_float64_scores_from_logs(value, L, expected):
    r, t = Image(np.zeros((16, 16))), Image(np.full((16, 16), value))
    assert evaluate("psnr", r, t, _fixed(L)).value == pytest.approx(expected, rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("L", [1.0, 1e-150, 1e150])
def test_psnr_mse_overflow_errors(L):
    # rows of 0 and 1e200: every squared difference overflows, so mse is inf
    test = np.zeros((16, 16))
    test[::2] = 1e200
    with pytest.raises(DegenerateRangeError, match="mean squared error overflows"):
        evaluate("psnr", Image(np.zeros((16, 16))), Image(test), _fixed(L))


def test_psnr_fingerprint_mentions_policy():
    img = Image(np.array([[0.0, 1.0]]))
    score = evaluate("psnr", img, Image(np.array([[0.0, 2.0]])), _fixed(255))
    assert "range_policy=fixed:L=255.0" in score.params_fingerprint
    assert "data_range=255.0" in score.params_fingerprint


@given(img_pair, st.floats(min_value=0.5, max_value=100, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_psnr_range_identity(pair, L):
    a, b = pair
    r, t = Image(a), Image(b)
    if evaluate("mse", r, t).value == 0:
        return
    p1 = evaluate("psnr", r, t, _fixed(L)).value
    p2 = evaluate("psnr", r, t, _fixed(2 * L)).value
    assert p2 - p1 == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_pcc_self_is_one():
    img = Image(np.arange(6.0).reshape(2, 3))
    assert evaluate("pcc", img, img).value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a,expected", [(2.5, 1.0), (-0.5, -1.0)])
def test_pcc_affine(a, expected):
    img = Image(np.arange(12.0).reshape(3, 4))
    other = Image(a * img.data + 3.0)
    assert evaluate("pcc", img, other).value == pytest.approx(expected, abs=1e-12)


def test_pcc_constant_errors():
    img = Image(np.arange(4.0).reshape(2, 2))
    with pytest.raises(DegenerateRangeError):
        evaluate("pcc", img, Image(np.full((2, 2), 1.0)))


@given(img_pair)
@settings(max_examples=50, deadline=None)
def test_error_metrics_symmetric(pair):
    a, b = pair
    r, t = Image(a), Image(b)
    assert evaluate("mae", r, t).value == evaluate("mae", t, r).value
    assert evaluate("mse", r, t).value == evaluate("mse", t, r).value
    if a.max() > a.min() and b.max() > b.min():
        assert evaluate("pcc", r, t).value == evaluate("pcc", t, r).value


def test_pcc_invariant_under_normalization(phantoms):
    ref = phantoms[0].image
    test = Image(ref.data ** 1.3 + 0.05)
    base = evaluate("pcc", ref, test).value
    for method in (NormMethod.minmax(), NormMethod.zscore()):
        for r, t in ((normalize(ref, method), test), (ref, normalize(test, method))):
            assert evaluate("pcc", r, t).value == pytest.approx(base, abs=1e-12)
