import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import naive_pcc
from refmet.distort import add_gaussian_noise, translate
from refmet.errors import DegenerateRangeError, ShapeMismatchError
from refmet.image import Image
from refmet.normalize import DataRangePolicy, NormMethod, normalize
from refmet.metrics import EvalContext, evaluate, masked_evaluate

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


@pytest.mark.parametrize("L", [1.0, 1e-150, 1e150])
def test_psnr_mse_overflow_errors(L):
    # rows of 0 and 1e200: every squared difference overflows, so mse is inf
    test = np.zeros((16, 16))
    test[::2] = 1e200
    with pytest.raises(DegenerateRangeError, match="mean squared error overflows"):
        evaluate("psnr", Image(np.zeros((16, 16))), Image(test), _fixed(L))


def _alternating_1e200():
    # Finite pair whose deviations and differences square past float64.
    ref, test = np.zeros((16, 16)), np.zeros((16, 16))
    ref[::2] = 1e200
    test[1::2] = 1e200
    return Image(ref), Image(test)


@pytest.mark.parametrize("metric, message", [
    ("pcc", "pcc undefined: the squared deviations overflow"),
    ("mse", "mse undefined: the squared differences overflow"),
    ("psnr", "psnr undefined: the mean squared error overflows")])
def test_squares_overflow_is_a_named_error_without_warnings(metric, message):
    # pcc read nan and mse inf here, each with numpy's overflow warning.
    ref, test = _alternating_1e200()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateRangeError, match=message):
            evaluate(metric, ref, test, _fixed(1.0))


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


def _assert_matches_oracle(ref_vals, test_vals, got):
    assert abs(got - naive_pcc(ref_vals, test_vals)) <= 1e-12


def test_pcc_matches_oracle_on_phantom_noise_pairs(phantoms):
    for p in phantoms:
        r = p.image
        t = add_gaussian_noise(r, 0.05, seed=p.seed)
        _assert_matches_oracle(r.data, t.data, evaluate("pcc", r, t).value)


def test_pcc_matches_oracle_on_masked_values(phantoms):
    for p in phantoms[:5]:
        r, m = p.image, p.foreground_mask
        t = translate(r, (2, 1))
        _assert_matches_oracle(r.data[m.data], t.data[m.data],
                               masked_evaluate("pcc", r, t, m).value)


@pytest.mark.parametrize("seed", range(6))
def test_pcc_matches_oracle_on_random_pairs(seed):
    g = np.random.default_rng(seed)
    shape = tuple(int(n) for n in g.integers(2, 90, size=2))
    offset, scale = g.uniform(-1e3, 1e3), 10.0 ** g.uniform(-3, 3)
    r = offset + scale * g.normal(size=shape)
    t = g.uniform(-1, 1) * r + scale * g.normal(size=shape)
    _assert_matches_oracle(r, t, evaluate("pcc", Image(r), Image(t)).value)



def test_pcc_of_values_near_1e80_is_defined():
    # Each sum of squares (about 1e164) is finite, their product is not.
    g = np.random.default_rng(3)
    r = g.normal(size=(256, 256))
    t = r + 0.5 * g.normal(size=r.shape)
    got = evaluate("pcc", Image(1e80 * r), Image(1e80 * t)).value
    assert got == pytest.approx(evaluate("pcc", Image(r), Image(t)).value, abs=1e-12)
    _assert_matches_oracle(1e80 * r, 1e80 * t, got)

_PCC_CHILD = """
from refmet.distort import add_gaussian_noise
from refmet.metrics import evaluate
from refmet.phantom import generate_phantom
ref = generate_phantom(1000).image
print(evaluate("pcc", ref, add_gaussian_noise(ref, 0.05, seed=7)).value.hex())
"""


def test_pcc_bits_do_not_depend_on_blas_threads():
    hexes = {subprocess.run([sys.executable, "-c", _PCC_CHILD], check=True,
                            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                            capture_output=True, text=True).stdout.strip()
             for threads in ("1", "2")}
    assert len(hexes) == 1, hexes
