import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from refmet.errors import ConfigError, DegenerateRangeError
from refmet.image import Image
from refmet.metrics import EvalContext, evaluate
from refmet.normalize import (DataRangePolicy, NormMethod, bin_quantize,
                              normalize, resolve_data_range_values)

nonconstant = arrays(np.float64, (4, 5),
                     elements=st.floats(min_value=-1e3, max_value=1e3,
                                        allow_nan=False, width=32)
                     ).filter(lambda a: a.max() > a.min())


def test_minmax_example():
    out = normalize(Image(np.array([[0.0, 5.0, 10.0]])), NormMethod.minmax())
    assert out.data.tolist() == [[0.0, 0.5, 1.0]]


def test_zscore_example():
    out = normalize(Image(np.array([[0.0, 2.0]])), NormMethod.zscore())
    assert out.data.tolist() == [[-1.0, 1.0]]


def test_minmax_constant_errors():
    with pytest.raises(DegenerateRangeError):
        normalize(Image(np.full((2, 2), 3.0)), NormMethod.minmax())


def test_zscore_constant_errors():
    with pytest.raises(DegenerateRangeError):
        normalize(Image(np.full((2, 2), 3.0)), NormMethod.zscore())


def test_none_returns_input():
    img = Image(np.array([[1.0, 2.0]]))
    assert normalize(img, NormMethod.none()) is img


def test_custom_affine():
    out = normalize(Image(np.array([[4.0, 8.0]])), NormMethod.custom(4.0, 2.0))
    assert out.data.tolist() == [[0.0, 2.0]]


def test_custom_requires_positive_scale():
    with pytest.raises(ConfigError):
        NormMethod.custom(0.0, -1.0)


@pytest.mark.parametrize("text", ["custom:a=0,b=inf", "custom:a=inf,b=1",
                                  "custom:a=-inf,b=1", "custom:a=nan,b=1"])
def test_custom_requires_finite_shift_and_scale(text):
    # b=inf would map every image to 0; a non-finite a to non-finite data
    with pytest.raises(ConfigError, match="needs finite a and b"):
        NormMethod.parse(text)


@given(nonconstant)
@settings(max_examples=50, deadline=None)
def test_minmax_bounds_property(data):
    out = normalize(Image(data), NormMethod.minmax())
    assert out.data.min() == pytest.approx(0.0, abs=1e-12)
    assert out.data.max() == pytest.approx(1.0, abs=1e-12)


@given(nonconstant)
@settings(max_examples=50, deadline=None)
def test_zscore_moments_property(data):
    out = normalize(Image(data), NormMethod.zscore())
    assert out.data.mean() == pytest.approx(0.0, abs=1e-9)
    assert out.data.std() == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("text,kind", [
    ("minmax", "minmax"), ("zscore", "zscore"), ("none", "none"),
])
def test_norm_parse_simple(text, kind):
    assert NormMethod.parse(text).kind == kind


def test_norm_parse_custom_roundtrip():
    m = NormMethod.parse("custom:a=1.5,b=2.0")
    assert (m.shift, m.scale) == (1.5, 2.0)
    assert NormMethod.parse(m.spec_string()) == m


def test_norm_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        NormMethod.parse("minmax2")


# --- one spec grammar for both classes ------------------------------------

@pytest.mark.parametrize("spec", [
    NormMethod.minmax(), NormMethod.zscore(), NormMethod.none(), NormMethod.custom(-0.25, 3),
    DataRangePolicy.joint(), DataRangePolicy.ref(), DataRangePolicy.test(),
    DataRangePolicy.fixed(255),
], ids=lambda spec: spec.spec_string())
def test_spec_string_parses_back(spec):
    assert type(spec).parse(spec.spec_string()) == spec


@pytest.mark.parametrize("cls", [NormMethod, DataRangePolicy])
@pytest.mark.parametrize("text", [
    "custom:a=1", "custom:a=1,b=2,a=3", "custom:a=1,c=2", "custom:a=x,b=1", "minmax:",
    "fixed:255", "fixed:L=1,L=2", "fixed:l=2", "joint:",
])
def test_malformed_spec_is_a_config_error(cls, text):
    # a repeated name was once read as its last value: custom a=3
    with pytest.raises(ConfigError):
        cls.parse(text)


# --- binning ---------------------------------------------------------------

def test_bin_quantize_two_bins():
    out = bin_quantize(Image(np.array([[0.0, 10.0]])), 2)
    assert out.data.tolist() == [[0.0, 1.0]]


def test_bin_quantize_max_clamps():
    out = bin_quantize(Image(np.array([[0.0, 0.3, 1.0]])), 4)
    assert out.data[0, 2] == 3.0


def test_bin_quantize_identity_permutation():
    # brute-force expectation over the 256 linspace values
    vals = np.linspace(0.0, 1.0, 256)
    expected = [min(255, int(np.floor((v - 0.0) / 1.0 * 256))) for v in vals]
    out = bin_quantize(Image(vals.reshape(16, 16)), 256)
    assert out.data.ravel().tolist() == expected
    assert expected == list(range(256))


def test_bin_quantize_rejects_constant():
    with pytest.raises(DegenerateRangeError):
        bin_quantize(Image(np.full((2, 2), 1.0)), 8)


def test_bin_quantize_rejects_one_bin():
    with pytest.raises(ConfigError):
        bin_quantize(Image(np.array([[0.0, 1.0]])), 1)


@given(nonconstant, st.integers(min_value=2, max_value=64))
@settings(max_examples=50, deadline=None)
def test_bin_quantize_monotone(data, bins):
    out = bin_quantize(Image(data), bins).data
    flat, binned = data.ravel(), out.ravel()
    order = np.argsort(flat, kind="stable")
    assert np.all(np.diff(binned[order]) >= 0)


quarter_ints = arrays(np.float64, (4, 5),
                      elements=st.integers(min_value=0, max_value=256).map(
                          lambda i: i * 0.25)
                      ).filter(lambda a: a.max() > a.min())


@given(quarter_ints, st.integers(min_value=2, max_value=64),
       st.sampled_from([0.5, 2.0, 4.0]), st.sampled_from([-8.0, 0.0, 1.0]))
@settings(max_examples=50, deadline=None)
def test_bin_quantize_affine_invariant(data, bins, b, a):
    # bin edges scale with the data, so affine pre-normalization is a no-op
    # (data and affine parameters chosen so the float arithmetic is exact)
    base = bin_quantize(Image(data), bins).data
    pre = bin_quantize(Image((data - a) / b), bins).data
    assert np.array_equal(base, pre)


# --- data range resolution --------------------------------------------------

def _img(lo, hi):
    return Image(np.array([[lo, hi]]))


def test_joint_range_example():
    assert resolve_data_range_values(_img(0, 100).data, _img(-20, 80).data,
                                     DataRangePolicy.joint()) == 120


def test_fixed_range_ignores_inputs():
    assert resolve_data_range_values(_img(0, 1).data, _img(0, 1).data,
                                     DataRangePolicy.fixed(255)) == 255


def test_per_reference_constant_errors():
    with pytest.raises(DegenerateRangeError):
        resolve_data_range_values(np.full((1, 2), 3.0), _img(0, 1).data,
                                  DataRangePolicy.ref())


def test_fixed_range_requires_finite_L():
    for make in (lambda: DataRangePolicy.fixed(float("inf")),
                 lambda: DataRangePolicy.parse("fixed:L=inf")):
        with pytest.raises(ConfigError, match="needs a finite L, got inf"):
            make()


def test_overflowing_joint_range_errors():
    # each image alone spans 1e308; only their joint span overflows
    ref, test = (Image(np.resize([lo, hi], (16, 16)))
                 for lo, hi in ((0.0, 1e308), (-1e308, 0.0)))
    with pytest.raises(DegenerateRangeError, match="the span overflows float64"):
        resolve_data_range_values(ref.data, test.data, DataRangePolicy.joint())
    for metric in ("psnr", "ssim"):  # both scored nan on an infinite L
        with pytest.raises(DegenerateRangeError, match="the span overflows float64"):
            evaluate(metric, ref, test)


@pytest.mark.parametrize("policy", ["ref", "test"])
def test_overflowing_own_range_errors(policy):
    wide = _img(-1e308, 1e308)
    with pytest.raises(DegenerateRangeError, match="the span overflows float64"):
        resolve_data_range_values(wide.data, wide.data, DataRangePolicy.parse(policy))


@pytest.mark.parametrize("metric", ["psnr", "ssim", "ms_ssim"])
@pytest.mark.parametrize("policy, L", [("fixed:L=1e-200", "1e-200"),
                                       ("fixed:L=1e200", "1e+200"),
                                       ("joint", "1e+200")])
def test_range_whose_square_leaves_float64_errors(metric, policy, L):
    # L = 1e-200 raised a math domain error in psnr and scored ssim nan (C1
    # underflowed to 0); L = 1e200 scored psnr inf and raised a raw
    # OverflowError in ssim. The joint pair alternates 0 and 1e200.
    if policy == "joint":
        ref, test = (Image(np.resize(v, (16, 16))) for v in ([0.0, 1e200], [1e200, 0.0]))
    else:
        ref, test = _img(0, 1), _img(0.5, 2)
    ctx = EvalContext(range_policy=DataRangePolicy.parse(policy))
    kind = policy.split(":")[0]
    with pytest.raises(DegenerateRangeError, match=re.escape(
            f"data-range policy {kind!r} resolved to L={L} "
            "(its square leaves float64's range)")):
        evaluate(metric, ref, test, ctx)


@pytest.mark.parametrize("metric", ["psnr", "ssim"])
def test_small_range_with_a_normal_square_scores(metric):
    ref, test = (Image(np.linspace(lo, hi, 256).reshape(16, 16)) for lo, hi in ((0, 1), (0, 2)))
    ctx = EvalContext(range_policy=DataRangePolicy.fixed(1e-150))
    assert np.isfinite(evaluate(metric, ref, test, ctx).value)


@given(nonconstant, nonconstant)
@settings(max_examples=50, deadline=None)
def test_joint_dominates_per_image(a, b):
    ref, test = Image(a), Image(b)
    joint = resolve_data_range_values(ref.data, test.data, DataRangePolicy.joint())
    assert joint >= resolve_data_range_values(ref.data, test.data, DataRangePolicy.ref())
    assert joint >= resolve_data_range_values(ref.data, test.data, DataRangePolicy.test())


def test_policy_parse_roundtrip():
    for text in ("joint", "ref", "test", "fixed:L=255.0"):
        p = DataRangePolicy.parse(text)
        assert DataRangePolicy.parse(p.spec_string()) == p
    with pytest.raises(ConfigError):
        DataRangePolicy.parse("fixed:255")
