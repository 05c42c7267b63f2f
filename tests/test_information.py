import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import naive_entropy_bits
from refmet.errors import DegenerateRangeError
from refmet.image import Image
from refmet.metrics import EvalContext, evaluate
from refmet.metrics.information import _edges, joint_histogram


def _img(vals):
    return Image(np.asarray(vals, dtype=float))


def test_mi_self_equals_entropy(rng):
    data = np.floor(rng.random((32, 32)) * 16)
    img = Image(data)
    ctx = EvalContext(nmi_bins=16)
    expected = naive_entropy_bits(data.ravel().tolist(), 16, data.min(), data.max())
    assert evaluate("mi", img, img, ctx).value == pytest.approx(expected, abs=1e-12)


def test_mi_two_bin_permutation():
    # uniform over two levels; the other image swaps the levels
    r = _img([[0.0, 1.0] * 8] * 4)
    t = _img([[1.0, 0.0] * 8] * 4)
    score = evaluate("mi", r, t, EvalContext(nmi_bins=2))
    assert score.value == pytest.approx(math.log(2), abs=1e-12)


def test_mi_independent_uniform_small(rng):
    # plug-in MI of independent data concentrates on the estimator bias
    # (B-1)^2 / (2N) nats; tolerance frozen from a 10-seed sampling run
    ctx = EvalContext(nmi_bins=64)
    bias = 63 * 63 / (2 * 256 * 256)
    for seed in range(5):
        g = np.random.default_rng(seed)
        a = Image(g.random((256, 256)))
        b = Image(g.random((256, 256)))
        v = evaluate("mi", a, b, ctx).value
        assert 0.0 <= v < 0.04
        assert v == pytest.approx(bias, abs=0.005)


def test_nmi_self_is_two(rng):
    img = Image(rng.random((16, 16)))
    assert evaluate("nmi", img, img).value == pytest.approx(2.0, abs=1e-12)


def test_nmi_independent_approaches_one():
    g = np.random.default_rng(123)
    a = Image(g.random((256, 256)))
    b = Image(g.random((256, 256)))
    assert (evaluate("nmi", a, b, EvalContext(nmi_bins=64)).value
            == pytest.approx(1.0, abs=0.01))


def test_nmi_constant_pair_errors():
    img = Image(np.full((4, 4), 2.0))
    with pytest.raises(DegenerateRangeError):
        evaluate("nmi", img, img)


def test_nmi_bin_permutation_invariant(rng):
    bins = 8
    data = np.floor(rng.random((24, 24)) * bins)
    data.ravel()[:bins] = np.arange(bins)  # every level present => stable edges
    ctx = EvalContext(nmi_bins=bins)
    perm = rng.permutation(bins).astype(float)
    # make the relabeled values hit the same per-image bin layout: indices
    # 0..bins-1 bin to themselves under any bijection of that value set
    relabeled = perm[data.astype(int)]
    base = evaluate("nmi", Image(data), Image(data * 3.0 + 1.0), ctx).value
    swapped = evaluate("nmi", Image(relabeled), Image(data * 3.0 + 1.0), ctx).value
    assert swapped == pytest.approx(base, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**31), st.integers(2, 12))
@settings(max_examples=30, deadline=None)
def test_nmi_monotone_relabel_invariant(seed, bins):
    # strictly monotone maps that preserve bin assignments leave nmi exact
    g = np.random.default_rng(seed)
    data = np.floor(g.random((12, 12)) * bins)
    assume(data.max() > data.min())
    other = np.floor(g.random((12, 12)) * bins)
    assume(other.max() > other.min())
    ctx = EvalContext(nmi_bins=bins)
    mapped = 2.0 * data + 6.0  # affine with b > 0 preserves assignments exactly
    assert (evaluate("nmi", Image(mapped), Image(other), ctx).value
            == pytest.approx(evaluate("nmi", Image(data), Image(other), ctx).value, abs=1e-12))


def test_symmetry(rng):
    a = Image(rng.random((20, 20)))
    b = Image(rng.random((20, 20)))
    ctx = EvalContext(nmi_bins=32)
    for metric_id in ("mi", "nmi"):
        assert (evaluate(metric_id, a, b, ctx).value
                == pytest.approx(evaluate(metric_id, b, a, ctx).value, abs=1e-12))


def test_fingerprint_contains_bins():
    img = Image(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert evaluate("nmi", img, img, EvalContext(nmi_bins=128)).params_fingerprint == \
        "bins=128;hist_range=per_image"


@given(seed=st.integers(0, 2**32 - 1), bins=st.sampled_from([2, 3, 7, 256, 512]),
       shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
       on_edges=st.integers(0, 64), constant=st.sampled_from([None, "ref", "test"]),
       log_scale=st.floats(-6, 6), offset=st.floats(-1e4, 1e4), masked=st.booleans())
@settings(max_examples=300, deadline=None)
def test_joint_histogram_equals_histogram2d(seed, bins, shape, on_edges,
                                            constant, log_scale, offset, masked):
    g = np.random.default_rng(seed)
    size = shape[0] * shape[1]
    k = min(on_edges, size - 1)
    r = g.normal(size=size - k) * 10.0 ** log_scale + offset
    t = g.random(size - k) * 10.0 ** g.uniform(-6, 6)
    if constant == "ref":
        r[:] = r[0]
    elif constant == "test":
        t[:] = t[0]
    # Values exactly on bin edges: the edges lie inside the range, so adding
    # them leaves the edges unchanged. A constant axis stays constant.
    er, et = _edges(r, bins), _edges(t, bins)
    r = np.concatenate([r, np.full(k, r[0]) if constant == "ref" else g.choice(er, k)])
    t = np.concatenate([t, np.full(k, t[0]) if constant == "test" else g.choice(et, k)])
    r = g.permutation(r).reshape(shape)
    t = g.permutation(t).reshape(shape)
    if masked:  # masked evaluation passes 1-D arrays of the selected values
        sel = g.random(shape) < 0.5
        sel.flat[g.integers(size)] = True
        r, t = r[sel], t[sel]
    expected, _, _ = np.histogram2d(r.ravel(), t.ravel(),
                                    bins=[_edges(r, bins), _edges(t, bins)])
    got = joint_histogram(r, t, bins)
    assert got.dtype == expected.dtype == np.float64
    assert np.array_equal(got, expected)
