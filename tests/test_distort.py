import json
from pathlib import Path

import numpy as np
import pytest

from refmet import rng as prng
from refmet.errors import ConfigError, DegenerateRangeError
from refmet.image import Image, load_image, save_image
from refmet.normalize import NormMethod, normalize
from refmet.distort import (DistortionSpec, add_gaussian_noise, add_stripes,
                            apply, apply_chain, chain_fingerprint, crop_fraction,
                            gamma_transform, gaussian_blur, linear_scale,
                            mirror_replace, parse_chain, translate)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "golden.json").read_text())


def _phantom_like(rng_np):
    return Image(rng_np.random((24, 24)))


# --- prng -------------------------------------------------------------------

def test_splitmix64_reference_sequence():
    got = [int(v) for v in prng.raw_u64(42, 3)]
    assert got == GOLDEN["splitmix64_seed42_first3"]


def test_uniforms_in_half_open_unit():
    u = prng.uniforms(7, 10000)
    assert u.min() > 0.0 and u.max() <= 1.0


def test_normals_moments():
    z = prng.normals(42, 200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_stream_offsets_disjoint():
    s = prng.Stream(5)
    a = s.uniforms(4)
    b = s.uniforms(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(np.concatenate([a, b]), prng.uniforms(5, 8))


# --- gamma ------------------------------------------------------------------

def test_gamma_identity_is_bit_exact(rng):
    img = _phantom_like(rng)
    assert gamma_transform(img, 1.0) is img


def test_gamma_midpoint_closed_form():
    img = Image(np.array([[0.0, 5.0, 10.0]]))
    out = gamma_transform(img, 0.5)
    assert out.data[0, 1] == pytest.approx(10.0 * np.sqrt(0.5), rel=1e-12)
    assert out.data[0, 0] == 0.0 and out.data[0, 2] == 10.0


def test_gamma_preserves_order(rng):
    img = _phantom_like(rng)
    out = gamma_transform(img, 0.4)
    order_in = np.argsort(img.data.ravel(), kind="stable")
    order_out = np.argsort(out.data.ravel(), kind="stable")
    assert np.array_equal(order_in, order_out)


def test_gamma_constant_errors():
    with pytest.raises(DegenerateRangeError):
        gamma_transform(Image(np.full((2, 2), 1.0)), 0.4)


# --- linear scale -----------------------------------------------------------

def test_linear_identity(rng):
    img = _phantom_like(rng)
    assert linear_scale(img, 1.0) is img


def test_linear_example():
    out = linear_scale(Image(np.array([[100.0]])), 1.2)
    assert out.data[0, 0] == pytest.approx(120.0)


def test_linear_zero_rejected():
    with pytest.raises(ConfigError):
        linear_scale(Image(np.zeros((2, 2))), 0.0)


# --- translate --------------------------------------------------------------

def test_translate_zero_is_identity(rng):
    img = _phantom_like(rng)
    assert translate(img, (0, 0)) is img


def test_translate_fills_with_minimum():
    img = Image(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    out = translate(img, (1, 0))
    assert out.data.tolist() == [[1.0, 1.0], [1.0, 2.0], [3.0, 4.0]]


def test_translate_not_invertible_at_border():
    img = Image(np.arange(9.0).reshape(3, 3))
    back = translate(translate(img, (1, 0)), (-1, 0))
    assert not np.array_equal(back.data, img.data)


def test_translate_shift_too_large():
    with pytest.raises(ConfigError):
        translate(Image(np.zeros((3, 3))), (3, 0))


# --- mirror replace ---------------------------------------------------------

def test_mirror_symmetric_input_unchanged():
    rows = np.array([[1.0], [2.0], [2.0], [1.0]])
    out = mirror_replace(Image(rows), 0)
    assert np.array_equal(out.data, rows)


def test_mirror_even_extent():
    img = Image(np.array([[0.0], [1.0], [2.0], [3.0]]))
    assert mirror_replace(img, 0).data.ravel().tolist() == [0, 1, 1, 0]


def test_mirror_odd_extent_keeps_middle():
    img = Image(np.arange(5.0).reshape(5, 1))
    assert mirror_replace(img, 0).data.ravel().tolist() == [0, 1, 2, 1, 0]


def test_mirror_output_is_symmetric(rng):
    img = _phantom_like(rng)
    out = mirror_replace(img, 0).data
    assert np.array_equal(out, out[::-1, :])


# --- noise ------------------------------------------------------------------

def test_noise_zero_sigma_is_identity(rng):
    img = _phantom_like(rng)
    assert add_gaussian_noise(img, 0.0, seed=1) is img


def test_noise_same_seed_bit_identical(rng):
    img = _phantom_like(rng)
    a = add_gaussian_noise(img, 0.1, seed=99)
    b = add_gaussian_noise(img, 0.1, seed=99)
    assert np.array_equal(a.data, b.data)
    c = add_gaussian_noise(img, 0.1, seed=100)
    assert not np.array_equal(a.data, c.data)


def test_noise_sample_std_near_nominal():
    img = Image(np.zeros((192, 192)) + np.linspace(0, 1, 192))
    out = add_gaussian_noise(img, 0.1, seed=42)
    noise = out.data - img.data
    assert noise.std() == pytest.approx(0.1, rel=0.05)


# --- stripes ----------------------------------------------------------------

def test_stripes_zero_amplitude_identity(rng):
    img = _phantom_like(rng)
    assert add_stripes(img, 4, 0.0) is img


def test_stripes_period_two_on_ramp():
    img = Image(np.tile(np.array([[0.0], [1.0]]), (2, 3)))
    out = add_stripes(img, 2, 0.5, axis=0)
    assert np.array_equal(np.unique(out.data), [0.5, 1.0])


def test_stripes_touch_only_period_lines(rng):
    img = _phantom_like(rng)
    out = add_stripes(img, 3, 0.25, axis=0)
    delta = out.data - img.data
    assert np.all(delta[0::3] != 0)
    assert np.all(delta[1::3] == 0) and np.all(delta[2::3] == 0)


# --- blur -------------------------------------------------------------------

def test_blur_constant_unchanged():
    img = Image(np.full((16, 16), 3.0))
    assert np.allclose(gaussian_blur(img, 1.5).data, 3.0, atol=1e-12)


def test_blur_reduces_variance(rng):
    img = _phantom_like(rng)
    assert gaussian_blur(img, 1.0).data.var() < img.data.var()


def test_blur_kernel_normalized():
    from refmet.image import gaussian_kernel
    for sigma in (0.4, 1.0, 2.7):
        k = gaussian_kernel(sigma)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(k) == 2 * int(np.ceil(3 * sigma)) + 1


def test_blur_preserves_mean(rng):
    img = _phantom_like(rng)
    out = gaussian_blur(img, 2.0)
    assert out.data.mean() == pytest.approx(img.data.mean(), rel=1e-6)


# --- crop fraction ----------------------------------------------------------

def test_crop_fraction_small_is_identity(rng):
    img = _phantom_like(rng)  # 24 px, 0.03 * 24 = 0.72 -> floor 0
    assert crop_fraction(img, 0.03) is img


def test_crop_fraction_three_percent_of_100():
    img = Image(np.zeros((100, 100)))
    assert crop_fraction(img, 0.03).shape == (94, 94)


def test_crop_fraction_preserves_interior(rng):
    img = _phantom_like(rng)
    out = crop_fraction(img, 0.1)  # floor(2.4) = 2 per side
    assert np.array_equal(out.data, img.data[2:-2, 2:-2])


# --- specs / dispatch -------------------------------------------------------

def test_apply_gamma_identity_spec(rng):
    img = _phantom_like(rng)
    out = apply(DistortionSpec("gamma", {"gamma": 1.0}), img)
    assert np.array_equal(out.data, img.data)


def test_apply_chain_composes_left_to_right(rng):
    img = _phantom_like(rng)
    chain = parse_chain('[{"kind": "gamma", "params": {"gamma": 0.4}},'
                        ' {"kind": "linear_scale", "params": {"factor": 1.2}}]')
    out = apply_chain(chain, img)
    expected = linear_scale(gamma_transform(img, 0.4), 1.2)
    assert np.array_equal(out.data, expected.data)
    assert chain_fingerprint(chain) == "gamma(gamma=0.4)|linear_scale(factor=1.2)"


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        DistortionSpec("sharpen", {})


def test_unknown_param_rejected():
    with pytest.raises(ConfigError):
        DistortionSpec("gamma", {"gamma": 1.0, "exponent": 2.0})


# kind -> (function, its bound's message, formatted with the first parameter)
BOUNDS = {
    "gamma": (gamma_transform, "gamma must be > 0, got {}"),
    "linear_scale": (linear_scale, "linear scale factor must be nonzero"),
    "gaussian_noise": (add_gaussian_noise, "sigma_rel must be >= 0, got {}"),
    "stripes": (add_stripes, "stripe period must be >= 2, got {}"),
    "gaussian_blur": (gaussian_blur, "blur sigma must be > 0, got {}"),
    "crop_fraction": (crop_fraction, "crop fraction must lie in (0, 0.5), got {}"),
}


@pytest.mark.parametrize("kind,params", [
    ("gamma", {"gamma": -0.4}),
    ("linear_scale", {"factor": 0.0}),
    ("gaussian_noise", {"sigma_rel": -0.1}),
    ("stripes", {"period": 1, "amplitude_rel": 0.1, "axis": 0}),
    ("gaussian_blur", {"sigma": 0.0}),
    ("crop_fraction", {"fraction": 0.6}),
    # the edges of the open bounds
    ("gamma", {"gamma": 0.0}),
    ("crop_fraction", {"fraction": 0.5}),
    ("crop_fraction", {"fraction": 0.0}),
])
def test_bad_param_values_rejected_at_spec_time(kind, params, rng):
    # the same bound and message whether the spec or the function checks it
    fn, message = BOUNDS[kind]
    with pytest.raises(ConfigError) as at_spec:
        DistortionSpec(kind, params)
    with pytest.raises(ConfigError) as at_call:
        fn(_phantom_like(rng), *params.values(), *([0] if kind == "gaussian_noise" else []))
    expected = message.format(*params.values())
    assert str(at_spec.value) == str(at_call.value) == expected


def test_spec_json_roundtrip():
    spec = DistortionSpec.from_json(
        {"kind": "gaussian_noise", "params": {"sigma_rel": 0.1}, "seed": 7})
    assert spec == DistortionSpec("gaussian_noise", {"sigma_rel": 0.1}, seed=7)
    assert "seed=7" in spec.fingerprint()


def test_parse_chain_rejects_bad_json():
    with pytest.raises(ConfigError):
        parse_chain("{not json")


def test_determinism_repeated_application(rng):
    img = _phantom_like(rng)
    spec = DistortionSpec("gaussian_noise", {"sigma_rel": 0.2}, seed=3)
    assert np.array_equal(apply(spec, img).data, apply(spec, img).data)


def test_loaded_pgm_survives_zscore_gamma_and_blur(tmp_path):
    # full-range 8-bit PGMs: gamma and blur round a few ulps past the
    # z-scored extremes, which a loaded image must not forbid
    for seed in range(40):
        data = np.random.default_rng(seed).integers(0, 256, (24, 24)).astype(np.float64)
        data[0, 0], data[-1, -1] = 0.0, 255.0
        save_image(Image(data), tmp_path / "x.pgm")
        img = normalize(load_image(tmp_path / "x.pgm"), NormMethod.zscore())
        assert gaussian_blur(gamma_transform(img, 0.5), 2.0).shape == (24, 24)


def test_apply_returns_the_kind_functions_image(rng):
    img = _phantom_like(rng)
    assert apply(DistortionSpec("gamma", {"gamma": 1.0}), img) is img


VALID_PARAMS = {
    "gamma": {"gamma": 0.4}, "linear_scale": {"factor": 1.2},
    "translate": {"shift": [2, 0]}, "mirror_replace": {"axis": 0},
    "gaussian_noise": {"sigma_rel": 0.05},
    "stripes": {"period": 8, "amplitude_rel": 0.25, "axis": 0},
    "gaussian_blur": {"sigma": 1.0}, "crop_fraction": {"fraction": 0.03},
}


def test_only_gaussian_noise_is_seeded():
    seeded = {kind for kind, params in VALID_PARAMS.items()
              if DistortionSpec(kind, params).seeded}
    assert seeded == {"gaussian_noise"}


@pytest.mark.parametrize("obj, message", [
    ({"kind": "gamma", "params": {"gamma": "x"}},
     "gamma param 'gamma' must be a number, got \"x\""),
    ({"kind": "gamma", "params": {"gamma": True}},
     "gamma param 'gamma' must be a number, got true"),
    ({"kind": "gaussian_noise", "params": {"sigma_rel": 0.1}, "seed": "x"},
     "gaussian_noise seed must be an integer, got \"x\""),
    ({"kind": "gaussian_noise", "params": {"sigma_rel": 0.1}, "seed": 1.0},
     "gaussian_noise seed must be an integer, got 1.0"),
    ({"kind": "translate", "params": {"shift": "ab"}},
     "translate param 'shift' must be a list of integers, got \"ab\""),
    ({"kind": "translate", "params": {"shift": [1.5, 0]}},
     "translate param 'shift' must be a list of integers, got [1.5, 0]"),
    ({"kind": "stripes", "params": {"period": "8", "amplitude_rel": 0.1, "axis": 0}},
     "stripes param 'period' must be an integer, got \"8\""),
    ({"kind": "stripes", "params": {"period": 8.0, "amplitude_rel": 0.1, "axis": 0}},
     "stripes param 'period' must be an integer, got 8.0"),
    ({"kind": "mirror_replace", "params": {"axis": "0"}},
     "mirror_replace param 'axis' must be an integer, got \"0\""),
    ({"kind": "gamma", "params": 5}, "gamma params must be an object, got 5"),
    ({"kind": ["gamma"], "params": {}}, "unknown distortion kind ['gamma']"),
    ({"kind": "gaussian_noise", "params": {"sigma_rel": 0.1}, "sed": 5},
     "unknown distortion spec keys ['sed']"),
    # a number is finite: JSON's Infinity and NaN parse as floats, and an
    # int beyond float range cannot become one
    ({"kind": "gaussian_blur", "params": {"sigma": float("inf")}},
     "gaussian_blur param 'sigma' must be a number, got Infinity"),
    ({"kind": "linear_scale", "params": {"factor": -float("inf")}},
     "linear_scale param 'factor' must be a number, got -Infinity"),
    ({"kind": "gamma", "params": {"gamma": float("nan")}},
     "gamma param 'gamma' must be a number, got NaN"),
    pytest.param({"kind": "linear_scale", "params": {"factor": 10 ** 400}},
                 f"linear_scale param 'factor' must be a number, got {10 ** 400}",
                 id="int-beyond-float-range"),
])
def test_malformed_spec_is_a_named_config_error(obj, message):
    with pytest.raises(ConfigError) as info:
        DistortionSpec.from_json(obj)
    assert str(info.value) == message


@pytest.mark.parametrize("kind, params, seed, expected", [
    ("gamma", {"gamma": 2}, 0, "gamma(gamma=2.0)"),
    ("gamma", {"gamma": 0.4}, 5, "gamma(gamma=0.4)"),
    ("translate", {"shift": [2, 0]}, 0, "translate(shift=(2, 0))"),
    ("translate", {"shift": (-1, 3)}, 0, "translate(shift=(-1, 3))"),
    ("stripes", {"period": 8, "amplitude_rel": 0.25, "axis": 1}, 0,
     "stripes(amplitude_rel=0.25,axis=1,period=8)"),
    ("gaussian_noise", {"sigma_rel": 0.05}, 7, "gaussian_noise(seed=7,sigma_rel=0.05)"),
    # a number prints as a float whether given as an int or a float
    ("gamma", {"gamma": 2.0}, 0, "gamma(gamma=2.0)"),
    ("gaussian_blur", {"sigma": 1}, 0, "gaussian_blur(sigma=1.0)"),
])
def test_valid_spec_keeps_its_fingerprint(kind, params, seed, expected):
    spec = DistortionSpec.from_json({"kind": kind, "params": params, "seed": seed})
    assert spec.fingerprint() == expected
