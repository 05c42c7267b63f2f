import json
import subprocess
import sys

import numpy as np
import pytest

from refmet.distort import (add_stripes, chain_fingerprint, gaussian_blur, parse_chain,
                            translate)
from refmet.harness import Scenario, builtin_scenario, run_scenario
from refmet.image import Image, Mask, load_image, mask_to_image, save_image
from refmet.metrics import EvalContext, evaluate, masked_evaluate
from refmet.phantom import generate_phantom


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "refmet", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    ph = generate_phantom(321)
    save_image(ph.image, d / "ref.rawf32")
    distorted = Image(ph.image.data ** 0.4 * 1.2)
    save_image(distorted, d / "test.rawf32")
    save_image(mask_to_image(ph.foreground_mask), d / "fgmask.pgm")
    checker = Mask(np.indices(ph.image.shape).sum(axis=0) % 2 == 0)
    save_image(mask_to_image(checker), d / "checker.pgm")
    return d


# --- compare -----------------------------------------------------------------

def test_compare_self_perfect_scores(workdir):
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "ref.rawf32"),
                  "--metrics", "mae,ssim,psnr,nmi")
    assert res.returncode == 0
    lines = dict(l.split("\t")[:2] for l in res.stdout.splitlines())
    assert lines["mae"] == "0.0"
    assert lines["ssim"] == "1.0"
    assert lines["psnr"] == "inf"
    assert lines["nmi"] == "2.0"


def test_compare_fixed_range_in_fingerprint(workdir):
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--metrics", "psnr", "--range", "fixed:L=255")
    assert res.returncode == 0
    assert "range_policy=fixed:L=255.0" in res.stdout
    assert "data_range=255.0" in res.stdout


def test_compare_nonrect_mask_with_ssim_exits_1(workdir):
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--metrics", "ssim", "--mask", str(workdir / "checker.pgm"))
    assert res.returncode == 1
    assert "rectangle" in res.stderr


def test_compare_rect_mask_routes_each_metric_kind(tmp_path):
    # A filled rectangle is a crop for every metric, dice included. On this
    # 2-px shift the proxy segmentations lie inside it, so dice on the crop
    # has the bits of dice on the full pair (see the next test for a pair
    # where the crop shows).
    rows, cols = slice(16, 192), slice(8, 184)  # 176x176 fits 5-scale ms_ssim
    ref = generate_phantom(1000).image
    test = translate(ref, (2, 0))
    rect = np.zeros(ref.shape, dtype=bool)
    rect[rows, cols] = True
    for name, img in (("ref.rawf32", ref), ("test.rawf32", test),
                      ("rect.pgm", mask_to_image(Mask(rect)))):
        save_image(img, tmp_path / name)
    res = run_cli("compare", str(tmp_path / "ref.rawf32"), str(tmp_path / "test.rawf32"),
                  "--mask", str(tmp_path / "rect.pgm"),
                  "--metrics", "dice,mae,ssim,ms_ssim")
    assert res.returncode == 0, res.stderr
    ref, test = load_image(tmp_path / "ref.rawf32"), load_image(tmp_path / "test.rawf32")
    ref_crop, test_crop = Image(ref.data[rows, cols]), Image(test.data[rows, cols])
    expected = [evaluate(m, ref_crop, test_crop, EvalContext())
                for m in ("dice", "mae", "ssim", "ms_ssim")]
    got = [line.split("\t") for line in res.stdout.splitlines()]
    assert [(m, float(v).hex(), fp) for m, v, fp in got] == \
        [(e.metric_id, e.value.hex(), e.params_fingerprint) for e in expected]
    assert round(expected[0].value, 5) == 0.89176
    assert evaluate("dice", ref, test).value == expected[0].value


def test_compare_rect_mask_crops_dice(tmp_path):
    # Stripes only on rows 0 and 190, both outside the rectangle: the full
    # test image segments the stripes instead of the tumor.
    ref = generate_phantom(1000).image
    test = add_stripes(ref, period=190, amplitude_rel=2.0, axis=0)
    rect = np.zeros(ref.shape, dtype=bool)
    rect[10:186, 6:190] = True
    for name, img in (("ref.rawf32", ref), ("test.rawf32", test),
                      ("rect.pgm", mask_to_image(Mask(rect)))):
        save_image(img, tmp_path / name)
    pair = str(tmp_path / "ref.rawf32"), str(tmp_path / "test.rawf32")
    cropped = run_cli("compare", *pair, "--mask", str(tmp_path / "rect.pgm"),
                      "--metrics", "dice")
    full = run_cli("compare", *pair, "--metrics", "dice")
    assert (cropped.returncode, full.returncode) == (0, 0)
    assert [res.stdout.split("\t")[1] for res in (cropped, full)] == ["1.0", "0.0"]


def test_compare_nonrect_mask_routes_each_metric_kind(workdir):
    # dice, a windowed metric, refuses the mask before any line prints; a
    # pointwise metric reads the masked values
    ref, test = load_image(workdir / "ref.rawf32"), load_image(workdir / "test.rawf32")
    fg = generate_phantom(321).foreground_mask
    pair = str(workdir / "ref.rawf32"), str(workdir / "test.rawf32")
    res = run_cli("compare", *pair, "--mask", str(workdir / "fgmask.pgm"),
                  "--metrics", "dice,mae")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "dice combines neighboring pixels" in res.stderr
    res = run_cli("compare", *pair, "--mask", str(workdir / "fgmask.pgm"), "--metrics", "mae")
    assert res.returncode == 0, res.stderr
    expected = [masked_evaluate("mae", ref, test, fg, EvalContext())]
    got = [line.split("\t") for line in res.stdout.splitlines()]
    assert [(m, float(v).hex(), fp) for m, v, fp in got] == \
        [(e.metric_id, e.value.hex(), e.params_fingerprint) for e in expected]


def test_compare_dice_is_the_audit_proxy_task(tmp_path):
    # Pitfall 5's pair made with the CLI: compare scores dice as the audit does.
    assert run_cli("phantom", str(tmp_path), "--seed", "1000").returncode == 0
    spec = json.dumps({"kind": "mirror_replace", "params": {"axis": 0}})
    ref = str(tmp_path / "phantom_1000.rawf32")
    assert run_cli("distort", ref, spec, str(tmp_path / "test.rawf32")).returncode == 0
    res = run_cli("compare", ref, str(tmp_path / "test.rawf32"), "--metrics", "dice")
    assert res.returncode == 0, res.stderr
    [(metric_id, value, fp)] = [line.split("\t") for line in res.stdout.splitlines()]
    scenario = builtin_scenario("pitfall5")
    proxy = Scenario("pitfall5", tuple(v for v in scenario.variants
                                       if v.label == "proxy_task"))
    [row] = [r for r in run_scenario(proxy, [generate_phantom(1000)]).rows
             if r.case_id == "case_1000"]
    assert metric_id == "dice"
    assert float(value).hex() == row.score.hex() == (0.0).hex()
    assert fp == "connectivity=face;min_component_size=20;threshold_rel=0.94"
    assert set(fp.split(";")) <= set(row.params_fingerprint.split(";"))


@pytest.mark.parametrize("metrics", ["dice", "dice,mae"])
def test_compare_mask_of_another_shape_exits_1(workdir, tmp_path, metrics):
    # lint once read this mask unchecked
    small = str(tmp_path / "small.pgm")
    save_image(mask_to_image(Mask(np.ones((64, 64), dtype=bool))), small)
    cfg = tmp_path / "lint.json"
    cfg.write_text(json.dumps({"metrics": metrics.split(","), "mask": small}))
    pair = str(workdir / "ref.rawf32"), str(workdir / "test.rawf32")
    for res in (run_cli("compare", *pair, "--mask", small, "--metrics", metrics),
                run_cli("lint", *pair, "--config", str(cfg))):
        assert res.returncode == 1
        assert res.stdout == ""
        assert "shape mismatch" in res.stderr


@pytest.mark.parametrize("metrics", ["dice", "dice,mae"])
def test_compare_empty_mask_exits_1(workdir, tmp_path, metrics):
    # dice once ignored an empty mask and scored the unmasked pair
    save_image(mask_to_image(Mask(np.zeros((192, 192), dtype=bool))), tmp_path / "empty.pgm")
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--mask", str(tmp_path / "empty.pgm"), "--metrics", metrics)
    assert res.returncode == 1
    assert res.stdout == ""
    assert "evaluation mask is empty" in res.stderr


def test_compare_strict_lint_exits_2(workdir):
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--metrics", "mae", "--strict")
    assert res.returncode == 2  # W01: ranges differ, no normalization
    assert "W01" in res.stderr


@pytest.mark.parametrize("flags", [("--prebin", "0"), ("--bins", "1")])
def test_compare_bin_count_below_2_exits_1(workdir, flags):
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--metrics", "mae", *flags)
    assert res.returncode == 1
    assert res.stderr.startswith("refmet compare: error:")
    assert "must be >= 2" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("flags", [("--range", "fixed:L=inf"),
                                   ("--norm", "custom:a=0,b=inf")])
def test_compare_non_finite_parameter_exits_1(workdir, flags):
    # they scored ssim nan, and mae 0.0 / ssim 1.0 on any pair
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--metrics", "mae,ssim", *flags)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("refmet compare: error:") and "finite" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("L", ["1e-200", "1e200"])
def test_compare_range_whose_square_leaves_float64_exits_1(workdir, L):
    # 1e-200 died in psnr with a raw math domain error and printed ssim nan;
    # 1e200 printed psnr inf, then died in ssim with a raw OverflowError
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--metrics", "psnr,ssim", "--range", f"fixed:L={L}")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1] == (
        f"refmet compare: error: data-range policy 'fixed' resolved to L={float(L)} "
        "(its square leaves float64's range)")
    assert "Traceback" not in res.stderr


def test_compare_unknown_metric_exits_1(workdir):
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "ref.rawf32"),
                  "--metrics", "lpips")
    assert res.returncode == 1


@pytest.mark.parametrize("metrics, message", [
    # printed the mae line twice and exited 0
    ("mae,mae", "duplicate metrics ['mae']"),
    (" , ", "empty metric list"),
])
def test_compare_bad_panel_exits_1(workdir, metrics, message):
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--metrics", metrics)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"refmet compare: error: {message}\n"


def test_compare_unknown_flag_exits_1(workdir):
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "ref.rawf32"),
                  "--sharpness", "3")
    assert res.returncode == 1


def test_compare_missing_file_exits_1(workdir):
    res = run_cli("compare", str(workdir / "nope.rawf32"), str(workdir / "ref.rawf32"))
    assert res.returncode == 1


def _reader_case(name, payload, sidecar=None):
    return pytest.param(name, payload, sidecar, id=name)


RAWF32_2X2 = '{"dims": [2, 2], "dtype": "f32le"}'


# One case per error of the image readers (payload None: no file at all).
@pytest.mark.parametrize("name, payload, sidecar", [
    ("array_sidecar.rawf32", bytes(64), "[4, 4]"),
    ("bool_dims.rawf32", bytes(16), '{"dims": [true, 4], "dtype": "f32le"}'),
    # 2**62 * 4 elements wrap to 0 in int64, matching the empty payload
    ("wrapping_dims.rawf32", b"", '{"dims": [4611686018427387904, 4], "dtype": "f32le"}'),
    ("huge_sample.pgm", b"P2\n2 1\n255\n0 99999999999999999999999\n", None),
    _reader_case("missing.rawf32", None),
    _reader_case("no_sidecar.rawf32", bytes(16)),
    _reader_case("sidecar_not_json.rawf32", bytes(16), "{bad"),
    _reader_case("f64_dtype.rawf32", bytes(16), '{"dims": [2, 2], "dtype": "f64le"}'),
    _reader_case("short_payload.rawf32", bytes(12), RAWF32_2X2),
    _reader_case("nan.rawf32", np.full(4, np.nan, "<f4").tobytes(), RAWF32_2X2),
    _reader_case("truncated_header.pgm", b"P5\n2"),
    _reader_case("truncated_comment.pgm", b"P5\n# no newline"),
    _reader_case("ppm_magic.pgm", b"P6\n2 1\n255\n\x00\x00"),
    _reader_case("header_field.pgm", b"P2\n2 x\n255\n0 0\n"),
    _reader_case("zero_width.pgm", b"P2\n0 1\n255\n"),
    _reader_case("maxval.pgm", b"P2\n2 1\n100\n0 0\n"),
    _reader_case("ascii_count.pgm", b"P2\n2 1\n255\n0\n"),
    _reader_case("ascii_sample.pgm", b"P2\n2 1\n255\n0 1.5\n"),
    _reader_case("ascii_range.pgm", b"P2\n2 1\n255\n0 256\n"),
    _reader_case("truncated_payload.pgm", b"P5\n3 3\n255\n\x00\x00"),
])
def test_compare_malformed_file_exits_1(tmp_path, name, payload, sidecar):
    bad = tmp_path / name
    if payload is not None:
        bad.write_bytes(payload)
    if sidecar is not None:
        (tmp_path / f"{name}.meta").write_text(sidecar)
    res = run_cli("compare", str(bad), str(bad), "--metrics", "mae")
    assert res.returncode == 1
    assert res.stderr.startswith(f"refmet compare: error: {bad}")
    assert "Traceback" not in res.stderr


def test_compare_writes_csv(workdir):
    out = workdir / "scores.csv"
    res = run_cli("compare", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--metrics", "mae,mse", "--norm", "minmax", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "case_id,scenario,variant,metric_id,params_fingerprint,score"
    assert len(lines) == 3


def test_compare_byte_deterministic(workdir):
    args = ("compare", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
            "--metrics", "ssim,psnr,nmi,cw_ssim")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


# --- distort -----------------------------------------------------------------

def test_distort_identity_chain_bit_exact(workdir):
    out = workdir / "ident.rawf32"
    res = run_cli("distort", str(workdir / "ref.rawf32"), "[]", str(out))
    assert res.returncode == 0
    assert res.stdout.strip() == "identity"
    assert np.array_equal(load_image(out).data, load_image(workdir / "ref.rawf32").data)


def test_distort_chain_records_both_steps(workdir):
    out = workdir / "warped.rawf32"
    chain = ('[{"kind": "gamma", "params": {"gamma": 0.4}},'
             ' {"kind": "linear_scale", "params": {"factor": 1.2}}]')
    res = run_cli("distort", str(workdir / "ref.rawf32"), chain, str(out))
    assert res.returncode == 0
    assert res.stdout.strip() == "gamma(gamma=0.4)|linear_scale(factor=1.2)"


def test_distort_malformed_json_exits_1(workdir):
    res = run_cli("distort", str(workdir / "ref.rawf32"), "{bad", str(workdir / "x.rawf32"))
    assert res.returncode == 1


def test_distort_long_inline_chain_is_parsed(workdir):
    # longer than a file name may be, so it must never be tried as a path
    steps = [{"kind": "linear_scale", "params": {"factor": 1.0 + 0.01 * (i % 3 + 1)}}
             for i in range(40)]
    chain = " " + json.dumps(steps)
    res = run_cli("distort", str(workdir / "ref.rawf32"), chain,
                  str(workdir / "long.rawf32"))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == chain_fingerprint(parse_chain(chain))


def test_distort_spec_file(workdir):
    spec = workdir / "chain.json"
    spec.write_text('\n[{"kind": "gamma", "params": {"gamma": 0.4}}]\n')
    res = run_cli("distort", str(workdir / "ref.rawf32"), str(spec),
                  str(workdir / "from_file.rawf32"))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "gamma(gamma=0.4)"
    missing = run_cli("distort", str(workdir / "ref.rawf32"), str(workdir / "nope.json"),
                      str(workdir / "x.rawf32"))
    assert missing.returncode == 1
    assert "i/o error" in missing.stderr


@pytest.mark.parametrize("spec, named", [
    ('{"kind": "gamma", "params": {"gamma": "x"}}', "gamma param 'gamma'"),
    ('{"kind": "gaussian_noise", "params": {"sigma_rel": 0.1}, "seed": "x"}',
     "gaussian_noise seed"),
    ('{"kind": "translate", "params": {"shift": "ab"}}', "translate param 'shift'"),
    ('{"kind": "gaussian_noise", "params": {"sigma_rel": 0.1}, "sed": 5}', "['sed']"),
    # JSON's Infinity used to reach float arithmetic: a raw OverflowError
    ('{"kind": "gaussian_blur", "params": {"sigma": Infinity}}',
     "gaussian_blur param 'sigma' must be a number, got Infinity"),
])
def test_distort_malformed_spec_exits_1(workdir, spec, named):
    res = run_cli("distort", str(workdir / "ref.rawf32"), spec, str(workdir / "bad.rawf32"))
    assert res.returncode == 1
    assert res.stderr.startswith("refmet distort: error:") and named in res.stderr
    assert "Traceback" not in res.stderr
    assert not (workdir / "bad.rawf32").exists()


def test_distort_beyond_float32_exits_1(workdir):
    # wrote inf under numpy's RuntimeWarning and exited 0; compare then
    # rejected the file as non-finite
    out = workdir / "big.rawf32"
    res = run_cli("distort", str(workdir / "ref.rawf32"),
                  '{"kind": "linear_scale", "params": {"factor": 1e300}}', str(out))
    assert res.returncode == 1
    assert res.stderr.startswith("refmet distort: error:") and "float32" in res.stderr
    assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr
    assert not out.exists() and not (workdir / "big.rawf32.meta").exists()


def test_distort_blurs_a_pgm_mask(workdir):
    # the blurred 0/255 mask peaks a few ulps above 255, which no longer
    # collides with a range the loaded PGM carried
    pgm = workdir / "fg1000.pgm"
    save_image(mask_to_image(generate_phantom(1000).foreground_mask), pgm)
    out = workdir / "fg1000_blur.rawf32"
    res = run_cli("distort", str(pgm), '{"kind":"gaussian_blur","params":{"sigma":2.0}}',
                  str(out))
    assert res.returncode == 0, res.stderr
    expected = gaussian_blur(Image(load_image(pgm).data), 2.0).data.astype(np.float32)
    assert np.array_equal(load_image(out).data, expected)


# --- phantom -----------------------------------------------------------------

def test_phantom_writes_expected_files(workdir):
    out = workdir / "ph3"
    res = run_cli("phantom", str(out), "--count", "3", "--seed", "50",
                  "--dims", "96,96")
    assert res.returncode == 0
    images = sorted(out.glob("phantom_*.rawf32"))
    masks = sorted(out.glob("phantom_*_*.pgm"))
    assert len(images) == 3 and len(masks) == 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 3 and len(manifest["phantoms"]) == 3
    assert sorted(manifest) == ["base_seed", "count", "dims", "phantoms"]


def test_phantom_same_seed_identical_files(workdir):
    d1, d2 = workdir / "pa", workdir / "pb"
    for d in (d1, d2):
        assert run_cli("phantom", str(d), "--count", "1", "--seed", "9",
                       "--dims", "96,96").returncode == 0
    assert (d1 / "phantom_9.rawf32").read_bytes() == \
        (d2 / "phantom_9.rawf32").read_bytes()


def test_phantom_tumor_half_flag_exits_1(workdir):
    # the tumor always sits in the half mirror_replace overwrites
    out = workdir / "tumor_half"
    res = run_cli("phantom", str(out), "--tumor-half", "lower")
    assert res.returncode == 1
    assert "unrecognized arguments: --tumor-half lower" in res.stderr
    assert res.stdout == "" and not out.exists()


def test_phantom_bad_dims_exits_1(workdir):
    res = run_cli("phantom", str(workdir / "px"), "--dims", "16,16")
    assert res.returncode == 1


@pytest.mark.parametrize("count", ["-1", "0"])
def test_phantom_count_below_1_exits_1(workdir, count):
    out = workdir / f"count_{count}"
    res = run_cli("phantom", str(out), "--count", count)
    assert res.returncode == 1
    assert res.stderr == f"refmet phantom: error: --count must be >= 1, got {count}\n"
    assert res.stdout == "" and not out.exists()


def test_compare_psnr_whose_ratio_underflows_scores(tmp_path):
    # L^2 / mse = 1e-300 / 1e40 rounds to 0; this died with a raw math
    # domain error. mse itself cannot overflow from float32 files.
    save_image(Image(np.zeros((16, 16))), tmp_path / "z.rawf32")
    save_image(Image(np.full((16, 16), 1e20)), tmp_path / "b.rawf32")
    res = run_cli("compare", str(tmp_path / "z.rawf32"), str(tmp_path / "b.rawf32"),
                  "--metrics", "psnr", "--range", "fixed:L=1e-150")
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert float(res.stdout.split("\t")[1]) == pytest.approx(-3400.0, rel=1e-6)


# --- audit -------------------------------------------------------------------

@pytest.fixture(scope="module")
def audit_config(workdir):
    cfg = workdir / "audit.json"
    cfg.write_text(json.dumps({
        "phantoms": {"count": 2, "seed": 1000, "dims": [192, 192]},
        "scenarios": ["pitfall1", "pitfall5"],
    }))
    return cfg


def test_audit_single_scenario(workdir, audit_config):
    out = workdir / "audit1"
    res = run_cli("audit", "--scenario", "pitfall5", "--config", str(audit_config),
                  "--out", str(out))
    assert res.returncode == 0
    assert (out / "report.csv").exists() and (out / "report.md").exists()
    text = (out / "report.csv").read_text()
    assert "proxy_task" in text and "image_metrics" in text


# Runs the CLI after a finder that makes every ``import scipy...`` fail.
NO_SCIPY_CLI = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")

sys.meta_path.insert(0, NoScipy())
import refmet.cli
sys.exit(refmet.cli.main(sys.argv[1:]))
"""


def test_audit_runs_without_scipy(workdir, audit_config):
    args = ["audit", "--scenario", "pitfall5", "--config", str(audit_config), "--out"]
    free = run_cli(*args, str(workdir / "audit_with_scipy"))
    blocked = subprocess.run([sys.executable, "-c", NO_SCIPY_CLI, *args,
                              str(workdir / "audit_no_scipy")], capture_output=True, text=True)
    assert free.returncode == 0, free.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == free.stdout
    assert ((workdir / "audit_no_scipy" / "report.csv").read_bytes()
            == (workdir / "audit_with_scipy" / "report.csv").read_bytes())


def test_audit_all_from_config(workdir, audit_config):
    out = workdir / "audit_all"
    res = run_cli("audit", "--config", str(audit_config), "--out", str(out))
    assert res.returncode == 0
    assert [l.split("\t")[0] for l in res.stdout.splitlines()] == \
        ["pitfall1", "pitfall5"]
    md = (out / "report.md").read_text()
    assert "## pitfall1" in md and "## pitfall5" in md


def test_audit_unknown_scenario_exits_1(workdir):
    out = workdir / "audit_pitfall9"
    res = run_cli("audit", "--scenario", "pitfall9", "--out", str(out))
    assert res.returncode == 1
    assert res.stdout == ""
    # argparse's wording differs across Python versions
    assert "invalid choice" in res.stderr and "pitfall9" in res.stderr
    assert not out.exists()


def test_audit_unknown_output_format_exits_1(workdir):
    cfg = workdir / "bad_formats.json"
    cfg.write_text(json.dumps({"output": {"formats": ["CSV"]}}))
    res = run_cli("audit", "--config", str(cfg), "--out", str(workdir / "audit_fmt"))
    assert res.returncode == 1
    assert "['CSV']" in res.stderr and "csv, markdown" in res.stderr


def test_audit_empty_output_formats_exits_1(workdir):
    cfg = workdir / "no_formats.json"
    cfg.write_text(json.dumps({"output": {"formats": []}}))
    res = run_cli("audit", "--config", str(cfg), "--out", str(workdir / "audit_none"))
    assert res.returncode == 1
    assert res.stderr == ("refmet audit: error: config key 'output.formats' "
                          "must be a non-empty list\n")
    assert not (workdir / "audit_none").exists()


def test_audit_repeated_output_format_exits_1(workdir):
    # was accepted: exit 0 with report.csv written once
    cfg = workdir / "twice_formats.json"
    cfg.write_text(json.dumps({"output": {"formats": ["csv", "csv"]}}))
    res = run_cli("audit", "--config", str(cfg), "--out", str(workdir / "audit_twice"))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "refmet audit: error: duplicate output formats ['csv']\n"
    assert not (workdir / "audit_twice").exists()


def test_audit_malformed_config_value_exits_1(workdir):
    cfg = workdir / "bad_count.json"
    cfg.write_text(json.dumps({"phantoms": {"count": "x"}}))
    res = run_cli("audit", "--config", str(cfg), "--out", str(workdir / "audit_bad"))
    assert res.returncode == 1
    assert res.stderr.startswith("refmet audit: error:")
    assert "'phantoms.count'" in res.stderr
    assert "Traceback" not in res.stderr


def test_audit_unknown_nested_config_key_exits_1(workdir):
    cfg = workdir / "nested_typo.json"
    cfg.write_text(json.dumps({"phantoms": {"cnt": 4, "dim": [96, 96]},
                               "output": {"format": ["csv"]}}))
    res = run_cli("audit", "--config", str(cfg), "--out", str(workdir / "audit_typo"))
    assert res.returncode == 1
    assert res.stderr == ("refmet audit: error: unknown harness config keys "
                          "['output.format', 'phantoms.cnt', 'phantoms.dim']\n")
    assert not (workdir / "audit_typo").exists()


def test_audit_tumor_half_config_key_exits_1(workdir):
    cfg = workdir / "tumor_half.json"
    cfg.write_text(json.dumps({"phantoms": {"tumor_half": "lower"}}))
    res = run_cli("audit", "--config", str(cfg), "--out", str(workdir / "audit_half"))
    assert res.returncode == 1
    assert res.stderr == ("refmet audit: error: unknown harness config keys "
                          "['phantoms.tumor_half']\n")
    assert res.stdout == "" and not (workdir / "audit_half").exists()


def test_audit_error_names_scenario_variant_case_and_metric(workdir):
    cfg = workdir / "small_dims.json"
    cfg.write_text(json.dumps({"phantoms": {"count": 1, "dims": [64, 64]}}))
    res = run_cli("audit", "--scenario", "pitfall1", "--config", str(cfg),
                  "--out", str(workdir / "audit_small"))
    assert res.returncode == 1
    assert ("scenario pitfall1, variant 'none_joint', case case_1000, "
            "metric ms_ssim: window support") in res.stderr


def test_audit_strict_with_warnings_exits_2(workdir, audit_config):
    out = workdir / "audit_strict"
    res = run_cli("audit", "--scenario", "pitfall1", "--config", str(audit_config),
                  "--out", str(out), "--strict")
    assert res.returncode == 2


# --- lint --------------------------------------------------------------------

def test_lint_clean_pair_exits_0(workdir):
    res = run_cli("lint", str(workdir / "ref.rawf32"), str(workdir / "ref.rawf32"))
    assert res.returncode == 0
    assert res.stdout == ""


def test_lint_mismatched_ranges_w01_exits_2(workdir):
    res = run_cli("lint", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"))
    assert res.returncode == 2
    assert res.stdout.startswith("W01\twarning\t")


def test_lint_with_config_w03(workdir):
    cfg = workdir / "lint.json"
    cfg.write_text(json.dumps({
        "metrics": ["ssim"], "norm": "minmax", "mask": str(workdir / "checker.pgm"),
    }))
    res = run_cli("lint", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--config", str(cfg))
    assert res.returncode == 2
    assert "W03\terror" in res.stdout


def test_lint_and_compare_refuse_dice_under_nonrect_mask(workdir):
    cfg = workdir / "lint_dice.json"
    cfg.write_text(json.dumps({"metrics": ["dice"], "mask": str(workdir / "fgmask.pgm")}))
    pair = str(workdir / "ref.rawf32"), str(workdir / "test.rawf32")
    res = run_cli("lint", *pair, "--config", str(cfg))
    assert res.returncode == 2
    [w03] = [line for line in res.stdout.splitlines() if line.startswith("W03\terror\t")]
    assert "windowed metrics ['dice']" in w03
    res = run_cli("compare", *pair, "--mask", str(workdir / "fgmask.pgm"), "--metrics", "dice")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "dice combines neighboring pixels and supports only masks" in res.stderr


@pytest.mark.parametrize("key, value", [
    ("nmi_bins", "abc"),
    ("mask", 5),
    ("metrics", "ssim"),
    ("prebin", 1),
])
def test_lint_config_malformed_value_exits_1(workdir, key, value):
    cfg = workdir / f"lint_bad_{key}.json"
    cfg.write_text(json.dumps({key: value}))
    res = run_cli("lint", str(workdir / "ref.rawf32"), str(workdir / "ref.rawf32"),
                  "--config", str(cfg))
    assert res.returncode == 1
    assert res.stderr.startswith("refmet lint: error:")
    assert f"'{key}'" in res.stderr
    assert "Traceback" not in res.stderr


def test_lint_config_unknown_metric_exits_1(workdir):
    cfg = workdir / "lint_bogus.json"
    cfg.write_text(json.dumps({"metrics": ["bogus"]}))
    res = run_cli("lint", str(workdir / "ref.rawf32"), str(workdir / "ref.rawf32"),
                  "--config", str(cfg))
    assert res.returncode == 1
    assert "unknown metrics ['bogus']" in res.stderr


@pytest.mark.parametrize("metrics, message", [
    # both exited 0 and linted the panel as given
    ([], "empty metric list"),
    (["mae", "mae"], "duplicate metrics ['mae']"),
])
def test_lint_config_bad_panel_exits_1(workdir, tmp_path, metrics, message):
    cfg = tmp_path / "lint.json"
    cfg.write_text(json.dumps({"metrics": metrics}))
    res = run_cli("lint", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                  "--config", str(cfg))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"refmet lint: error: {message}\n"


def test_lint_config_null_chain_is_the_default(workdir):
    runs = []
    for name, config in (("lint_empty.json", {}), ("lint_null_chain.json", {"chain": None})):
        cfg = workdir / name
        cfg.write_text(json.dumps(config))
        runs.append(run_cli("lint", str(workdir / "ref.rawf32"), str(workdir / "test.rawf32"),
                            "--config", str(cfg)))
    empty, null = runs
    assert empty.returncode == 2 and empty.stdout.startswith("W01\twarning\t")
    assert (null.returncode, null.stdout) == (empty.returncode, empty.stdout)


def test_lint_config_non_chain_value_exits_1(workdir):
    cfg = workdir / "lint_chain_5.json"
    cfg.write_text(json.dumps({"chain": 5}))
    res = run_cli("lint", str(workdir / "ref.rawf32"), str(workdir / "ref.rawf32"),
                  "--config", str(cfg))
    assert res.returncode == 1
    assert res.stderr.startswith("refmet lint: error:")
    assert "'chain'" in res.stderr
    assert "Traceback" not in res.stderr


def test_lint_bad_path_exits_1(workdir):
    res = run_cli("lint", str(workdir / "missing.rawf32"), str(workdir / "ref.rawf32"))
    assert res.returncode == 1


# --- JSON files ----------------------------------------------------------------

# Bad JSON, bytes that are not UTF-8, or a top-level value of the wrong
# kind, in each JSON file a command reads: no message named the file,
# lint's bad JSON took a catch-all branch of main, and bytes that are not
# UTF-8 ended in a traceback.
@pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe", b"42"])
@pytest.mark.parametrize("command", ["audit", "lint", "distort", "compare"])
def test_bad_json_file_error_names_the_file(workdir, tmp_path, command, text):
    ref, test = str(workdir / "ref.rawf32"), str(workdir / "test.rawf32")
    path = tmp_path / ("in.rawf32.meta" if command == "compare" else "in.json")
    path.write_bytes(text)
    (tmp_path / "in.rawf32").write_bytes(bytes(64))
    argv = {"audit": ["--config", str(path), "--out", str(tmp_path / "out")],
            "lint": [ref, test, "--config", str(path)],
            "distort": [ref, str(path), str(tmp_path / "out.rawf32")],
            "compare": [str(tmp_path / "in.rawf32")] * 2}[command]
    res = run_cli(command, *argv)
    assert res.returncode == 1
    assert res.stderr.startswith(f"refmet {command}: error: {path}: ")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""
