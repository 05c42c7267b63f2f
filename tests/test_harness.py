import csv
import gc
import inspect
import json
import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from refmet import harness
from refmet.distort import DistortionSpec, apply_chain, fraction_rect
from refmet.downstream import task_similarity
from refmet.errors import (ConfigError, NonRectangularMaskError, RefmetError,
                           ShapeMismatchError)
from refmet.harness import (EvalPlan, HarnessConfig, SCENARIO_IDS, Scenario,
                            Variant, builtin_scenario, generate_phantoms,
                            lint_configuration, reevaluate_row, run_scenario)
from refmet.image import Image, Mask, Rect, bounding_box, crop
from refmet.metrics import EvalContext, evaluate, truncated_weights
from refmet.normalize import DataRangePolicy, NormMethod
from refmet.phantom import PhantomParams, generate_phantom
from refmet.report import (CSV_COLUMNS, Report, Row, render_csv, render_markdown,
                           write_report)

CFG = HarnessConfig(phantom_count=3)


@pytest.fixture(scope="module")
def small_phantoms():
    return generate_phantoms(CFG)


@pytest.fixture(scope="module")
def pitfall1_report(small_phantoms):
    return run_scenario(builtin_scenario("pitfall1"), small_phantoms)


def test_builtin_ids_all_construct():
    for sid in SCENARIO_IDS:
        s = builtin_scenario(sid)
        assert s.variants
    with pytest.raises(ConfigError):
        builtin_scenario("pitfall6")


def test_pitfall1_emits_three_range_policies(small_phantoms, pitfall1_report):
    ssim_rows = [r for r in pitfall1_report.rows
                 if r.metric_id == "ssim" and r.case_id == "case_1000"]
    fps = {r.params_fingerprint for r in ssim_rows
           if r.variant.startswith("none_")}
    assert len(fps) == 3  # joint, ref, test resolve to distinct fingerprints
    policies = {v for fp in fps for v in fp.split(";") if v.startswith("range_policy=")}
    assert policies == {"range_policy=joint", "range_policy=ref",
                        "range_policy=test"}


def test_variant_labels_are_fixed_strings():
    # stable external contract: tooling may key on these labels
    expected = {
        "pitfall1": ["none_joint", "none_range_ref", "none_range_test",
                     "minmax", "zscore", "binned_256",
                     "nmi_bins_128", "nmi_bins_512"],
        "pitfall2": ["shift_1px", "shift_2px", "shift_3px", "shift_4px"],
        "pitfall3": ["full", "crop_3pct", "bbox_crop", "foreground_mask"],
        "pitfall4": ["clean", "clean_blur_0.5", "clean_blur_1.0", "clean_blur_2.0",
                     "stripes", "stripes_blur_0.5", "stripes_blur_1.0",
                     "stripes_blur_2.0",
                     "noise", "noise_blur_0.5", "noise_blur_1.0", "noise_blur_2.0",
                     "mirror", "mirror_blur_0.5", "mirror_blur_1.0",
                     "mirror_blur_2.0"],
        "pitfall5": ["image_metrics", "proxy_task"],
    }
    for sid, labels in expected.items():
        assert [v.label for v in builtin_scenario(sid).variants] == labels


def test_empty_phantom_list_rejected():
    with pytest.raises(ConfigError):
        run_scenario(builtin_scenario("pitfall1"), [])


def test_run_scenario_deterministic(small_phantoms):
    a = run_scenario(builtin_scenario("pitfall5"), small_phantoms)
    b = run_scenario(builtin_scenario("pitfall5"), small_phantoms)
    assert a.rows == b.rows
    assert a.lints == b.lints


def test_rows_sorted_and_means_last(pitfall1_report):
    rows = pitfall1_report.rows
    case_rows = [r for r in rows if r.case_id != "mean"]
    keys = [(r.case_id, r.variant, r.metric_id) for r in case_rows]
    assert keys == sorted(keys)
    tail = rows[len(case_rows):]
    assert tail and all(r.case_id == "mean" for r in tail)


def test_mean_rows_match_case_means(pitfall1_report):
    rows = pitfall1_report.rows
    for mean_row in [r for r in rows if r.case_id == "mean"][:5]:
        vals = [r.score for r in rows
                if r.case_id != "mean" and r.variant == mean_row.variant
                and r.metric_id == mean_row.metric_id]
        assert mean_row.score == pytest.approx(float(np.mean(vals)), abs=1e-15)


def test_rows_reproducible_from_fingerprint(pitfall1_report):
    rows = [r for r in pitfall1_report.rows if r.case_id != "mean"]
    for row in rows[::17]:
        assert reevaluate_row(row) == pytest.approx(row.score, abs=1e-12)


def test_reevaluate_row_names_an_unknown_metric_and_the_available_ones(pitfall1_report):
    row = replace(next(r for r in pitfall1_report.rows if r.case_id != "mean"),
                  metric_id="x")
    with pytest.raises(ConfigError, match=r"^unknown metrics \['x'\]; available: mae, "):
        reevaluate_row(row)


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_each_pair_prepared_once(monkeypatch, scenario_id):
    cfg = HarnessConfig(phantom_count=2)
    phantoms = generate_phantoms(cfg)
    scenario = builtin_scenario(scenario_id)
    calls = []

    def counting_apply_chain(specs, img):
        calls.append(specs)
        return apply_chain(specs, img)

    monkeypatch.setattr(harness, "apply_chain", counting_apply_chain)
    rep = run_scenario(scenario, phantoms)
    assert len(calls) == len(scenario.variants) * len(phantoms)
    for row in rep.rows:
        if row.case_id != "mean":
            assert reevaluate_row(row).hex() == row.score.hex()
    # The lints read the first case's chained pair, not the prepared one.
    expected = []
    first = phantoms[0]
    for variant in scenario.variants:
        plan = variant.case_plan(first)
        ref = first.image
        expected += [replace(lint, message=f"[{scenario_id}/{variant.label}] {lint.message}")
                     for lint in lint_configuration(ref, apply_chain(plan.chain, ref), plan)]
    assert rep.lints == expected


def test_noise_seeds_vary_per_case(small_phantoms):
    rep = run_scenario(builtin_scenario("pitfall4"), small_phantoms)
    noise_fps = {r.params_fingerprint for r in rep.rows
                 if r.variant == "noise" and r.metric_id == "mse"
                 and r.case_id != "mean"}
    assert len(noise_fps) == len(small_phantoms)


def test_proxy_task_dice_zero(small_phantoms):
    rep = run_scenario(builtin_scenario("pitfall5"), small_phantoms)
    dice_rows = [r for r in rep.rows
                 if r.variant == "proxy_task" and r.case_id != "mean"]
    assert dice_rows and all(r.score == 0.0 for r in dice_rows)


def test_harness_config_json_roundtrip():
    cfg = HarnessConfig.from_json({
        "phantoms": {"count": 4},
        "output": {"dir": "out", "formats": ["csv"]},
    })
    assert cfg.phantom_count == 4
    assert cfg.out_dir == "out"
    assert cfg.out_formats == ("csv",)
    with pytest.raises(ConfigError):
        HarnessConfig.from_json({"unknown_key": 1})


def test_unknown_output_format_rejected():
    with pytest.raises(ConfigError, match=r"\['CSV'\].*csv, markdown"):
        HarnessConfig.from_json({"output": {"formats": ["CSV"]}})


@pytest.mark.parametrize("kwargs, message", [
    # was a raw TypeError in generate_phantoms
    ({"phantom_count": 2.5}, "phantom count must be an integer, got 2.5"),
    ({"out_formats": ("CSV",)}, "unknown output formats ['CSV']; available: csv, markdown"),
    # was accepted
    ({"out_formats": ("csv", "csv")}, "duplicate output formats ['csv']"),
    # ran 1 phantom
    ({"phantom_count": True}, "phantom count must be an integer, got True"),
])
def test_config_id_list_rejected(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        HarnessConfig(**kwargs)


def test_load_closes_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"phantoms": {"count": 2}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert HarnessConfig.load(path).phantom_count == 2
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("obj, key", [
    ({"phantoms": [1]}, "phantoms"),
    ({"phantoms": {"count": "x"}}, "phantoms.count"),
    ({"phantoms": {"count": 1.5}}, "phantoms.count"),
    ({"phantoms": {"count": True}}, "phantoms.count"),
    ({"output": {"dir": 1}}, "output.dir"),
    ({"output": {"dir": ["out"]}}, "output.dir"),
    ({"output": {"formats": "csv"}}, "output.formats"),
    ({"output": {"formats": ["csv", 1]}}, "output.formats"),
    ({"output": {"formats": []}}, "output.formats"),
])
def test_from_json_rejects_malformed_value_naming_its_key(obj, key):
    with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
        HarnessConfig.from_json(obj)


def test_from_json_null_means_default():
    cfg = HarnessConfig.from_json({"phantoms": {"count": None}, "output": {"formats": None}})
    assert cfg.phantom_count == 20 and cfg.out_formats == ("csv", "markdown")


def test_scenario_error_names_scenario_variant_case_and_metric():
    with pytest.raises(RefmetError) as info:
        run_scenario(builtin_scenario("pitfall1"),
                     [generate_phantom(1000, PhantomParams(dims=(64, 64)))])
    assert type(info.value) is RefmetError
    assert str(info.value).startswith(
        "scenario pitfall1, variant 'none_joint', case case_1000, metric ms_ssim: "
        "window support")


def test_scenario_error_keeps_its_class(small_phantoms):
    variant = Variant("fg_ssim", EvalPlan(metrics=("mae", "ssim")),
                      mask_mode="foreground")
    with pytest.raises(NonRectangularMaskError,
                       match=r"^scenario custom, variant 'fg_ssim', case case_1000, "
                             r"metric ssim: ssim combines"):
        run_scenario(Scenario("custom", (variant,)), small_phantoms)


def test_first_failing_case_in_phantom_order_raises():
    # Variant "ms" fails only on the small second phantom, "fg" on every
    # phantom; scoring phantom by phantom reaches case 1000's "fg" first.
    phantoms = [generate_phantom(1000, PhantomParams(dims=(192, 192))),
                generate_phantom(1001, PhantomParams(dims=(64, 64)))]
    variants = (Variant("ms", EvalPlan(metrics=("ms_ssim",))),
                Variant("fg", EvalPlan(metrics=("ssim",)), mask_mode="foreground"))
    with pytest.raises(NonRectangularMaskError,
                       match=r"^scenario custom, variant 'fg', case case_1000, "):
        run_scenario(Scenario("custom", variants), phantoms)


def test_lints_once_per_variant_even_for_a_repeated_phantom(small_phantoms):
    first = small_phantoms[0]
    once = run_scenario(builtin_scenario("pitfall1"), [first])
    twice = run_scenario(builtin_scenario("pitfall1"), [first, first])
    assert once.lints and twice.lints == once.lints


# --- report serialization ---------------------------------------------------

def test_empty_report_is_header_only(tmp_path):
    write_report(Report(), tmp_path / "r.csv", "csv")
    text = (tmp_path / "r.csv").read_text()
    assert text == "case_id,scenario,variant,metric_id,params_fingerprint,score\n"


def test_single_row_report(tmp_path):
    rep = Report(rows=[Row("c", "s", "v", "mae", "", 0.5)])
    write_report(rep, tmp_path / "r.csv", "csv")
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 2


def _read_csv_rows(path) -> list[Row]:
    with open(path, newline="") as fh:
        header, *body = csv.reader(fh)
    assert tuple(header) == CSV_COLUMNS
    return [Row(*fields[:-1], float(fields[-1])) for fields in body]


def test_csv_roundtrip(tmp_path, pitfall1_report):
    write_report(pitfall1_report, tmp_path / "r.csv", "csv")
    assert _read_csv_rows(tmp_path / "r.csv") == pitfall1_report.rows


def test_psnr_inf_serialized_as_inf(tmp_path):
    rep = Report(rows=[Row("c", "s", "clean", "psnr", "", math.inf)])
    text = render_csv(rep)
    assert text.splitlines()[1].endswith(",inf")
    write_report(rep, tmp_path / "r.csv", "csv")
    assert _read_csv_rows(tmp_path / "r.csv")[0].score == math.inf


def test_markdown_one_table_per_scenario(small_phantoms):
    rep = Report()
    for sid in ("pitfall2", "pitfall5"):
        rep.extend(run_scenario(builtin_scenario(sid), small_phantoms[:1]))
    md = render_markdown(rep)
    assert "## pitfall2" in md and "## pitfall5" in md
    assert "| metric |" in md


# --- lint engine ------------------------------------------------------------

def _const_pair(span_ref=1.0, span_test=1.0):
    ref = Image(np.linspace(0, span_ref, 64).reshape(8, 8))
    test = Image(np.linspace(0, span_test, 64).reshape(8, 8))
    return ref, test


def _codes(lints):
    return sorted(l.code for l in lints)


def test_lint_clean_config_silent():
    ref, test = _const_pair(1.0, 1.0)
    plan = EvalPlan(metrics=("ssim", "nmi"), norm=NormMethod.minmax())
    assert lint_configuration(ref, test, plan) == []


def test_w01_fires_on_range_mismatch_without_norm():
    ref, test = _const_pair(1.0, 255.0)
    plan = EvalPlan(metrics=("ssim",))
    assert "W01" in _codes(lint_configuration(ref, test, plan))


def test_w01_silent_with_normalization():
    ref, test = _const_pair(1.0, 255.0)
    plan = EvalPlan(metrics=("ssim",), norm=NormMethod.minmax())
    assert "W01" not in _codes(lint_configuration(ref, test, plan))


def test_w02_fires_on_per_image_policy():
    ref, test = _const_pair(1.0, 1.3)
    plan = EvalPlan(metrics=("psnr",), norm=NormMethod.minmax(),
                    range_policy=DataRangePolicy.ref())
    assert _codes(lint_configuration(ref, test, plan)) == ["W02"]


def test_w02_silent_when_ranges_match():
    ref, test = _const_pair(1.0, 1.0)
    plan = EvalPlan(metrics=("psnr",), range_policy=DataRangePolicy.ref())
    assert "W02" not in _codes(lint_configuration(ref, test, plan))


def test_w03_error_grade_on_checkerboard_with_ssim():
    ref, test = _const_pair()
    checker = Mask(np.indices(ref.shape).sum(axis=0) % 2 == 0)
    plan = EvalPlan(metrics=("ssim", "mae"), norm=NormMethod.minmax(), mask=checker)
    lints = lint_configuration(ref, test, plan)
    assert _codes(lints) == ["W03"]
    assert lints[0].severity == "error"


def test_w03_silent_for_rect_mask_or_pointwise():
    ref, test = _const_pair()
    rect = np.zeros(ref.shape, dtype=bool)
    rect[2:6, 2:6] = True
    plan = EvalPlan(metrics=("ssim",), norm=NormMethod.minmax(), mask=Mask(rect))
    assert lint_configuration(ref, test, plan) == []
    checker = Mask(np.indices(ref.shape).sum(axis=0) % 2 == 0)
    plan = EvalPlan(metrics=("mae", "nmi"), norm=NormMethod.minmax(), mask=checker)
    assert lint_configuration(ref, test, plan) == []


def test_w04_fires_on_bin_mismatch():
    ref, test = _const_pair()
    plan = EvalPlan(metrics=("nmi",), prebin=256, nmi_bins=128)
    assert "W04" in _codes(lint_configuration(ref, test, plan))


def test_w04_silent_on_matching_bins():
    ref, test = _const_pair()
    plan = EvalPlan(metrics=("nmi",), prebin=256, nmi_bins=256)
    assert "W04" not in _codes(lint_configuration(ref, test, plan))


def test_w05_fires_on_error_only_panel_with_blur():
    ref, test = _const_pair()
    chain = (DistortionSpec("gaussian_blur", {"sigma": 1.0}),)
    plan = EvalPlan(metrics=("mae", "mse", "psnr"), norm=NormMethod.minmax(),
                    chain=chain)
    assert _codes(lint_configuration(ref, test, plan)) == ["W05"]


def test_w05_silent_with_dependency_metric():
    ref, test = _const_pair()
    chain = (DistortionSpec("gaussian_blur", {"sigma": 1.0}),)
    plan = EvalPlan(metrics=("mae", "nmi"), norm=NormMethod.minmax(), chain=chain)
    assert "W05" not in _codes(lint_configuration(ref, test, plan))


# --- evaluation spec ---------------------------------------------------------

def test_plan_rejects_unknown_metric():
    with pytest.raises(ConfigError, match=r"^unknown metrics \['bogus'\]; available: "
                       "mae, mse, psnr, pcc, mi, nmi, ssim, ms_ssim, cw_ssim, dice$"):
        EvalPlan(metrics=("bogus",))


@pytest.mark.parametrize("metrics, message", [
    ((), "empty metric list"),
    # compare printed each line twice; lint accepted both panels
    (("mae", "mae"), "duplicate metrics ['mae']"),
    (("ssim", "mae", "ssim", "mae"), "duplicate metrics ['mae', 'ssim']"),
])
def test_plan_rejects_empty_or_repeated_panel(metrics, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        EvalPlan(metrics=metrics)


@pytest.mark.parametrize("field_name, value", [("prebin", 0), ("prebin", 1),
                                               ("nmi_bins", 1)])
def test_plan_rejects_bin_count_below_2(field_name, value):
    with pytest.raises(ConfigError, match=f"'{field_name}' must be >= 2, got {value}"):
        EvalPlan(metrics=("nmi",), **{field_name: value})


def test_plan_weights_not_settable():
    message = f"weights for 2 scales must be the standard {truncated_weights(2)}, got (0.5, 0.5)"
    with pytest.raises(ConfigError, match=re.escape(message)):
        EvalPlan(metrics=("ms_ssim",), scales=2, weights=(0.5, 0.5))
    assert EvalPlan(metrics=("ms_ssim",), weights=truncated_weights(5)).weights is None


def test_evaluation_spec_fields():
    assert [f.name for f in fields(EvalContext)] == \
        ["range_policy", "scales", "weights", "nmi_bins"]
    own = [f.name for f in fields(EvalPlan)][len(fields(EvalContext)):]
    assert own == ["metrics", "norm", "prebin", "chain", "mask"]
    assert [f.name for f in fields(Variant)] == ["label", "plan", "mask_mode"]


def test_plan_is_the_evaluation_context(small_phantoms):
    ref = small_phantoms[0].image
    test = apply_chain((DistortionSpec("gaussian_blur", {"sigma": 1.0}),), ref)
    plan = EvalPlan(metrics=("nmi", "ms_ssim"), nmi_bins=64, scales=4,
                    range_policy=DataRangePolicy.ref())
    ctx = EvalContext(nmi_bins=64, scales=4, range_policy=DataRangePolicy.ref())
    for metric_id in plan.metrics:
        got, want = evaluate(metric_id, ref, test, plan), evaluate(metric_id, ref, test, ctx)
        assert got.value.hex() == want.value.hex()
        assert got.params_fingerprint == want.params_fingerprint
    assert "bins=64" in evaluate("nmi", ref, test, plan).params_fingerprint
    assert "scales=4" in evaluate("ms_ssim", ref, test, plan).params_fingerprint


def test_pitfall3_windowed_variants_use_four_scales():
    scales = {v.label: v.plan.scales for v in builtin_scenario("pitfall3").variants}
    assert scales == {"full": 4, "crop_3pct": 4, "bbox_crop": 4, "foreground_mask": 5}


def test_crop_fraction_in_pipeline_fingerprint(small_phantoms):
    variant = next(v for v in builtin_scenario("pitfall3").variants
                   if v.mask_mode == "crop_fraction")
    plan = variant.case_plan(small_phantoms[0])
    assert "mask=crop_fraction(0.03)" in variant.pipeline_fingerprint(plan)


# --- pair preparation ----------------------------------------------------------

def test_audit_lints_the_chained_pair(small_phantoms, tmp_path, capsys):
    from refmet.cli import main
    from refmet.image import save_image
    plan = EvalPlan(metrics=("psnr",), chain=(DistortionSpec("linear_scale", {"factor": 1.5}),),
                    norm=NormMethod.minmax(), range_policy=DataRangePolicy.ref())
    rep = run_scenario(Scenario("custom", (Variant("scaled", plan),)), small_phantoms)
    ref = small_phantoms[0].image
    lints = lint_configuration(ref, apply_chain(plan.chain, ref), plan)
    assert [l.code for l in lints] == ["W02"]
    assert rep.lints == [replace(lints[0], message=f"[custom/scaled] {lints[0].message}")]
    save_image(ref, tmp_path / "ref.rawf32")
    save_image(apply_chain(plan.chain, ref), tmp_path / "test.rawf32")
    assert main(["compare", str(tmp_path / "ref.rawf32"), str(tmp_path / "test.rawf32"),
                 "--metrics", "psnr", "--norm", "minmax", "--range", "ref"]) == 0
    assert capsys.readouterr().err.splitlines() == [lints[0].line()]


@pytest.mark.parametrize("mask_mode", ["crop_fraction", "bbox"])
def test_crop_modes_score_dice_on_the_cropped_pair(small_phantoms, mask_mode):
    # Stripes only on rows 0 and 190, which both crops remove: the uncropped
    # test image segments the stripes instead of the tumor.
    chain = (DistortionSpec("stripes", {"period": 190, "amplitude_rel": 2.0, "axis": 0}),)
    variant = Variant("cropped", EvalPlan(metrics=("dice", "mae"), chain=chain), mask_mode)
    rep = run_scenario(Scenario("custom", (variant,)), small_phantoms[:1])
    dice_row, mae_row = [r for r in rep.rows if r.case_id != "mean"]
    ref = small_phantoms[0].image
    test = apply_chain(chain, ref)
    if mask_mode == "crop_fraction":
        rect = fraction_rect(ref.shape, harness.CROP_FRACTION)
    else:
        rect = bounding_box(small_phantoms[0].foreground_mask)
    ref, test = crop(ref, rect), crop(test, rect)
    assert dice_row.score == task_similarity(ref, test).value == 1.0
    assert mae_row.score == evaluate("mae", ref, test).value == 0.0
    full = small_phantoms[0].image
    assert task_similarity(full, apply_chain(chain, full)).value == 0.0


def test_filled_rectangle_mask_plan_is_the_rect_plan(small_phantoms):
    # Such a plan kept its Mask and scored dice on the uncropped pair, which
    # holds stripes on rows 0 and 190, outside the rectangle.
    ref = small_phantoms[0].image
    chain = (DistortionSpec("stripes", {"period": 190, "amplitude_rel": 2.0, "axis": 0}),)
    test = apply_chain(chain, ref)
    rect = Rect((10, 6), (176, 184))
    data = np.zeros(ref.shape, dtype=bool)
    data[rect.slices()] = True
    panel = ("mae", "ssim", "dice")
    from_mask, from_rect = (EvalPlan(metrics=panel, mask=m) for m in (Mask(data), rect))
    assert from_mask.mask == rect and from_mask == from_rect
    scores = [[plan.score(m, *plan.prepare(ref, test)).value.hex() for m in panel]
              for plan in (from_mask, from_rect)]
    assert scores[0] == scores[1]
    assert "W03" not in [lint.code for lint in lint_configuration(ref, test, from_mask)]


def test_rect_plan_mask_refuses_images_of_two_shapes():
    # Both images would hold the rectangle, so cropping alone would hide the mismatch.
    plan = EvalPlan(metrics=("mae",), mask=Rect((0, 0), (8, 8)))
    with pytest.raises(ShapeMismatchError, match="shape mismatch"):
        plan.prepare(Image(np.zeros((16, 16))), Image(np.zeros((16, 20))))


# --- nested config keys --------------------------------------------------------

@pytest.mark.parametrize("obj, keys", [
    ({"phantoms": {"cnt": 4}}, ["phantoms.cnt"]),
    # the segmenter has no settings, so its section is an unknown key
    ({"segmenter": {"threshold_rel": 0.9}}, ["segmenter"]),
    # the tumor always sits in the half mirror_replace overwrites
    ({"phantoms": {"tumor_half": "lower"}}, ["phantoms.tumor_half"]),
    ({"output": {"format": ["csv"]}}, ["output.format"]),
    ({"phantoms": {"cnt": 4, "dim": [96, 96]}, "output": {"format": ["csv"]}},
     ["output.format", "phantoms.cnt", "phantoms.dim"]),
    ({"phantom": {"count": 4}, "phantoms": {"count": 4}}, ["phantom"]),
    # the audit's phantoms and scenarios are fixed; --scenario picks one
    ({"phantoms": {"seed": 1000, "dims": [192, 192]}, "scenarios": ["pitfall1"]},
     ["phantoms.dims", "phantoms.seed", "scenarios"]),
])
def test_from_json_rejects_unknown_nested_key(obj, keys):
    with pytest.raises(ConfigError, match=re.escape(f"unknown harness config keys {keys}")):
        HarnessConfig.from_json(obj)


def test_from_json_defaults_are_the_dataclass_defaults():
    assert HarnessConfig.from_json({}) == HarnessConfig()


def test_phantom_params_settable_fields():
    assert [f.name for f in fields(PhantomParams)] == ["dims"]


def test_harness_config_settable_fields():
    assert [f.name for f in fields(HarnessConfig)] == ["phantom_count", "out_dir",
                                                       "out_formats"]
    assert list(harness._CONFIG_KEYS) == ["phantoms.count", "output.dir", "output.formats"]
    assert list(inspect.signature(reevaluate_row).parameters) == ["row"]
