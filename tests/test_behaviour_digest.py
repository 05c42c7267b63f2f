"""scripts/behaviour_digest.py is the same-behaviour gate for refactors: its
output must be deterministic and must list every run it promises."""

import hashlib
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "behaviour_digest.py"

KINDS = ("gamma", "linear_scale", "translate", "mirror_replace", "gaussian_noise",
         "stripes", "gaussian_blur", "crop_fraction")
COMPARES = ("full_panel", "minmax_fixed_range_bins", "prebin", "mask_pointwise_dice",
            "mask_ssim", "mask_fails_after_print", "mask_rect_windowed", "mask_empty",
            "norm_duplicate_key", "strict_zscore", "zscore_prebin_range_ref",
            "unknown_metric", "metrics_repeated", "range_test_out")
RUNS = (["phantom", "distort_test_pair"] + [f"distort_{k}" for k in KINDS]
        + ["distort_pgm"] + [f"compare_{c}" for c in COMPARES]
        + ["compare_bad_rawf32_dims", "compare_truncated_pgm"]
        + ["lint_no_config", "lint_valid_config", "lint_w03_config",
           "lint_mask_other_shape", "lint_metrics_empty", "audit_scenario_unknown",
           "audit_config_segmenter", "audit_config_tumor_half", "audit_all"])


EMPTY = hashlib.sha256(b"").hexdigest()


def _written(fields):
    return [f.split("=")[0] for f in fields[3:]]


def test_digest_is_deterministic_and_lists_every_run():
    # Both runs at once, each in its own process and temporary directory.
    procs = [subprocess.Popen([sys.executable, str(SCRIPT), "--phantoms", "2"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    (first, err1), (second, err2) = (p.communicate(timeout=60) for p in procs)
    assert [p.returncode for p in procs] == [0, 0], err1 + err2
    assert first == second
    runs = {line.split("\t")[0]: line.split("\t")[1:] for line in first.splitlines()}
    assert list(runs) == RUNS
    for kind in KINDS:
        assert _written(runs[f"distort_{kind}"]) == [f"d_{kind}.rawf32",
                                                     f"d_{kind}.rawf32.meta"]
    assert runs["distort_pgm"][0] == "exit=0"
    assert _written(runs["distort_pgm"]) == ["d_pgm.rawf32", "d_pgm.rawf32.meta"]
    assert _written(runs["audit_all"]) == ["audit_out/report.csv", "audit_out/report.md"]
    assert runs["compare_mask_ssim"][0] == "exit=1"
    assert runs["compare_mask_ssim"][1] == f"stdout={EMPTY}"
    # the lines printed before a failing metric stay on stdout
    assert runs["compare_mask_fails_after_print"][0] == "exit=1"
    assert runs["compare_mask_fails_after_print"][1] != f"stdout={EMPTY}"
    assert runs["compare_mask_rect_windowed"][0] == "exit=0"
    assert runs["lint_w03_config"][0] == "exit=2"
    # bad input is refused before any line prints
    for name in ("compare_mask_empty", "compare_norm_duplicate_key", "lint_mask_other_shape",
                 "compare_metrics_repeated", "lint_metrics_empty", "audit_scenario_unknown",
                 "audit_config_segmenter", "audit_config_tumor_half", "compare_bad_rawf32_dims",
                 "compare_truncated_pgm"):
        assert runs[name][:2] == ["exit=1", f"stdout={EMPTY}"]
