#!/usr/bin/env python3
"""Digest of refmet's observable CLI behaviour, one line per run.

Runs ``refmet.cli.main`` in-process inside a fresh temporary directory,
with relative paths and captured stdout/stderr: the phantom and distortion
runs that make the inputs, ``distort`` once per distortion kind and once
on a PGM input (the foreground mask), a set of ``compare`` flag sets (under
masks the script writes: a filled rectangle and an empty mask; a ``--norm``
that names a number twice; and a panel that names a metric twice),
``compare`` on a test image the readers refuse (a rawf32 whose sidecar
dims hold a boolean, a binary PGM with a short payload), ``lint``
without a config, with a valid one, with one that fires W03, with a mask of
another shape than the images and with an empty panel, ``audit`` with an
unknown scenario, with a config that sets the segmenter, which has no
settings, and with one that sets the tumor's half, which is fixed, and
``audit --scenario all``. Each line holds the run
name, its exit code and the sha256 of its stdout, its stderr and every file
it wrote, so two versions of refmet behave the same on these runs exactly
when their outputs are equal (diff them).

    python scripts/behaviour_digest.py [--phantoms N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from refmet.cli import main as refmet_main  # noqa: E402

REF = "in/phantom_1000.rawf32"
TEST = "test.rawf32"
MASK = "in/phantom_1000_foreground.pgm"
RECT_MASK = "rect_mask.pgm"
EMPTY_MASK = "empty_mask.pgm"
SMALL_MASK = "checker64_mask.pgm"
BAD_DIMS = "bad_dims.rawf32"
TRUNCATED_PGM = "truncated.pgm"

# One spec per distortion kind, applied to the reference.
DISTORTIONS = {
    "gamma": {"kind": "gamma", "params": {"gamma": 0.4}},
    "linear_scale": {"kind": "linear_scale", "params": {"factor": 1.2}},
    "translate": {"kind": "translate", "params": {"shift": [2, 0]}},
    "mirror_replace": {"kind": "mirror_replace", "params": {"axis": 0}},
    "gaussian_noise": {"kind": "gaussian_noise", "params": {"sigma_rel": 0.05}, "seed": 7},
    "stripes": {"kind": "stripes",
                "params": {"period": 8, "amplitude_rel": 0.25, "axis": 0}},
    "gaussian_blur": {"kind": "gaussian_blur", "params": {"sigma": 1.0}},
    "crop_fraction": {"kind": "crop_fraction", "params": {"fraction": 0.03}},
}

COMPARE = {
    "full_panel": ["--metrics", "mae,mse,psnr,ssim,ms_ssim,cw_ssim,pcc,mi,nmi,dice"],
    "minmax_fixed_range_bins": ["--norm", "minmax", "--range", "fixed:L=2",
                                "--bins", "64"],
    "prebin": ["--prebin", "256"],
    # the five pointwise lines print, then dice, a windowed metric, is
    # refused on the non-rectangular mask (W03 on stderr): exit 1
    "mask_pointwise_dice": ["--mask", MASK, "--metrics", "mae,mse,psnr,pcc,nmi,dice"],
    "mask_ssim": ["--mask", MASK, "--metrics", "ssim"],
    # mae prints its line, then ssim fails on the non-rectangular mask: exit 1
    # with partial stdout.
    "mask_fails_after_print": ["--mask", MASK, "--metrics", "mae,ssim"],
    # windowed metrics on a rectangular mask score the crop
    "mask_rect_windowed": ["--mask", RECT_MASK, "--metrics", "mae,ssim,ms_ssim"],
    # refused before any line prints: an empty mask, a number named twice
    "mask_empty": ["--mask", EMPTY_MASK, "--metrics", "dice,mae"],
    "norm_duplicate_key": ["--norm", "custom:a=1,b=2,a=3"],
    "strict_zscore": ["--strict", "--norm", "zscore"],
    "zscore_prebin_range_ref": ["--norm", "zscore", "--prebin", "64", "--range", "ref"],
    "unknown_metric": ["--metrics", "lpips,ssim"],
    "metrics_repeated": ["--metrics", "mae,mae"],
    "range_test_out": ["--range", "test", "--out", "scores.csv"],
}

# Lint configs, written before the runs like the masks (no input is counted
# as run output).
LINT_CONFIGS = {
    "lint_valid.json": {"metrics": ["ssim", "nmi"], "norm": "minmax",
                        "prebin": 64, "nmi_bins": 64},
    "lint_w03.json": {"metrics": ["ssim", "mae"], "mask": MASK},
    "lint_mask_other_shape.json": {"metrics": ["ssim"], "mask": SMALL_MASK},
    "lint_metrics_empty.json": {"metrics": []},
}


def _rect_mask_pgm(h=192, w=192, rows=(10, 186), cols=(6, 190)) -> bytes:
    """A binary PGM of the phantoms' shape, 255 inside a 176x184 rectangle
    (large enough for 5-scale ms_ssim on the crop), 0 elsewhere."""
    pixels = bytearray(h * w)
    for y in range(*rows):
        pixels[y * w + cols[0]:y * w + cols[1]] = b"\xff" * (cols[1] - cols[0])
    return f"P5\n{w} {h}\n255\n".encode() + bytes(pixels)


def _checker_pgm(n=64) -> bytes:
    """A binary n x n PGM checkerboard: not a rectangle, not the phantoms' shape."""
    pixels = bytes(255 * ((y + x) % 2 == 0) for y in range(n) for x in range(n))
    return f"P5\n{n} {n}\n255\n".encode() + pixels


def runs() -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, in order; earlier runs write later inputs."""
    chain = json.dumps([DISTORTIONS["gamma"], DISTORTIONS["linear_scale"]])
    out = [("phantom", ["phantom", "in", "--count", "1"]),
           ("distort_test_pair", ["distort", REF, chain, TEST])]
    out += [(f"distort_{kind}", ["distort", REF, json.dumps(spec), f"d_{kind}.rawf32"])
            for kind, spec in DISTORTIONS.items()]
    # a PGM input: the only file format that once gave an image a range of its own
    out.append(("distort_pgm", ["distort", MASK, json.dumps(DISTORTIONS["gaussian_blur"]),
                                "d_pgm.rawf32"]))
    out += [(f"compare_{name}", ["compare", REF, TEST, *flags])
            for name, flags in COMPARE.items()]
    out += [("compare_bad_rawf32_dims", ["compare", REF, BAD_DIMS]),
            ("compare_truncated_pgm", ["compare", REF, TRUNCATED_PGM])]
    out += [("lint_no_config", ["lint", REF, TEST]),
            ("lint_valid_config", ["lint", REF, TEST, "--config", "lint_valid.json"]),
            ("lint_w03_config", ["lint", REF, TEST, "--config", "lint_w03.json"]),
            ("lint_mask_other_shape",
             ["lint", REF, TEST, "--config", "lint_mask_other_shape.json"]),
            ("lint_metrics_empty", ["lint", REF, TEST, "--config", "lint_metrics_empty.json"]),
            ("audit_scenario_unknown", ["audit", "--scenario", "pitfall9", "--config",
                                        "audit.json", "--out", "audit_out"]),
            ("audit_config_segmenter", ["audit", "--config", "audit_segmenter.json",
                                        "--out", "audit_segmenter_out"]),
            ("audit_config_tumor_half", ["audit", "--config", "audit_tumor_half.json",
                                         "--out", "audit_tumor_half_out"])]
    out.append(("audit_all", ["audit", "--scenario", "all", "--config", "audit.json",
                              "--out", "audit_out"]))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): _sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = refmet_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def digest(phantoms: int) -> list[str]:
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        os.chdir(root)
        try:
            audit = {"phantoms": {"count": phantoms}}
            inputs = {**LINT_CONFIGS, "audit.json": audit,
                      "audit_segmenter.json": {**audit, "segmenter": {"threshold_rel": 0.9}},
                      "audit_tumor_half.json":
                          {"phantoms": {**audit["phantoms"], "tumor_half": "lower"}}}
            for name, obj in inputs.items():
                (root / name).write_text(json.dumps(obj))
            (root / RECT_MASK).write_bytes(_rect_mask_pgm())
            (root / EMPTY_MASK).write_bytes(_rect_mask_pgm(rows=(0, 0)))
            (root / SMALL_MASK).write_bytes(_checker_pgm())
            (root / BAD_DIMS).write_bytes(bytes(16))
            (root / f"{BAD_DIMS}.meta").write_text('{"dims": [true, 4], "dtype": "f32le"}')
            (root / TRUNCATED_PGM).write_bytes(b"P5\n3 3\n255\n\x00\x00")
            for name, argv in runs():
                before = _files(root)
                code, out, err = _run(argv)
                written = [f"{path}={sha}" for path, sha in _files(root).items()
                           if before.get(path) != sha]
                lines.append("\t".join([name, f"exit={code}", f"stdout={_sha(out.encode())}",
                                        f"stderr={_sha(err.encode())}", *written]))
        finally:
            os.chdir(cwd)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phantoms", type=int, default=20,
                        help="phantom count of the audit run (default 20)")
    args = parser.parse_args(argv)
    for line in digest(args.phantoms):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
