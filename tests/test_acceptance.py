"""Acceptance suite: one test per criterion, one printed verdict line each.

Analytic identities run at tight tolerances; directional properties run on
the 20-phantom set (192x192) with their stated pass fractions. Golden
thresholds live in tests/golden/golden.json and were produced by a
one-time run of the same deterministic pipeline.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import gaussian_kernel2d, naive_entropy_bits, naive_ms_ssim, naive_ssim
from refmet.distort import (DistortionSpec, add_gaussian_noise, add_stripes,
                            crop_fraction, gamma_transform, gaussian_blur,
                            linear_scale, mirror_replace, translate)
from refmet.downstream import task_similarity
from refmet.harness import EvalPlan, lint_configuration
from refmet.image import Image, Mask, Rect, bounding_box, crop
from refmet.metrics import (EvalContext, MsSsimParams, SsimParams, cw_ssim, dice,
                            ms_ssim, ssim, masked_evaluate, evaluate)
from refmet.metrics.structural import truncated_weights
from refmet.normalize import (DataRangePolicy, NormMethod, bin_quantize,
                              normalize, resolve_data_range_values)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "golden.json").read_text())


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _joint(r, t):
    return resolve_data_range_values(r.data, t.data, DataRangePolicy.joint())


def _gamma_linear(img):
    return linear_scale(gamma_transform(img, 0.4), 1.2)


def test_criterion_01_oracle_equivalence():
    worst_ssim = worst_ms = 0.0
    for seed in range(10):
        g = np.random.default_rng(10_000 + seed)
        r, t = Image(g.random((32, 32))), Image(g.random((32, 32)))
        got = ssim(r, t, SsimParams(1.0)).value
        want = naive_ssim(r.data, t.data, 1.0, kernel=gaussian_kernel2d(1.5, 5))
        worst_ssim = max(worst_ssim, abs(got - want))
    weights = truncated_weights(5)
    for seed in range(10):
        g = np.random.default_rng(20_000 + seed)
        base = g.random((192, 192))
        r = Image(base)
        t = Image(np.clip(base + g.normal(0, 0.05, base.shape), 0, 2))
        got = ms_ssim(r, t, MsSsimParams(SsimParams(1.0), 5, weights)).value
        want = naive_ms_ssim(r.data, t.data, 1.0, weights,
                             kernel=gaussian_kernel2d(1.5, 5))
        worst_ms = max(worst_ms, abs(got - want))
    ok = worst_ssim <= 1e-6 and worst_ms <= 1e-6
    _verdict(1, ok, f"ssim/ms_ssim vs naive oracle: max |d| = "
                    f"{worst_ssim:.2e} / {worst_ms:.2e} (<= 1e-6)")


def test_criterion_02_psnr_range_identity(phantoms):
    shift = 20.0 * math.log10(2.0)
    worst = 0.0
    for p in phantoms:
        r = p.image
        t = _gamma_linear(r)
        L = _joint(r, t)
        lo, hi = (evaluate("psnr", r, t, EvalContext(range_policy=DataRangePolicy.fixed(x)))
                  .value for x in (L, 2 * L))
        worst = max(worst, abs(hi - lo - shift))
    _verdict(2, worst <= 1e-9,
             f"psnr(2L) - psnr(L) == 20 log10 2: max |d| = {worst:.2e} (<= 1e-9)")


def test_criterion_03_ssim_range_direction(phantoms):
    n = len(phantoms)
    up = order = 0
    binned_le = 0
    for p in phantoms:
        r = p.image
        t = _gamma_linear(r)
        L = _joint(r, t)
        l_ref = resolve_data_range_values(r.data, t.data, DataRangePolicy.ref())
        l_test = resolve_data_range_values(r.data, t.data, DataRangePolicy.test())
        s_joint = ssim(r, t, SsimParams(L)).value
        up += ssim(r, t, SsimParams(10 * L)).value > s_joint
        order += s_joint >= ssim(r, t, SsimParams(min(l_ref, l_test))).value
        s_binned = ssim(bin_quantize(r, 256), bin_quantize(t, 256),
                        SsimParams(255.0)).value
        binned_le += s_binned <= s_joint
    ok = up == n and order == n and binned_le >= 0.9 * n
    _verdict(3, ok, f"L direction {up}/{n}, joint>=min {order}/{n}, "
                    f"binned<=unbinned {binned_le}/{n} (>= 90%)")


def test_criterion_04_pcc_nmi_insensitivity(phantoms):
    n = len(phantoms)
    pcc_ok = nmi_ok = 0
    bins512 = EvalContext(nmi_bins=512)
    gamma_min, noise_max = math.inf, -math.inf
    for p in phantoms:
        r = p.image
        t = _gamma_linear(r)
        base = evaluate("pcc", r, t).value
        stable = all(
            abs(evaluate("pcc", a, b).value - base) <= 1e-12
            for a, b in ((normalize(r, m), t) for m in (NormMethod.minmax(),
                                                        NormMethod.zscore()))
        ) and all(
            abs(evaluate("pcc", r, normalize(t, m)).value - base) <= 1e-12
            for m in (NormMethod.minmax(), NormMethod.zscore())
        )
        pcc_ok += stable
        g = evaluate("nmi", r, gamma_transform(r, 0.4), bins512).value
        z = evaluate("nmi", r, add_gaussian_noise(r, 0.1, seed=p.seed * 13 + 3),
                     bins512).value
        nmi_ok += g > z
        gamma_min, noise_max = min(gamma_min, g), max(noise_max, z)
    golden_ok = (gamma_min >= GOLDEN["nmi_gamma512_min"] - 1e-9
                 and noise_max <= GOLDEN["nmi_noise512_max"] + 1e-9)
    ok = pcc_ok == n and nmi_ok == n and golden_ok
    _verdict(4, ok, f"pcc invariant {pcc_ok}/{n}, nmi gamma>noise {nmi_ok}/{n}, "
                    f"golden bounds [{gamma_min:.4f} >= {GOLDEN['nmi_gamma512_min']:.4f}, "
                    f"{noise_max:.4f} <= {GOLDEN['nmi_noise512_max']:.4f}]")


def test_criterion_05_misalignment(phantoms):
    n = len(phantoms)
    big_drop = cw_smaller = 0
    for p in phantoms:
        r = p.image
        t = translate(r, (2, 0))
        drop_ssim = 1.0 - ssim(r, t, SsimParams(_joint(r, t))).value
        drop_cw = 1.0 - cw_ssim(r, t).value
        big_drop += drop_ssim >= 0.10
        cw_smaller += drop_cw < drop_ssim
    ok = big_drop >= 0.9 * n and cw_smaller >= 0.9 * n
    _verdict(5, ok, f"2px shift: ssim drop>=10% {big_drop}/{n}, "
                    f"cw drop smaller {cw_smaller}/{n} (each >= 90%)")


def test_criterion_06_background_inflation(phantoms):
    n = len(phantoms)
    mae_order = ssim_order = bit_equal = 0
    for p in phantoms:
        r = p.image
        t = mirror_replace(r, 0)
        rect = bounding_box(p.foreground_mask)
        fg = p.foreground_mask.data
        mae_full = evaluate("mae", r, t).value
        mae_bbox = evaluate("mae", crop(r, rect), crop(t, rect)).value
        mae_fg = float(np.abs(r.data[fg] - t.data[fg]).mean())
        mae_order += mae_full < mae_bbox < mae_fg
        s_full = ssim(r, t, SsimParams(_joint(r, t))).value
        rc, tc = crop(r, rect), crop(t, rect)
        s_bbox = ssim(rc, tc, SsimParams(_joint(rc, tc))).value
        ssim_order += s_full > s_bbox
        rect_mask = np.zeros(r.shape, dtype=bool)
        rect_mask[rect.slices()] = True
        masked = masked_evaluate("ssim", r, t, Mask(rect_mask))
        direct = evaluate("ssim", rc, tc)
        bit_equal += masked.value == direct.value
    ok = (mae_order >= 0.9 * n and ssim_order >= 0.9 * n and bit_equal == n)
    _verdict(6, ok, f"mae full<bbox<fg {mae_order}/{n}, ssim full>bbox "
                    f"{ssim_order}/{n} (>= 90%), rect-mask==crop {bit_equal}/{n} "
                    f"(100%)")


def test_criterion_07_blur_preference(phantoms):
    n = len(phantoms)
    prefer = 0
    gap_min = math.inf
    for p in phantoms:
        r = p.image
        noisy = add_gaussian_noise(r, 0.05, seed=p.seed * 7 + 1)
        blurred = gaussian_blur(noisy, 1.0)
        s_noisy = ssim(r, noisy, SsimParams(_joint(r, noisy))).value
        s_blur = ssim(r, blurred, SsimParams(_joint(r, blurred))).value
        prefer += (s_blur > s_noisy) and (evaluate("mse", r, blurred).value
                                          < evaluate("mse", r, noisy).value)
        gap_min = min(gap_min, 2.0 - evaluate("nmi", r, gaussian_blur(r, 1.0)).value)
    golden_margin = GOLDEN["nmi_blur_gap_min"]
    ok = prefer >= 0.9 * n and gap_min >= golden_margin - 1e-9
    _verdict(7, ok, f"blur improves ssim&mse {prefer}/{n} (>= 90%), "
                    f"nmi blur gap {gap_min:.4f} >= golden {golden_margin:.4f}")


def test_criterion_08_task_divergence(phantoms):
    n = len(phantoms)
    diverge = 0
    for p in phantoms:
        r = p.image
        t = mirror_replace(r, 0)
        d = task_similarity(r, t).value
        s = ssim(r, t, SsimParams(_joint(r, t))).value
        diverge += (d == 0.0) and (s >= 0.7)
    _verdict(8, diverge >= 0.9 * n,
             f"mirror-replace: dice==0 while ssim>=0.7 on {diverge}/{n} (>= 90%)")


def test_criterion_09_identity_and_determinism(phantoms, tmp_path):
    img = phantoms[0].image
    checks = {
        "mae": evaluate("mae", img, img).value == 0.0,
        "mse": evaluate("mse", img, img).value == 0.0,
        "psnr": evaluate("psnr", img, img).value == math.inf,
        "pcc": abs(evaluate("pcc", img, img).value - 1.0) <= 1e-12,
        "nmi": abs(evaluate("nmi", img, img).value - 2.0) <= 1e-12,
        "dice": dice(phantoms[0].tumor_mask, phantoms[0].tumor_mask).value == 1.0,
        "ssim": abs(ssim(img, img, SsimParams(1.0)).value - 1.0) <= 1e-9,
        "ms_ssim": abs(ms_ssim(img, img, MsSsimParams(SsimParams(1.0))).value
                       - 1.0) <= 1e-9,
        "cw_ssim": abs(cw_ssim(img, img).value - 1.0) <= 1e-9,
        "task": task_similarity(img, img).value == 1.0,
    }
    d = img.data
    checks["mi"] = abs(
        evaluate("mi", img, img).value
        - naive_entropy_bits(d.ravel().tolist(), 256, d.min(), d.max())) <= 1e-9
    idents = {
        "gamma": gamma_transform(img, 1.0) is img,
        "linear": linear_scale(img, 1.0) is img,
        "translate": translate(img, (0, 0)) is img,
        "noise": add_gaussian_noise(img, 0.0, seed=1) is img,
        "stripes": add_stripes(img, 8, 0.0) is img,
        "crop": crop_fraction(img, 0.004) is img,
    }
    # CLI byte-determinism: every command, two runs, identical stdout
    from refmet.image import save_image
    save_image(img, tmp_path / "a.rawf32")
    save_image(_gamma_linear(img), tmp_path / "b.rawf32")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"phantoms": {"count": 1, "seed": 1000},
                               "scenarios": ["pitfall5"]}))
    commands = [
        ("compare", str(tmp_path / "a.rawf32"), str(tmp_path / "b.rawf32"),
         "--metrics", "mae,ssim,psnr,nmi"),
        ("distort", str(tmp_path / "a.rawf32"),
         '[{"kind": "gamma", "params": {"gamma": 0.5}}]', str(tmp_path / "d.rawf32")),
        ("phantom", str(tmp_path / "ph"), "--count", "1", "--dims", "96,96"),
        ("audit", "--config", str(cfg), "--out", str(tmp_path / "audit")),
        ("lint", str(tmp_path / "a.rawf32"), str(tmp_path / "b.rawf32")),
    ]
    cli_ok = True
    for cmd in commands:
        runs = [subprocess.run([sys.executable, "-m", "refmet", *cmd],
                               capture_output=True) for _ in range(2)]
        cli_ok &= runs[0].stdout == runs[1].stdout
    ok = all(checks.values()) and all(idents.values()) and cli_ok
    bad = [k for k, v in {**checks, **idents}.items() if not v]
    _verdict(9, ok, f"self-scores perfect, identity params bit-exact, CLI "
                    f"byte-deterministic{'' if ok else ' (failed: ' + str(bad) + ')'}")


def test_criterion_10_lint_fixture(phantoms):
    r = phantoms[0].image
    differ = _gamma_linear(r)
    same = Image(r.data * 1.0)
    checker = Mask(np.indices(r.shape).sum(axis=0) % 2 == 0)
    rect = np.zeros(r.shape, dtype=bool)
    rect[20:80, 30:90] = True
    blur_chain = (DistortionSpec("gaussian_blur", {"sigma": 1.0}),)
    # (plan, test image, expected codes)
    fixture = [
        (EvalPlan(metrics=("ssim",)), differ, {"W01"}),
        (EvalPlan(metrics=("psnr",), norm=NormMethod.minmax(),
                  range_policy=DataRangePolicy.ref()), differ, {"W02"}),
        (EvalPlan(metrics=("ssim",), norm=NormMethod.minmax(), mask=checker),
         differ, {"W03"}),
        (EvalPlan(metrics=("nmi",), norm=NormMethod.minmax(), prebin=256,
                  nmi_bins=128), differ, {"W04"}),
        (EvalPlan(metrics=("mae", "mse"), norm=NormMethod.minmax(),
                  chain=blur_chain), differ, {"W05"}),
        (EvalPlan(metrics=("ssim",)), same, set()),
        (EvalPlan(metrics=("psnr",), range_policy=DataRangePolicy.ref()),
         same, set()),
        (EvalPlan(metrics=("ssim",), norm=NormMethod.minmax(), mask=Mask(rect)),
         differ, set()),
        (EvalPlan(metrics=("nmi",), norm=NormMethod.minmax(), prebin=256,
                  nmi_bins=256), differ, set()),
        (EvalPlan(metrics=("mae", "nmi"), norm=NormMethod.minmax(),
                  chain=blur_chain), differ, set()),
    ]
    hits = 0
    for plan, test_img, expected in fixture:
        got = {l.code for l in lint_configuration(r, test_img, plan)}
        hits += got == expected
    _verdict(10, hits == len(fixture),
             f"lint fixture: {hits}/{len(fixture)} cases exact (positives fire, "
             f"negatives stay silent)")
