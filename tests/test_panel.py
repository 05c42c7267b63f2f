"""Scoring a plan's metrics with the per-thread SSIM memo kept across calls
must give exactly the scores and errors of scoring each metric from a
cleared memo, the memo must never serve other bits' moments or scale 0, and
the harness and ``refmet compare`` must keep the reuse it gives."""

import gc
import random
import weakref
from dataclasses import replace

import numpy as np
import pytest

import refmet.metrics.structural as structural
from refmet.cli import main as refmet_main
from refmet.distort import translate
from refmet.errors import RefmetError
from refmet.harness import (SCENARIO_IDS, EvalPlan, HarnessConfig, builtin_scenario,
                            generate_phantoms, run_scenario)
from refmet.image import Image, Mask, Rect, mask_to_image, save_image
from refmet.metrics import METRIC_IDS, EvalContext
from refmet.phantom import generate_phantom


def _plans():
    """Every built-in variant's plan, one per distinct set of the fields the
    metrics read (metrics, range policy, scales, nmi bins), plus one plan
    with every registered metric."""
    plans = {}
    for sid in SCENARIO_IDS:
        for v in builtin_scenario(sid).variants:
            p = v.plan
            key = (p.metrics, p.range_policy.spec_string(), p.scales, p.nmi_bins)
            plans.setdefault(key, (f"{sid}/{v.label}", p))
    plans["all"] = ("all_registered", EvalPlan(metrics=METRIC_IDS))
    return list(plans.values())


PLANS = _plans()


def _pair(shape, seed):
    g = np.random.default_rng(seed)
    ref = g.random(shape) * 100.0
    return Image(ref), Image(0.8 * ref + 10.0 * g.random(shape))


# 176 is the smallest extent at which 5-scale ms_ssim fits; 3D has no
# cw_ssim and too few voxels for a second ms_ssim scale, so errors show too.
PAIRS = {"2d": ((176, 184), 1), "3d": ((20, 22, 24), 2)}


def _mask(shape, kind):
    """No mask, or a mask of rows and columns 2:-3, as a filled ``Mask``, as
    a ``Rect`` (a crop), or as a ``Mask`` with a hole."""
    if kind == "none":
        return None
    if kind == "crop":
        return Rect((2,) * len(shape), tuple(n - 5 for n in shape))
    m = np.zeros(shape, dtype=bool)
    m[(slice(2, -3),) * len(shape)] = True
    if kind == "nonrect":
        m[(slice(5, 7),) * len(shape)] = False
    return Mask(m)


def _outcome(fn):
    try:
        return fn().value.hex()
    except RefmetError as exc:
        return type(exc), str(exc)


def _outcomes(plan, ref, test, mask, cold=True):
    """(metric_id, float.hex or error) of every metric of ``plan`` under
    ``mask``, routed by ``EvalPlan.score`` as ``refmet compare`` routes them,
    on a pair that ``plan`` has already prepared. ``cold`` clears the memo
    before every metric; else the memo is kept."""
    plan = replace(plan, mask=mask)

    def score(m):
        if cold:
            structural._PYRAMID.clear()
        return plan.score(m, ref, test)

    return [(m, _outcome(lambda: score(m))) for m in plan.metrics]


@pytest.mark.parametrize("mask_kind", ["none", "rect", "crop", "nonrect"])
@pytest.mark.parametrize("dim", PAIRS)
@pytest.mark.parametrize("name, plan", PLANS, ids=[n for n, _ in PLANS])
def test_panel_equals_per_metric_calls(name, plan, dim, mask_kind):
    shape, seed = PAIRS[dim]
    ref, test = _pair(shape, seed)
    other = _pair(shape, seed + 10)[1]
    mask = _mask(shape, mask_kind)
    metrics = list(plan.metrics)
    random.Random(f"{name}/{dim}/{mask_kind}").shuffle(metrics)
    plan = replace(plan, metrics=tuple(metrics))
    if mask_kind == "crop":
        # score the prepared, cropped pair; one crop of the reference serves both tests
        plan = replace(plan, mask=mask)
        (ref, test), other = plan.prepare(ref, test), plan.prepare(ref, other)[1]
        assert ref.shape == mask.extent
    expected = {id(t): _outcomes(plan, ref, t, mask) for t in (test, other)}
    # One memo, cold, warm, for another test of the reference, and for an
    # equal-valued but distinct reference; a metric's error leaves it usable
    # by the next one.
    structural._PYRAMID.clear()
    for r, t in ((ref, test), (ref, test), (ref, other), (Image(ref.data.copy()), other)):
        assert _outcomes(plan, r, t, mask, cold=False) == expected[id(t)]


def test_shared_memo_follows_the_reference():
    # one memo across different and equal-valued-but-distinct references
    # and tests
    plan = EvalPlan(metrics=("ssim", "ms_ssim", "mae"), scales=3)
    ref_a, test = _pair((96, 100), 3)
    ref_b, test_b = _pair((96, 100), 4)
    ref_a2, test2 = Image(ref_a.data.copy()), Image(test.data.copy())
    pairs = ((ref_a, test), (ref_b, test), (ref_a2, test), (ref_a2, test_b),
             (ref_a2, test2), (ref_a, test2), (ref_b, test))
    expected = [_outcomes(plan, ref, t, None) for ref, t in pairs]
    structural._PYRAMID.clear()
    assert [_outcomes(plan, ref, t, None, cold=False) for ref, t in pairs] == expected


def _pyramid(ref, scales=2):
    """The memo's pyramid after ms_ssim over ``scales`` scales of ``ref``
    against itself."""
    structural.ms_ssim(ref, ref, EvalContext(scales=scales))
    return structural._PYRAMID.entry[2]


def test_an_equal_bits_distinct_reference_shares_the_pyramid(monkeypatch):
    counts = _count_calls(monkeypatch, "_ref_moments")
    ref = Image(np.random.default_rng(5).random((40, 40)))
    twin = Image(ref.data.copy())
    pyramid = _pyramid(ref)
    first = pyramid.at(1)
    assert pyramid.at(1) is first and counts["_ref_moments"] == 2
    assert _pyramid(twin) is pyramid and pyramid.at(1) is first
    assert counts["_ref_moments"] == 2
    # the memo keeps the first reference's data, not the twin's
    assert pyramid.at(0).data is ref.data


def test_a_reference_one_ulp_apart_rebuilds_the_pyramid(monkeypatch):
    counts = _count_calls(monkeypatch, "_ref_moments")
    ref = Image(np.random.default_rng(5).random((40, 40)))
    bits = ref.data.copy()
    bits[7, 9] = np.nextafter(bits[7, 9], np.inf)
    near = Image(bits)
    first = _pyramid(ref).at(1)
    again = _pyramid(near)
    assert counts["_ref_moments"] == 4
    assert again.at(1) is not first and again.at(1).mu is not first.mu
    assert again.at(0).data is near.data


def test_memo_holds_one_reference_at_most():
    structural._PYRAMID.clear()
    g = np.random.default_rng(6)
    ref = Image(g.random((48, 48)))
    moments = _pyramid(ref, scales=3).moments[2]
    held = [weakref.ref(ref), weakref.ref(moments.mu), weakref.ref(moments.data)]
    del ref, moments
    _pyramid(Image(g.random((48, 48))), scales=1)
    gc.collect()
    assert [r() for r in held] == [None, None, None]


def _count_calls(monkeypatch, *names):
    structural._PYRAMID.clear()  # count from a cold memo
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(structural, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(structural, name, counted)
    return counts


def test_memo_holds_one_test_at_most(monkeypatch):
    counts = _count_calls(monkeypatch, "ssim_and_cs")
    L = 1.0
    g = np.random.default_rng(8)
    ref, test = Image(g.random((32, 32))), Image(g.random((32, 32)))
    first = structural._scale0(ref, test, L)[1]
    assert structural._scale0(ref, test, L)[1] is first and counts["ssim_and_cs"] == 1
    # an equal-valued but distinct test has the same bits: a hit; the scale-0
    # memo keeps the old test's data, not the Image
    twin = Image(test.data.copy())
    held, held_data = weakref.ref(test), weakref.ref(test.data)
    del test
    assert structural._scale0(ref, twin, L)[1] is first and counts["ssim_and_cs"] == 1
    gc.collect()
    assert held() is None and held_data() is not None
    # another reference drops the test too
    held = weakref.ref(twin)
    del twin
    other = Image(g.random((32, 32)))
    structural._scale0(other, other, L)
    gc.collect()
    assert held() is None and held_data() is None


# (ssim_and_cs, _ref_moments) calls of run_scenario on 2 phantoms: ms_ssim
# takes ssim's scale 0, and every variant of a phantom shares its reference
# moments (a crop or a normalization makes a new reference).
REUSE_COUNTS = {"pitfall1": (44, 30), "pitfall2": (40, 10), "pitfall3": (24, 24),
                "pitfall4": (160, 10), "pitfall5": (10, 10)}


@pytest.fixture(scope="module")
def two_phantoms():
    return generate_phantoms(HarnessConfig(phantom_count=2))


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_run_scenario_keeps_the_reuse(monkeypatch, two_phantoms, scenario_id):
    counts = _count_calls(monkeypatch, "ssim_and_cs", "_ref_moments")
    run_scenario(builtin_scenario(scenario_id), two_phantoms)
    assert (counts["ssim_and_cs"], counts["_ref_moments"]) == REUSE_COUNTS[scenario_id]


@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "rect_mask"])
def test_compare_ssim_and_ms_ssim_score_each_scale_once(monkeypatch, tmp_path, capsys,
                                                         masked):
    # A filled-rectangle mask is a crop, and the cropped pair keeps the reuse.
    ref = generate_phantom(1000).image
    save_image(ref, tmp_path / "ref.rawf32")
    save_image(translate(ref, (2, 0)), tmp_path / "test.rawf32")
    rect = np.zeros(ref.shape, dtype=bool)
    rect[8:184, 8:184] = True  # 176x176 fits 5-scale ms_ssim
    save_image(mask_to_image(Mask(rect)), tmp_path / "rect.pgm")
    flags = ["--mask", str(tmp_path / "rect.pgm")] if masked else []
    counts = _count_calls(monkeypatch, "ssim_and_cs", "_ref_moments")
    assert refmet_main(["compare", str(tmp_path / "ref.rawf32"), str(tmp_path / "test.rawf32"),
                        "--metrics", "ssim,ms_ssim", *flags]) == 0
    assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == \
        ["ssim", "ms_ssim"]
    assert counts == {"ssim_and_cs": 5, "_ref_moments": 5}
