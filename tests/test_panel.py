"""evaluate_panel must score exactly as the per-metric calls do, and the
reference workspace must never serve another reference's moments."""

import gc
import random
import weakref
from dataclasses import replace

import numpy as np
import pytest

from refmet.errors import RefmetError
from refmet.harness import SCENARIO_IDS, EvalPlan, builtin_scenario
from refmet.image import Image, Mask
from refmet.metrics import (RefWorkspace, evaluate, evaluate_panel, masked_evaluate,
                            metric_kind, registered_metrics)
from refmet.metrics.structural import PairWorkspace, WindowSpec


def _plans():
    """Every built-in variant's plan, one per distinct set of the fields the
    panel reads (metrics, range policy, scales, nmi bins), plus one plan with
    every registered metric."""
    plans = {}
    for sid in SCENARIO_IDS:
        for v in builtin_scenario(sid).variants:
            p = v.plan
            key = (p.metrics, p.range_policy.spec_string(), p.scales, p.nmi_bins)
            plans.setdefault(key, (f"{sid}/{v.label}", p))
    plans["all"] = ("all_registered", EvalPlan(metrics=registered_metrics()))
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
    if kind == "none":
        return None
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


def _per_metric(plan, ref, test, mask):
    """The panel's routing, one metric at a time."""
    def one(m):
        if mask is not None and metric_kind(m) != "mask":
            return lambda: masked_evaluate(m, ref, test, mask, plan)
        return lambda: evaluate(m, ref, test, plan)
    return [(m, _outcome(one(m))) for m in plan.metrics]


def _panel(plan, ref, test, mask, ref_ws=None):
    """(metric_id, outcome) until the first error, which ends the panel."""
    out = []
    panel = evaluate_panel(plan, ref, test, mask, ref_ws)
    for m in plan.metrics:
        try:
            got, score = next(panel)
        except RefmetError as exc:
            out.append((m, (type(exc), str(exc))))
            break
        out.append((got, score.value.hex()))
    return out


@pytest.mark.parametrize("mask_kind", ["none", "rect", "nonrect"])
@pytest.mark.parametrize("dim", PAIRS)
@pytest.mark.parametrize("name, plan", PLANS, ids=[n for n, _ in PLANS])
def test_panel_equals_per_metric_calls(name, plan, dim, mask_kind):
    shape, seed = PAIRS[dim]
    ref, test = _pair(shape, seed)
    mask = _mask(shape, mask_kind)
    metrics = list(plan.metrics)
    random.Random(f"{name}/{dim}/{mask_kind}").shuffle(metrics)
    plan = replace(plan, metrics=tuple(metrics))
    expected = _per_metric(plan, ref, test, mask)
    got = _panel(plan, ref, test, mask)
    assert got == expected[:len(got)]
    assert len(got) == len(expected) or not isinstance(got[-1][1], str)
    # The metrics that succeed alone also succeed together, with a shared
    # reference workspace.
    ok = tuple(m for m, outcome in expected if isinstance(outcome, str))
    if ok:
        ok_plan = replace(plan, metrics=ok)
        assert _panel(ok_plan, ref, test, mask, RefWorkspace()) == \
            _per_metric(ok_plan, ref, test, mask)


def test_shared_workspace_follows_the_reference():
    # one workspace across different and equal-valued-but-distinct references
    plan = EvalPlan(metrics=("ssim", "ms_ssim", "mae"), scales=3)
    ref_a, test = _pair((96, 100), 3)
    ref_b, _ = _pair((96, 100), 4)
    ref_a2 = Image(ref_a.data.copy())
    ref_ws = RefWorkspace()
    for ref in (ref_a, ref_b, ref_a2, ref_a, ref_b):
        assert _panel(plan, ref, test, None, ref_ws) == _per_metric(plan, ref, test, None)


def test_workspace_rebuilds_for_an_equal_but_distinct_reference():
    ws, window = RefWorkspace(), WindowSpec()
    ref = Image(np.random.default_rng(5).random((40, 40)))
    twin = Image(ref.data.copy())
    first = ws.moments(ref, window, 1)
    assert ws.moments(ref, window, 1) is first
    again = ws.moments(twin, window, 1)
    assert again is not first and again.mu is not first.mu
    assert np.array_equal(again.mu, first.mu) and np.array_equal(again.sq, first.sq)
    assert ws.moments(twin, window, 0).data is twin.data


def test_workspace_holds_one_reference_at_most():
    ws, window = RefWorkspace(), WindowSpec()
    g = np.random.default_rng(6)
    ref = Image(g.random((48, 48)))
    moments = ws.moments(ref, window, 2)
    held = [weakref.ref(ref), weakref.ref(moments.mu), weakref.ref(moments.data)]
    del ref, moments
    ws.moments(Image(g.random((48, 48))), window, 0)
    gc.collect()
    assert [r() for r in held] == [None, None, None]


def test_pair_workspace_of_another_pair_is_refused():
    ref, test = _pair((32, 32), 7)
    other = Image(test.data.copy())
    with pytest.raises(RefmetError, match="another image pair"):
        evaluate("ssim", ref, other, EvalPlan(metrics=("ssim",)),
                 PairWorkspace(ref, test))
