import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import refmet.metrics.structural as structural
from refmet.errors import ConfigError, NonRectangularMaskError, RefmetError
from refmet.harness import EvalPlan
from refmet.image import Image, Mask, Rect, crop
from refmet.metrics import (METRIC_IDS, EvalContext, dice, evaluate, masked_evaluate,
                            metric_kind, truncated_weights)

POINTWISE = ("mae", "mse", "psnr", "pcc", "mi", "nmi")
WINDOWED = ("ssim", "ms_ssim", "cw_ssim", "dice")


def _mask(shape, fill=True):
    return Mask(np.full(shape, fill, dtype=bool))


def _rect_mask(shape, rect: Rect):
    m = np.zeros(shape, dtype=bool)
    m[rect.slices()] = True
    return Mask(m)


def test_dice_identical():
    m = Mask(np.eye(4, dtype=bool))
    assert dice(m, m).value == 1.0


def test_dice_disjoint():
    a = Mask(np.array([[True, False]]))
    b = Mask(np.array([[False, True]]))
    assert dice(a, b).value == 0.0


def test_dice_half_overlap():
    a = np.zeros((2, 4), dtype=bool)
    b = np.zeros((2, 4), dtype=bool)
    a[0, :] = True          # |A| = 4
    b[:, :2] = True         # |B| = 4, overlap = 2
    assert dice(Mask(a), Mask(b)).value == 0.5


def test_dice_both_empty_is_one():
    e = Mask(np.zeros((3, 3), dtype=bool))
    assert dice(e, e).value == 1.0


@given(arrays(np.bool_, (4, 5), elements=st.booleans()),
       arrays(np.bool_, (4, 5), elements=st.booleans()))
@settings(max_examples=50, deadline=None)
def test_dice_symmetric_and_bounded(a, b):
    v = dice(Mask(a), Mask(b)).value
    assert v == dice(Mask(b), Mask(a)).value
    assert 0.0 <= v <= 1.0


# --- masked evaluation ------------------------------------------------------

@pytest.fixture()
def pair(phantoms):
    ref = phantoms[0].image
    test = Image(ref.data * 1.1 + 0.02)
    return ref, test


@pytest.mark.parametrize("metric_id", POINTWISE + WINDOWED)
def test_all_true_mask_equals_unmasked(pair, metric_id):
    ref, test = pair
    full = evaluate(metric_id, ref, test)
    masked = masked_evaluate(metric_id, ref, test, _mask(ref.shape))
    assert masked.value == full.value


@pytest.mark.parametrize("metric_id", WINDOWED + ("mae", "psnr", "nmi"))
def test_rect_mask_bit_equal_to_crop(pair, metric_id):
    ref, test = pair
    # 176 halves to exactly 11 after four poolings, so 5 ms_ssim scales fit
    rect = Rect((8, 8), (176, 176))
    masked = masked_evaluate(metric_id, ref, test, _rect_mask(ref.shape, rect))
    # cold: the crop's scale 0 is computed, not taken from the memo
    structural._PYRAMID.clear()
    cropped = evaluate(metric_id, crop(ref, rect), crop(test, rect))
    assert masked.value == cropped.value  # bit-identical, no tolerance


def test_checkerboard_mask_windowed_errors(pair):
    ref, test = pair
    checker = np.indices(ref.shape).sum(axis=0) % 2 == 0
    with pytest.raises(NonRectangularMaskError) as err:
        masked_evaluate("ssim", ref, test, Mask(checker))
    assert "rectangle" in str(err.value)


def test_checkerboard_mask_pointwise_ok(pair):
    ref, test = pair
    checker = np.indices(ref.shape).sum(axis=0) % 2 == 0
    score = masked_evaluate("mae", ref, test, Mask(checker))
    sel = checker
    assert score.value == pytest.approx(
        np.abs(ref.data[sel] - test.data[sel]).mean(), abs=0)


def test_empty_mask_rejected(pair):
    ref, test = pair
    with pytest.raises(RefmetError):
        masked_evaluate("mae", ref, test, _mask(ref.shape, False))


def test_plan_with_empty_mask_rejected():
    # The plan refuses it when built, before any metric reads it.
    with pytest.raises(RefmetError, match="evaluation mask is empty"):
        EvalPlan(metrics=("dice",), mask=_mask((8, 8), False))


def test_masked_psnr_uses_masked_range(pair):
    ref, test = pair
    rect = Rect((60, 60), (32, 32))
    m = _rect_mask(ref.shape, rect)
    inside = masked_evaluate("psnr", ref, test, m)
    # data_range in the fingerprint reflects the masked values only
    sub_span = float(max(ref.data[m.data].max(), test.data[m.data].max())
                     - min(ref.data[m.data].min(), test.data[m.data].min()))
    assert f"data_range={sub_span!r}" in inside.params_fingerprint


def test_mask_shape_must_match(pair):
    ref, test = pair
    with pytest.raises(RefmetError):
        masked_evaluate("mae", ref, test, _mask((10, 10)))


def test_checkerboard_mask_dice_errors(pair):
    # dice once ignored any mask: masked_evaluate refused it, and the plan
    # scored the unmasked pair
    ref, test = pair
    checker = Mask(np.indices(ref.shape).sum(axis=0) % 2 == 0)
    with pytest.raises(NonRectangularMaskError, match="^dice combines neighboring pixels"):
        masked_evaluate("dice", ref, test, checker)


# --- metric table -----------------------------------------------------------

def test_registry_lists_contract_ids():
    # The order is the one "available: ..." in the unknown-metric error prints.
    assert METRIC_IDS == ("mae", "mse", "psnr", "pcc", "mi", "nmi",
                          "ssim", "ms_ssim", "cw_ssim", "dice")


def test_metric_kinds():
    assert metric_kind("mae") == "pointwise"
    assert metric_kind("ssim") == "windowed"
    assert metric_kind("dice") == "windowed"
    with pytest.raises(ConfigError):
        metric_kind("lpips")


@pytest.mark.parametrize("scales", [1, 2, 3, 4, 5])
def test_ms_ssim_context_defaults_to_truncated_weights(pair, scales):
    ref, test = pair
    implicit = evaluate("ms_ssim", ref, test, EvalContext(scales=scales))
    explicit = evaluate("ms_ssim", ref, test,
                        EvalContext(scales=scales, weights=truncated_weights(scales)))
    assert implicit.value.hex() == explicit.value.hex()
    assert implicit.params_fingerprint == explicit.params_fingerprint


def test_replaced_scales_take_their_own_weights(pair):
    # The context keeps no weights, so none go stale when scales change.
    ref, test = pair
    replaced = replace(EvalContext(scales=5, weights=truncated_weights(5)), scales=3)
    got = evaluate("ms_ssim", ref, test, replaced)
    want = evaluate("ms_ssim", ref, test, EvalContext(scales=3))
    assert got.value.hex() == want.value.hex()
    assert got.params_fingerprint == want.params_fingerprint


# An invalid metric knob is a ConfigError with its own message, raised when
# the context is built, before anything is scored. Weights other than the
# standard ones cut to ``scales`` are refused by one message naming those.
_NOT_STANDARD_2 = f"scales must be the standard {truncated_weights(2)}, got"


@pytest.mark.parametrize("metric_id, knobs, message", [
    ("ms_ssim", {"scales": 6}, "scales must be in 1..5"),
    ("ms_ssim", {"scales": 0, "weights": ()}, "scales must be in 1..5"),
    ("ms_ssim", {"scales": 2, "weights": (1.0,)}, f"{_NOT_STANDARD_2} (1.0,)"),
    ("ms_ssim", {"scales": 2, "weights": (1.5, -0.5)}, f"{_NOT_STANDARD_2} (1.5, -0.5)"),
    ("ms_ssim", {"scales": 2, "weights": (0.5, 0.5)}, f"{_NOT_STANDARD_2} (0.5, 0.5)"),
    ("mi", {"nmi_bins": 1}, "must be >= 2, got 1"),
    ("nmi", {"nmi_bins": 1}, "must be >= 2, got 1"),
])
def test_invalid_metric_knob_raises_config_error(pair, metric_id, knobs, message):
    ref, test = pair
    with pytest.raises(ConfigError, match=re.escape(message)):
        evaluate(metric_id, ref, test, EvalContext(**knobs))
