"""Reference-metric table and masked/cropped evaluation semantics.

Metric identifiers (exact strings) are ``METRIC_IDS``.

Metrics come in three kinds:

* ``pointwise`` metrics read co-located intensity pairs and accept any
  non-empty mask (evaluation restricted to masked locations).
* ``windowed`` metrics combine neighboring pixels and accept only masks
  that are exactly a filled rectangle; rectangular-mask evaluation is
  bit-identical to evaluating on the cropped images.
* ``mask`` metrics (dice) compare boolean grids directly.

Scores are made by id through :func:`evaluate` or :func:`masked_evaluate`;
``ssim``, ``ms_ssim``, ``cw_ssim`` and ``dice`` are the kernels they call.

The ``ctx`` a metric receives is an :class:`EvalContext`, often a
``harness.EvalPlan``. Built-in metrics read only its ``range_policy``,
``scales``, ``weights`` and ``nmi_bins``. Nothing else about them is
settable: the SSIM window and constants, the CW-SSIM filter bank and the
per-image histogram range are fixed, and each score's fingerprint prints
them.

:func:`evaluate` takes an optional :class:`RefWorkspace` that the caller
keeps across calls, so ssim and ms_ssim reuse one reference's SSIM moments
for all its tests and ms_ssim reuses ssim's scale 0 on one pair, without
moving a bit. The harness keeps one per scenario run; it holds one
reference and one test at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ..errors import ConfigError, NonRectangularMaskError, RefmetError
from ..image import Image, Mask, bounding_box, crop, mask_from_image, require_same_shape
from ..normalize import DataRangePolicy, resolve_data_range_values
from .information import HistogramParams, mi_values, nmi_values
from .overlap import dice
from .pointwise import mae_values, mse_values, pcc_values, psnr_score
from .score import MetricScore, fingerprint, format_score, merge_fingerprints
from .structural import (MsSsimParams, RefWorkspace, SsimParams, ms_ssim, ssim,
                         truncated_weights)
from .wavelet import cw_ssim

__all__ = [
    "MetricScore", "fingerprint", "format_score",
    "SsimParams", "MsSsimParams", "HistogramParams",
    "ssim", "ms_ssim", "cw_ssim", "dice",
    "EvalContext", "evaluate", "masked_evaluate", "RefWorkspace",
    "METRIC_IDS", "metric_kind", "truncated_weights",
]


@dataclass(frozen=True)
class EvalContext:
    """The knobs a string-keyed evaluation reads. ``weights=None`` means the
    standard MS-SSIM weights truncated to ``scales``; ``nmi_bins`` is the
    mi/nmi joint-histogram bin count."""

    range_policy: DataRangePolicy = field(default_factory=DataRangePolicy.joint)
    scales: int = 5
    weights: tuple[float, ...] | None = None
    nmi_bins: int = 256


def _with_policy(score: MetricScore, ctx: EvalContext) -> MetricScore:
    return replace(score, params_fingerprint=merge_fingerprints(
        score.params_fingerprint,
        fingerprint(range_policy=ctx.range_policy.spec_string())))


def _ssim_params(ref: Image, test: Image, ctx: EvalContext) -> SsimParams:
    return SsimParams(resolve_data_range_values(ref.data, test.data, ctx.range_policy))


def _eval_ssim(ref, test, ctx, ws=None):
    return _with_policy(ssim(ref, test, _ssim_params(ref, test, ctx), ws), ctx)


def _eval_ms_ssim(ref, test, ctx, ws=None):
    weights = truncated_weights(ctx.scales) if ctx.weights is None else ctx.weights
    params = MsSsimParams(_ssim_params(ref, test, ctx), ctx.scales, weights)
    return _with_policy(ms_ssim(ref, test, params, ws), ctx)


def _eval_dice(ref, test, ctx, ws=None):
    return dice(mask_from_image(ref), mask_from_image(test))


def _histogram_metric(metric_id, values_fn):
    def fn(r, t, ctx):
        hist = HistogramParams(bins=ctx.nmi_bins)
        return MetricScore(metric_id, values_fn(r, t, hist), hist.fingerprint())
    return fn


# id -> (kind, fn). A pointwise fn is fn(ref_vals, test_vals, ctx) over two
# equal-shape value arrays (the full data, or the masked values); windowed
# and mask fns are fn(ref, test, ctx, ws=None) over Images. METRIC_IDS and
# the unknown-metric error print this order.
_METRICS: dict[str, tuple[str, Callable[..., MetricScore]]] = {
    "mae": ("pointwise", lambda r, t, ctx: MetricScore("mae", mae_values(r, t))),
    "mse": ("pointwise", lambda r, t, ctx: MetricScore("mse", mse_values(r, t))),
    "psnr": ("pointwise", lambda r, t, ctx: psnr_score(r, t, ctx.range_policy)),
    "pcc": ("pointwise", lambda r, t, ctx: MetricScore("pcc", pcc_values(r, t))),
    "mi": ("pointwise", _histogram_metric("mi", mi_values)),
    "nmi": ("pointwise", _histogram_metric("nmi", nmi_values)),
    "ssim": ("windowed", _eval_ssim),
    "ms_ssim": ("windowed", _eval_ms_ssim),
    "cw_ssim": ("windowed", lambda r, t, ctx, ws=None: cw_ssim(r, t)),
    "dice": ("mask", _eval_dice),
}
METRIC_IDS = tuple(_METRICS)


def _lookup(metric_id: str) -> tuple[str, Callable[..., MetricScore]]:
    try:
        return _METRICS[metric_id]
    except KeyError:
        raise ConfigError(f"unknown metric {metric_id!r}") from None


def metric_kind(metric_id: str) -> str:
    return _lookup(metric_id)[0]


def evaluate(metric_id: str, ref: Image, test: Image,
             ctx: EvalContext | None = None,
             ws: RefWorkspace | None = None) -> MetricScore:
    """Evaluate one metric on a full image pair. ``ws``, a
    workspace kept across calls, lets ssim and ms_ssim reuse the reference's
    moments and each other's scale 0; other metrics ignore it."""
    ctx = ctx or EvalContext()
    kind, fn = _lookup(metric_id)
    if kind == "pointwise":
        require_same_shape(ref, test)
        return fn(ref.data, test.data, ctx)
    return fn(ref, test, ctx, ws)


def rect_of_mask(m: Mask):
    """The filled Rect a mask represents, or None if it is not rectangular."""
    if not m.data.any():
        return None
    rect = bounding_box(m)
    if m.count() != int(np.prod(rect.extent)):
        return None
    return rect


def masked_evaluate(metric_id: str, ref: Image, test: Image, m: Mask,
                    ctx: EvalContext | None = None) -> MetricScore:
    """Evaluate a metric restricted to masked locations.

    Pointwise metrics use exactly the masked intensity pairs (N = |mask|).
    Windowed metrics require the mask to be a filled rectangle and
    evaluate on the cropped images, bit-identical to cropping explicitly.
    """
    ctx = ctx or EvalContext()
    kind, fn = _lookup(metric_id)
    require_same_shape(ref, test)
    require_same_shape(ref, m)
    if not m.data.any():
        raise RefmetError("evaluation mask is empty")
    if kind == "mask":
        raise ConfigError(f"metric {metric_id!r} compares masks; "
                          "masked image evaluation does not apply")
    if kind == "pointwise":
        sel = m.data
        return fn(ref.data[sel], test.data[sel], ctx)
    rect = rect_of_mask(m)
    if rect is None:
        raise NonRectangularMaskError(
            f"{metric_id} combines neighboring pixels and supports only masks that "
            "are exactly a filled rectangle (evaluated as a crop); "
            "use a pointwise metric or a rectangular mask")
    return fn(crop(ref, rect), crop(test, rect), ctx)

