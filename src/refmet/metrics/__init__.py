"""Reference-metric registry and masked/cropped evaluation semantics.

Metric identifiers (exact strings): ``mae``, ``mse``, ``psnr``, ``ssim``,
``ms_ssim``, ``cw_ssim``, ``pcc``, ``mi``, ``nmi``, ``dice``.

Metrics come in three kinds:

* ``pointwise`` metrics read co-located intensity pairs and accept any
  non-empty mask (evaluation restricted to masked locations).
* ``windowed`` metrics combine neighboring pixels and accept only masks
  that are exactly a filled rectangle; rectangular-mask evaluation is
  bit-identical to evaluating on the cropped images.
* ``mask`` metrics (dice) compare boolean grids directly.

``register_metric`` is the extension point for attaching additional
(e.g. learned) metrics under the same evaluation semantics.

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
from .information import HistogramParams, mi, mi_values, nmi, nmi_values
from .overlap import dice
from .pointwise import (mae, mae_values, mse, mse_values, pcc, pcc_values,
                        psnr, psnr_score)
from .score import MetricScore, fingerprint, format_score, merge_fingerprints
from .structural import (MsSsimParams, RefWorkspace, SsimParams, ms_ssim, ssim,
                         truncated_weights)
from .wavelet import cw_ssim

__all__ = [
    "MetricScore", "fingerprint", "format_score",
    "SsimParams", "MsSsimParams", "HistogramParams",
    "mae", "mse", "psnr", "pcc", "ssim", "ms_ssim", "cw_ssim", "mi", "nmi", "dice",
    "EvalContext", "evaluate", "masked_evaluate", "RefWorkspace",
    "register_metric",
    "metric_kind", "registered_metrics", "truncated_weights",
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


def _eval_dice(ref, test, ctx):
    return dice(mask_from_image(ref), mask_from_image(test))


@dataclass(frozen=True)
class MetricDef:
    metric_id: str
    kind: str  # pointwise | windowed | mask
    fn: Callable[..., MetricScore]
    # fn takes the caller's RefWorkspace (or None) as a fourth argument
    takes_workspace: bool = False


_REGISTRY: dict[str, MetricDef] = {}


def register_metric(metric_id: str, fn, kind: str) -> None:
    """Attach a metric under the standard evaluation/masking semantics.

    A ``pointwise`` metric is ``fn(ref_vals, test_vals, ctx)`` over two
    equal-shape value arrays: :func:`evaluate` passes ``ref.data`` and
    ``test.data``, :func:`masked_evaluate` passes the 1-D arrays of masked
    values. ``windowed`` and ``mask`` metrics are ``fn(ref, test, ctx)``
    over :class:`~refmet.image.Image` objects. ``ctx`` is the
    :class:`EvalContext` given to :func:`evaluate` or
    :func:`masked_evaluate`, often a ``harness.EvalPlan``.
    """
    if kind not in ("pointwise", "windowed", "mask"):
        raise ConfigError(f"unknown metric kind {kind!r}")
    _REGISTRY[metric_id] = MetricDef(metric_id, kind, fn)


def _histogram_metric(metric_id, values_fn):
    def fn(r, t, ctx):
        hist = HistogramParams(bins=ctx.nmi_bins)
        return MetricScore(metric_id, values_fn(r, t, hist), hist.fingerprint())
    return fn


register_metric("mae", lambda r, t, ctx: MetricScore("mae", mae_values(r, t)),
                "pointwise")
register_metric("mse", lambda r, t, ctx: MetricScore("mse", mse_values(r, t)),
                "pointwise")
register_metric("psnr", lambda r, t, ctx: psnr_score(r, t, ctx.range_policy),
                "pointwise")
register_metric("pcc", lambda r, t, ctx: MetricScore("pcc", pcc_values(r, t)),
                "pointwise")
register_metric("mi", _histogram_metric("mi", mi_values), "pointwise")
register_metric("nmi", _histogram_metric("nmi", nmi_values), "pointwise")
_REGISTRY["ssim"] = MetricDef("ssim", "windowed", _eval_ssim, takes_workspace=True)
_REGISTRY["ms_ssim"] = MetricDef("ms_ssim", "windowed", _eval_ms_ssim,
                                 takes_workspace=True)
register_metric("cw_ssim", lambda r, t, ctx: cw_ssim(r, t), "windowed")
register_metric("dice", _eval_dice, "mask")


def registered_metrics() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _lookup(metric_id: str) -> MetricDef:
    try:
        return _REGISTRY[metric_id]
    except KeyError:
        raise ConfigError(f"unknown metric {metric_id!r}") from None


def metric_kind(metric_id: str) -> str:
    return _lookup(metric_id).kind


def evaluate(metric_id: str, ref: Image, test: Image,
             ctx: EvalContext | None = None,
             ws: RefWorkspace | None = None) -> MetricScore:
    """Evaluate one registered metric on a full image pair. ``ws``, a
    workspace kept across calls, lets ssim and ms_ssim reuse the reference's
    moments and each other's scale 0; other metrics ignore it."""
    ctx = ctx or EvalContext()
    mdef = _lookup(metric_id)
    if mdef.kind == "pointwise":
        require_same_shape(ref, test)
        return mdef.fn(ref.data, test.data, ctx)
    if mdef.takes_workspace:
        return mdef.fn(ref, test, ctx, ws)
    return mdef.fn(ref, test, ctx)


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
    mdef = _lookup(metric_id)
    require_same_shape(ref, test)
    require_same_shape(ref, m)
    if not m.data.any():
        raise RefmetError("evaluation mask is empty")
    if mdef.kind == "mask":
        raise ConfigError(f"metric {metric_id!r} compares masks; "
                          "masked image evaluation does not apply")
    if mdef.kind == "pointwise":
        sel = m.data
        return mdef.fn(ref.data[sel], test.data[sel], ctx)
    rect = rect_of_mask(m)
    if rect is None:
        raise NonRectangularMaskError(
            f"{metric_id} combines neighboring pixels and supports only masks that "
            "are exactly a filled rectangle (evaluated as a crop); "
            "use a pointwise metric or a rectangular mask")
    return mdef.fn(crop(ref, rect), crop(test, rect), ctx)

