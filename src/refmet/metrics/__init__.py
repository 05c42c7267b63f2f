"""Reference-metric table and masked/cropped evaluation semantics.

Metric identifiers (exact strings) are ``METRIC_IDS``.

Metrics come in two kinds:

* ``pointwise`` metrics read co-located intensity pairs and accept any
  non-empty mask (evaluation restricted to masked locations).
* ``windowed`` metrics (``dice``, the proxy task of :mod:`refmet.downstream`,
  among them) combine neighboring pixels and accept only masks that are
  exactly a filled rectangle; rectangular-mask evaluation is bit-identical
  to evaluating on the cropped images.

Scores are made by id through :func:`evaluate` or :func:`masked_evaluate`.
The metric table lists the kernels themselves: ``ssim`` and ``ms_ssim``
take ``(ref, test, ctx, ws=None)``, ``information.mi`` and ``nmi`` take
``(ref_vals, test_vals, ctx)``, and each resolves what it needs from
``ctx`` (the data range L from ``ctx.range_policy``, as psnr does).

The ``ctx`` a metric receives is an :class:`EvalContext`, often a
``harness.EvalPlan``. Built-in metrics read only its ``range_policy``,
``scales``, ``weights`` and ``nmi_bins``, and ``EvalContext`` checks the
last three once, when it is built. Nothing else about them is settable:
the SSIM window and constants, the CW-SSIM filter bank and the per-image
histogram range are fixed, and each score's fingerprint prints them.

:func:`evaluate` takes an optional :class:`RefWorkspace` that the caller
keeps across calls, so ssim and ms_ssim reuse one reference's SSIM moments
for all its tests; the harness keeps one per scenario run, and it holds
one reference at a time. With or without one, ms_ssim reuses ssim's scale
0 on one pair: it is kept per thread for the last pair, keyed on the bits
of both images and L, which keeps that pair alive. Neither moves a bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError, NonRectangularMaskError, RefmetError
from ..image import Image, Mask, bounding_box, crop, require_same_shape
from ..normalize import DataRangePolicy
from .information import mi, nmi
from .overlap import dice
from .pointwise import mae_values, mse_values, pcc_values, psnr_score
from .score import MetricScore, fingerprint, format_score
from .structural import DEFAULT_MSSSIM_WEIGHTS, RefWorkspace, ms_ssim, ssim, truncated_weights
from .wavelet import cw_ssim

__all__ = [
    "MetricScore", "fingerprint", "format_score",
    "ssim", "ms_ssim", "cw_ssim", "dice",
    "EvalContext", "evaluate", "masked_evaluate", "RefWorkspace",
    "METRIC_IDS", "metric_kind", "truncated_weights",
]


@dataclass(frozen=True)
class EvalContext:
    """The knobs a string-keyed evaluation reads, each checked here once.
    ``weights=None`` means the standard MS-SSIM weights truncated to
    ``scales``; ``nmi_bins`` is the mi/nmi joint-histogram bin count."""

    range_policy: DataRangePolicy = field(default_factory=DataRangePolicy.joint)
    scales: int = 5
    weights: tuple[float, ...] | None = None
    nmi_bins: int = 256

    def __post_init__(self):
        if self.nmi_bins < 2:
            raise ConfigError(f"plan field 'nmi_bins' must be >= 2, got {self.nmi_bins}")
        if self.weights is None:
            if not 1 <= self.scales <= len(DEFAULT_MSSSIM_WEIGHTS):
                raise ConfigError(f"scales must be in 1..{len(DEFAULT_MSSSIM_WEIGHTS)}")
            return
        if self.scales < 1:
            raise ConfigError("scales must be >= 1")
        if len(self.weights) != self.scales:
            raise ConfigError(f"need one weight per scale: {len(self.weights)} weights, "
                              f"{self.scales} scales")
        if any(w <= 0 for w in self.weights):
            raise ConfigError("weights must be positive")
        # 1e-3 slack: the standard published weights sum to 1.0001.
        if abs(sum(self.weights) - 1.0) > 1e-3:
            raise ConfigError(f"weights must sum to 1, got {sum(self.weights)}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


def _task_similarity(ref, test, ctx, ws=None):
    # Imported per call: downstream imports this package, and perfbench hooks it there.
    from ..downstream import task_similarity
    return task_similarity(ref, test)


# id -> (kind, fn). A pointwise fn is fn(ref_vals, test_vals, ctx) over two
# equal-shape value arrays (the full data, or the masked values); a windowed
# fn is fn(ref, test, ctx, ws=None) over Images. METRIC_IDS and the
# unknown-metric error print this order.
_METRICS: dict[str, tuple[str, Callable[..., MetricScore]]] = {
    "mae": ("pointwise", lambda r, t, ctx: MetricScore("mae", mae_values(r, t))),
    "mse": ("pointwise", lambda r, t, ctx: MetricScore("mse", mse_values(r, t))),
    "psnr": ("pointwise", lambda r, t, ctx: psnr_score(r, t, ctx.range_policy)),
    "pcc": ("pointwise", lambda r, t, ctx: MetricScore("pcc", pcc_values(r, t))),
    "mi": ("pointwise", mi),
    "nmi": ("pointwise", nmi),
    "ssim": ("windowed", ssim),
    "ms_ssim": ("windowed", ms_ssim),
    "cw_ssim": ("windowed", lambda r, t, ctx, ws=None: cw_ssim(r, t)),
    "dice": ("windowed", _task_similarity),
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
    moments; other metrics ignore it."""
    ctx = ctx or EvalContext()
    kind, fn = _lookup(metric_id)
    if kind == "pointwise":
        require_same_shape(ref, test)
        return fn(ref.data, test.data, ctx)
    return fn(ref, test, ctx, ws)


def rect_of_mask(m: Mask):
    """The filled Rect a non-empty mask represents, or None if it is not rectangular."""
    rect = bounding_box(m)
    return rect if m.count() == int(np.prod(rect.extent)) else None


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
    if kind == "pointwise":
        return fn(ref.data[m.data], test.data[m.data], ctx)
    rect = rect_of_mask(m)
    if rect is None:
        raise NonRectangularMaskError(
            f"{metric_id} combines neighboring pixels and supports only masks that "
            "are exactly a filled rectangle (evaluated as a crop); "
            "use a pointwise metric or a rectangular mask")
    return fn(crop(ref, rect), crop(test, rect), ctx)

