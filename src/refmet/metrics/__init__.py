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
take ``(ref, test, ctx)``, ``information.mi`` and ``nmi`` take
``(ref_vals, test_vals, ctx)``, and each resolves what it needs from
``ctx`` (the data range L from ``ctx.range_policy``, as psnr does).

The ``ctx`` a metric receives is an :class:`EvalContext`, often a
``harness.EvalPlan``. Built-in metrics read only its ``range_policy``,
``scales`` and ``nmi_bins``, and ``EvalContext`` checks the last two once,
when it is built. Nothing else about them is settable: the MS-SSIM weights
(the standard ones cut to ``scales``), the SSIM window and constants, the
CW-SSIM filter bank and the per-image histogram range are fixed, and each
score's fingerprint prints them.

ssim and ms_ssim reuse work across calls through one per-thread memo keyed
on bits (see :mod:`.structural`): the last reference's SSIM moments serve
all its tests, and ms_ssim reuses ssim's scale 0 on the last pair. It keeps
that reference's pyramid and test alive until the next reference on the
thread, and it never moves a bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError, NonRectangularMaskError, RefmetError, check_int
from ..image import Image, Mask, bounding_box, crop, require_same_shape
from ..normalize import DataRangePolicy
from .information import mi, nmi
from .overlap import dice
from .pointwise import mae_values, mse_values, pcc_values, psnr_score
from .score import MetricScore, fingerprint, format_score
from .structural import ms_ssim, ssim, truncated_weights
from .wavelet import cw_ssim

__all__ = [
    "MetricScore", "fingerprint", "format_score",
    "ssim", "ms_ssim", "cw_ssim", "dice",
    "EvalContext", "evaluate", "masked_evaluate",
    "METRIC_IDS", "metric_kind", "truncated_weights",
]


@dataclass(frozen=True)
class EvalContext:
    """The knobs a string-keyed evaluation reads, each checked here once:
    ``scales`` is the MS-SSIM scale count (1..5) and ``nmi_bins`` the mi/nmi
    joint-histogram bin count (at least 2). Both must be integers, Python or
    numpy; a float or a bool is a ConfigError naming the field. ms_ssim always
    weights its scales with ``truncated_weights(scales)``; ``weights``, if
    given, must equal them, and the context keeps ``None``."""

    range_policy: DataRangePolicy = field(default_factory=DataRangePolicy.joint)
    scales: int = 5
    weights: tuple[float, ...] | None = None
    nmi_bins: int = 256

    def __post_init__(self):
        check_int(self.scales, "plan field 'scales'")
        check_int(self.nmi_bins, "plan field 'nmi_bins'")
        if self.nmi_bins < 2:
            raise ConfigError(f"plan field 'nmi_bins' must be >= 2, got {self.nmi_bins}")
        standard = truncated_weights(self.scales)
        if self.weights is not None and tuple(self.weights) != standard:
            raise ConfigError(f"weights for {self.scales} scales must be the standard "
                              f"{standard}, got {tuple(self.weights)}")
        object.__setattr__(self, "weights", None)


def _task_similarity(ref, test, ctx):
    # Imported per call: downstream imports this package, and perfbench hooks it there.
    from ..downstream import task_similarity
    return task_similarity(ref, test)


# id -> (kind, fn). A pointwise fn is fn(ref_vals, test_vals, ctx) over two
# equal-shape value arrays (the full data, or the masked values); a windowed
# fn is fn(ref, test, ctx) over Images. METRIC_IDS and the
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
    "cw_ssim": ("windowed", lambda r, t, ctx: cw_ssim(r, t)),
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
             ctx: EvalContext | None = None) -> MetricScore:
    """Evaluate one metric on a full image pair."""
    ctx = ctx or EvalContext()
    kind, fn = _lookup(metric_id)
    if kind == "pointwise":
        require_same_shape(ref, test)
        return fn(ref.data, test.data, ctx)
    return fn(ref, test, ctx)


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

