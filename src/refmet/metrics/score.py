"""Metric result type and canonical parameter fingerprints."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DegenerateRangeError

__all__ = ["MetricScore", "fingerprint", "format_score"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def fingerprint(**params) -> str:
    """Canonical ``key=value`` list, sorted by key, semicolon-separated."""
    return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))


def merge_fingerprints(*parts: str) -> str:
    """Merge fingerprint fragments, re-sorting the combined key set."""
    items = []
    for part in parts:
        if part:
            items.extend(part.split(";"))
    return ";".join(sorted(items, key=lambda kv: kv.split("=", 1)[0]))


def format_score(value: float) -> str:
    """Stable text form of a score; infinity serializes as ``inf``."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


def finite_value(metric_id: str, value: float) -> float:
    """``value``, or a DegenerateRangeError naming ``metric_id`` when it is not
    finite: on finite images, a windowed sum overflowed float64."""
    if not math.isfinite(value):
        raise DegenerateRangeError(
            f"{metric_id} undefined: its windowed sums overflow float64 (score {value})")
    return value


@dataclass(frozen=True)
class MetricScore:
    """A metric value plus enough parameter context to reproduce it."""

    metric_id: str
    value: float
    params_fingerprint: str = ""
