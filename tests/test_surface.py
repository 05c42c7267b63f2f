"""The public surface is pinned: every name a refmet module exports exists,
and ``refmet.metrics`` exports exactly the list below. Scoring is by id
through ``evaluate``/``masked_evaluate``; the kernels behind them stay."""

import importlib
import pkgutil

import pytest

import refmet
import refmet.metrics

MODULES = sorted(m.name for m in pkgutil.walk_packages(refmet.__path__, "refmet.")
                 if m.name != "refmet.__main__")

METRICS_ALL = [
    "MetricScore", "fingerprint", "format_score",
    "ssim", "ms_ssim", "cw_ssim", "dice",
    "EvalContext", "evaluate", "masked_evaluate",
    "METRIC_IDS", "metric_kind", "truncated_weights",
]


def test_metrics_exports_exactly():
    assert refmet.metrics.__all__ == METRICS_ALL


@pytest.mark.parametrize("name", ["refmet", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
