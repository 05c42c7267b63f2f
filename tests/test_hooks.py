"""The traced benchmark wraps refmet functions by module attribute; every
attribute it names must exist, or a refactor breaks the traced run."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks():
    # Executed from its source text, so nothing is imported from or written
    # next to the benchmark.
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return [(module, attr) for module, attr, _ in namespace["HOOKS"]]


@pytest.mark.parametrize("module, attr", _hooks())
def test_hook_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
