"""The traced benchmark wraps refmet functions by module attribute; every
attribute it names must exist, and the calls it times must go through them,
or a refactor breaks the traced run."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    # Executed from its source text, so nothing is imported from or written
    # next to the benchmark.
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def _hooks():
    return [(module, attr) for module, attr, _ in _tracer()["HOOKS"]]


@pytest.mark.parametrize("module, attr", _hooks())
def test_hook_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_compare_metrics_are_traced_once(tmp_path, capsys):
    from refmet.cli import main
    from refmet.distort import translate
    from refmet.image import save_image
    from refmet.phantom import generate_phantom

    ref = generate_phantom(1000).image
    save_image(ref, tmp_path / "ref.rawf32")
    save_image(translate(ref, (2, 0)), tmp_path / "test.rawf32")
    tracer = _tracer()["Tracer"]()
    with tracer.installed():
        rc = main(["compare", str(tmp_path / "ref.rawf32"), str(tmp_path / "test.rawf32"),
                   "--metrics", "mae,ssim"])
    assert rc == 0, capsys.readouterr().err
    names = [sp.name for sp in tracer.spans]
    assert (names.count("metrics.mae"), names.count("metrics.ssim")) == (1, 1)
