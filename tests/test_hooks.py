"""The traced benchmark wraps refmet functions by module attribute; every
attribute it names must exist, and the calls it times must go through them,
or a refactor breaks the traced run."""

import functools
import importlib
import json
import subprocess
import sys
import threading
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


def test_every_hooked_call_runs_on_the_main_thread(tmp_path, monkeypatch, capsys, two_cpus):
    # The tracer's span stack is not thread-safe, so cw_ssim's worker must
    # run none of the names it hooks.
    from refmet.cli import main
    calls = []

    def recorder(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in _hooks():
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, recorder(attr, getattr(mod, attr)))
    config = tmp_path / "audit.json"
    config.write_text(json.dumps({"phantoms": {"count": 2}}))
    rc = main(["audit", "--scenario", "all", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    assert any(th.name.startswith("refmet-cw_ssim") for th in threading.enumerate())
    # task_similarity: the metric table must look dice up per call, or the
    # hook on refmet.downstream never sees it.
    assert {name for name, _ in calls} >= {"run_scenario", "evaluate", "ssim_and_cs",
                                           "task_similarity"}
    off_main = {name for name, th in calls if th is not threading.main_thread()}
    assert not off_main


_IMPORT_CHILD = """
import sys, threading
import refmet.cli
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""


def test_import_starts_no_thread_and_loads_no_pool():
    # compare_cli times the import: cw_ssim's worker is made on first use.
    out = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["1", "False"]
