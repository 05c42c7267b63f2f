"""The micro-benchmarks in ``benchmarks/`` sit outside ``testpaths``, so an
API they call can vanish without any tier-1 test failing. Run them once,
untimed, and require a clean exit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmarks_pass_untimed():
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-2000:]
