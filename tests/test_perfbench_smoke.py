"""perfbench imports and calls refmet names that no hook covers (``Row``,
``format_score``, ``reevaluate_row``, ``EvalContext(weights=)``,
``truncated_weights``, ...), and its own smoke test sits outside
``testpaths``. Run every workload tiny and untraced against a copy of the
sources, so removing such a name fails here; the copy also keeps the
repository's ``.perfbench_run/`` untouched."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke_run_is_correct(bench_copy, workload):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=bench_copy, capture_output=True, text=True, timeout=180)
    assert res.returncode == 0, res.stderr[-4000:]
    record, result = (json.loads(line) for line in res.stdout.splitlines()[-2:])
    assert result["correct"], record["notes"].get("failures")
    assert result["failed"] == 0
