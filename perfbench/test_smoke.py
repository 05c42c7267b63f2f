"""Smoke test of the benchmark itself: every workload tiny, untraced and traced.

Outside the tier-1 ``testpaths``; run from the repository root with
``python -m pytest perfbench -q`` (about a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    res = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert res.returncode == 0, res.stderr
    record, result = (json.loads(line) for line in res.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["notes"].get("failures")
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [d["name"] for d in SPEC[kind]]
    units = {d["name"]: d["unit"] for d in SPEC[kind]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0 if not trace else metric["value"] >= 0, name
    env = record["environment"]
    assert env["seed"] == 3 and env["workload"] == workload
    assert {"refmet", "numpy", "scipy", "python", "cpu_count", "nproc",
            "thread_env", "openblas", "git_commit"} <= set(env)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run(tmp_path, "--workload", "audit", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert res.returncode != 0
    assert res.stdout == ""
