"""scripts/bench_record.py on synthetic perfbench run records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

METRICS = {"setup_s": "s", "latency_p50_ms": "ms", "pairs_per_s": "1/s",
           "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def _write(results, workload, seed, latency, commit, numpy="2.4.6", smoke=False,
           source="src-sha"):
    env = {"workload": workload, "seed": seed, "refmet": "0.1.0", "numpy": numpy,
           "python": "3.11.7", "cpu_count": 2, "thread_env": {"OMP_NUM_THREADS": None},
           "git_commit": commit, "source_sha256": source}
    values = {"setup_s": 0.5, "latency_p50_ms": latency, "pairs_per_s": 1e3 / latency,
              "peak_rss_mb": 70.0, "ok_ratio": 1.0}
    record = {"environment": env, "smoke": smoke, "trace": 0, "notes": {},
              "result": {"correct": True, "attempted": 3, "failed": 0,
                         "metrics": {k: {"value": v, "unit": METRICS[k]}
                                     for k, v in values.items()}}}
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}_seed{seed}_trace0{'_smoke' if smoke else ''}.json"
    (results / name).write_text(json.dumps(record))


@pytest.fixture()
def sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in zip((1, 2, 3, 4, 5), ((100, 90), (110, 95), (120, 125),
                                              (130, 80), (140, 85))):
        _write(parent, "compare_cli", seed, p, "aaa", source="sha-a")
        _write(change, "compare_cli", seed, c, "bbb", source="sha-b")
        _write(parent, "audit", seed, 1000 + seed, "aaa", source="sha-a")
        _write(change, "audit", seed, 1000 + seed, "bbb", source="sha-b")
    # Smoke records are not benchmark runs and have no partner.
    _write(change, "score_large", 9, 5.0, "bbb", source="sha-b", smoke=True)
    return parent, change


def _run(capsys, parent, change):
    code = bench_record.main([str(parent), str(change), "--pr", "42",
                              "--layer", "correlation kernel"])
    out, err = capsys.readouterr()
    return code, out, err


def test_summarizes_pairs_per_workload_and_metric(capsys, sides):
    code, out, _ = _run(capsys, *sides)
    assert code == 0
    bench = json.loads(out)
    assert (bench["pr"], bench["layer"]) == (42, "correlation kernel")
    assert bench["parent"] == {"git_commit": "aaa", "source_sha256": "sha-a"}
    assert bench["change"] == {"git_commit": "bbb", "source_sha256": "sha-b"}
    assert bench["environment"]["numpy"] == "2.4.6"
    assert "seed" not in bench["environment"] and "workload" not in bench["environment"]
    assert sorted(bench["workloads"]) == ["audit", "compare_cli"]
    cli = bench["workloads"]["compare_cli"]
    assert cli["seeds"] == [1, 2, 3, 4, 5]
    assert cli["correct_runs"] == {"parent": 5, "change": 5}
    assert set(cli["metrics"]) == set(METRICS)
    latency = cli["metrics"]["latency_p50_ms"]
    assert (latency["unit"], latency["better"], latency["pairs"]) == ("ms", "lower", 5)
    assert latency["change_better"] == 4
    assert latency["parent"] == {"median": 120, "q1": 105.0, "q3": 135.0}
    assert latency["change"]["median"] == 90
    # Higher is better for throughput: the same four pairs win.
    assert cli["metrics"]["pairs_per_s"]["change_better"] == 4
    # Ties are not wins.
    assert cli["metrics"]["peak_rss_mb"]["change_better"] == 0
    assert bench["workloads"]["audit"]["metrics"]["latency_p50_ms"]["change_better"] == 0


def test_refuses_sides_from_different_environments(capsys, sides):
    parent, change = sides
    _write(change, "compare_cli", 3, 125, "bbb", source="sha-b", numpy="2.5.0")
    code, out, err = _run(capsys, parent, change)
    assert code == 1 and out == ""
    assert err.startswith("bench_record: error: environment outside commit")


def test_refuses_a_side_with_two_commits(capsys, sides):
    parent, change = sides
    _write(parent, "audit", 2, 1002, "ccc", source="sha-a")
    code, _, err = _run(capsys, parent, change)
    assert code == 1
    assert "parent git_commit" in err


def test_refuses_a_side_with_two_sources(capsys, sides):
    parent, change = sides
    _write(change, "audit", 2, 1002, "bbb", source="sha-c")
    code, _, err = _run(capsys, parent, change)
    assert code == 1
    assert "change source_sha256" in err


def test_refuses_a_run_without_partner(capsys, sides):
    parent, change = sides
    _write(parent, "audit", 6, 1006, "aaa", source="sha-a")
    code, _, err = _run(capsys, parent, change)
    assert code == 1
    assert "('audit', 6)" in err


def test_refuses_an_empty_side(capsys, sides, tmp_path):
    code, _, err = _run(capsys, sides[0], tmp_path / "empty")
    assert code == 1
    assert "no untraced non-smoke run records" in err
