#!/usr/bin/env python3
"""Turn parent and change perfbench records into one BENCH file.

Reads the untraced, non-smoke run records (``*_trace0.json``) that
``perfbench/run.py`` writes to ``.perfbench_run/results/`` in two
checkouts, one of the parent commit and one of the change, and prints a
JSON summary:

* per workload and end-to-end metric of ``BENCHMARK.json``: the median and
  quartiles of each side, the number of (workload, seed) pairs, and in how
  many of them the change was better;
* the environment both sides ran in, each side's commit and source sha256,
  and the layer the change moved.

It refuses records that do not make a fair comparison: one side with more
than one commit or source sha256, sides that differ in anything else of
the environment (versions, CPUs, thread variables, BLAS build), or a run
without its partner of the same workload and seed on the other side.

    python scripts/bench_record.py PARENT/.perfbench_run/results \\
        CHANGE/.perfbench_run/results --pr N --layer "..." > BENCH_N.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PROGRAM_KEYS = ("git_commit", "source_sha256")
RUN_KEYS = ("workload", "seed")


class RecordError(Exception):
    pass


def load_side(results: Path) -> dict[tuple[str, int], dict]:
    """Untraced records of one side, keyed by (workload, seed); the pattern
    leaves out smoke runs, which are written as ``*_trace0_smoke.json``."""
    records = {}
    for path in sorted(Path(results).glob("*_trace0.json")):
        record = json.loads(path.read_text())
        env = record["environment"]
        records[env["workload"], env["seed"]] = record
    if not records:
        raise RecordError(f"no untraced non-smoke run records in {results}")
    return records


def _one(values: set, what: str):
    if len(values) != 1:
        raise RecordError(f"{what}: expected one value, found {sorted(map(str, values))}")
    return values.pop()


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def bench_record(parent: dict, change: dict, spec: dict, pr: int, layer: str) -> dict:
    sides = dict(zip(SIDES, (parent, change)))
    unpaired = sorted(set(parent) ^ set(change))
    if unpaired:
        raise RecordError(f"runs without a partner on the other side: {unpaired}")
    programs = {}
    for side, records in sides.items():
        programs[side] = {key: _one({r["environment"][key] for r in records.values()},
                                    f"{side} {key}") for key in PROGRAM_KEYS}
    shared = _one({json.dumps({k: v for k, v in r["environment"].items()
                               if k not in PROGRAM_KEYS + RUN_KEYS}, sort_keys=True)
                   for records in sides.values() for r in records.values()},
                  "environment outside commit, source, workload and seed")
    workloads = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload)
        runs = {side: [records[workload, s]["result"] for s in seeds]
                for side, records in sides.items()}
        metrics = {}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                      for side, rs in runs.items()}
            sign = 1 if m["better"] == "higher" else -1
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "pairs": len(seeds),
                "change_better": sum(sign * (c - p) > 0 for p, c in
                                     zip(values["parent"], values["change"])),
                **{side: _quartiles(v) for side, v in values.items()},
            }
        workloads[workload] = {
            "seeds": seeds,
            "correct_runs": {side: sum(r["correct"] for r in rs) for side, rs in runs.items()},
            "metrics": metrics,
        }
    return {"pr": pr, "layer": layer, "environment": json.loads(shared),
            **programs, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_results", type=Path)
    parser.add_argument("change_results", type=Path)
    parser.add_argument("--pr", type=int, required=True, help="number of the BENCH file")
    parser.add_argument("--layer", required=True, help="the layer the change moved")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        out = bench_record(load_side(args.parent_results), load_side(args.change_results),
                           spec, args.pr, args.layer)
    except RecordError as exc:
        print(f"bench_record: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
