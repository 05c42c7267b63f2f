"""refmet benchmark: one workload, one closed-loop client, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
untraced; ``--trace 1`` makes a separate traced run and reports the
per-layer metrics. ``--smoke`` runs the workload tiny, for the benchmark's
own test. The last stdout line is the result object; the line before it
holds the environment record and diagnostics, which are also written to
``.perfbench_run/results/`` (with the spans of a traced run). Outputs are
checked outside the timed region; any failure shows in ``failed`` and
``correct``.

The benchmark never sets BLAS or OpenMP thread variables; it records them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import ROOT, WORK, environment

WORKLOADS = ("audit", "compare_cli", "score_large")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, a few operations (seconds per workload)")
    return p.parse_args(argv)


def _summary(workload: str, out, spec: dict) -> str:
    units = {d["name"]: d["unit"] for d in spec["end_to_end"]}
    m = out.metrics
    if workload == "audit":
        headline = f"audit_s={m['latency_p50_ms'] / 1e3:.3f} s"
    elif workload == "compare_cli":
        headline = (f"compare_p50_ms={m['latency_p50_ms']:.1f} ms (n={out.notes['samples']}, "
                    f"{out.notes.get('latency_tail', 'no tail')})")
    else:
        headline = f"pairs_per_s={m['pairs_per_s']:.3f} 1/s"
    rest = " ".join(f"{k}={v:.4g} {units[k]}" for k, v in m.items())
    return f"[{workload}] {headline} | failed_ratio={out.failed / out.attempted:g} | {rest}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "refmet" / "__init__.py").is_file():
        print("perfbench: no refmet sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out = importlib.import_module(args.workload).run(args)
    if out.attempted < 1:
        print("perfbench: no operation was attempted", file=sys.stderr)
        return 1
    if not args.trace:
        out.metrics["ok_ratio"] = (out.attempted - out.failed) / out.attempted
    kind = "per_layer" if args.trace else "end_to_end"
    names = [d["name"] for d in spec[kind]]
    if set(out.metrics) != set(names):
        print(f"perfbench: metrics {sorted(set(out.metrics) ^ set(names))} do not "
              f"match BENCHMARK.json {kind}", file=sys.stderr)
        return 1
    units = {d["name"]: d["unit"] for d in spec[kind]}
    result = {
        "correct": out.invariants_ok and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": float(out.metrics[n]), "unit": units[n]} for n in names},
    }
    record = {"environment": environment(args.workload, args.seed),
              "smoke": args.smoke, "trace": args.trace, "notes": out.notes}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    (results / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    if out.spans:
        (results / f"{stem}.spans.json").write_text(
            json.dumps([sp.to_json() for sp in out.spans]))
    if not args.trace:
        print(_summary(args.workload, out, spec), file=sys.stderr)
    for reason in out.notes.get("failures", []):
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
