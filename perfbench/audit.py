"""``audit`` workload: ``refmet audit --scenario all`` in-process, default config.

This is the headline end-to-end number. The harness prepares each (case,
variant) pair once per metric, with heavy reference reuse, so evaluate-once,
reference caching and every 2D kernel show here. The run measures whole
audits one after another (closed loop, one client) and always at least one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (SCENARIOS, SETUP_REPS, WORK, Outcome, check_repeats,
                    fresh_dir, layer_metrics, measure_setup, median, peak_rss_mb)
from tracer import Tracer

# Rows one phantom adds per scenario (plus one mean row per (variant, metric)).
ROWS_PER_CASE = {"pitfall1": 34, "pitfall2": 32, "pitfall3": 26, "pitfall4": 96,
                 "pitfall5": 9}
# Counts at the commit that defined this benchmark, per phantom count n. Later
# versions may move them on purpose; they are reported, and only run-to-run
# repeats of the same program are enforced.
BASELINE_COUNTS = {
    "harness.prepare.calls": lambda n: 197 * n + 34,
    "harness.prepare.pitfall1": lambda n: 34 * n + 8,
    "metrics.ssim_and_cs.calls": lambda n: 167 * n,
}
REEVALUATED_ROWS = 12


@dataclass
class AuditRun:
    seconds: float
    rc: int
    stdout: str
    out_dir: Path


def _prepare(count: int):
    base = fresh_dir("audit")
    config = base / "config.json"
    config.write_text(json.dumps({"phantoms": {"count": count}}))
    return config


def _one_audit(config, k: int, tracer: Tracer | None = None) -> AuditRun:
    import refmet.cli
    out_dir = WORK / "audit" / f"run{k}"
    argv = ["audit", "--scenario", "all", "--config", str(config), "--out", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.span("cli.main") if tracer else nullcontext()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        t0 = time.perf_counter()
        with span:
            rc = refmet.cli.main(argv)
        seconds = time.perf_counter() - t0
    return AuditRun(seconds, rc, stdout.getvalue(), out_dir)


def _expected_rows(count: int) -> dict[str, int]:
    return {sid: k * (count + 1) for sid, k in ROWS_PER_CASE.items()}


def _check_audit(out: Outcome, run: AuditRun, count: int) -> tuple[str | None, list]:
    """Exit code and per-scenario row counts; returns (csv sha256, csv rows)."""
    if run.rc != 0:
        out.fail(f"audit exited {run.rc}")
        return None, []
    expected = _expected_rows(count)
    printed = {}
    for line in run.stdout.splitlines():
        parts = line.split("\t")
        if len(parts) == 3 and parts[0] in expected:
            printed[parts[0]] = int(parts[1])
    data = (run.out_dir / "report.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(data.decode())))[1:]
    in_csv = {sid: sum(1 for r in rows if r[1] == sid) for sid in expected}
    if printed != expected or in_csv != expected:
        out.fail(f"row counts: stdout {printed}, csv {in_csv}, expected {expected}")
    if not (run.out_dir / "report.md").is_file():
        out.fail("report.md missing")
    return hashlib.sha256(data).hexdigest(), rows


def _reevaluate_sample(out: Outcome, rows: list, seed: int) -> None:
    """Re-score a seeded sample of case rows; values must match bit for bit."""
    from refmet.harness import reevaluate_row
    from refmet.metrics import format_score
    from refmet.report import Row
    cases = [r for r in rows if r[0] != "mean"]
    rng = np.random.default_rng([seed, 0])
    for i in rng.choice(len(cases), size=min(REEVALUATED_ROWS, len(cases)),
                        replace=False):
        case_id, scenario, variant, metric_id, fp, score = cases[i]
        value = reevaluate_row(Row(case_id, scenario, variant, metric_id, fp, 0.0))
        if format_score(value) != score:
            out.fail(f"reevaluate_row {case_id}/{scenario}/{variant}/{metric_id}: "
                     f"{format_score(value)} != {score}")


def _distinct_pairs(count: int) -> int:
    from refmet.harness import builtin_scenario
    return count * sum(len(builtin_scenario(sid).variants) for sid in SCENARIOS)


def _scenario_of(spans, i: int) -> str | None:
    while i >= 0:
        if spans[i].name.startswith("harness.scenario."):
            return spans[i].name.rsplit(".", 1)[1]
        i = spans[i].parent
    return None


def _exact_counts(spans, layers: dict) -> dict:
    prepare = [i for i, sp in enumerate(spans) if sp.name == "distort.apply_chain"
               and sp.attrs.get("via") == "refmet.harness"]
    counts = {k: v for k, v in layers.items()
              if k.endswith(".calls") or k.endswith("_share")}
    for sid in SCENARIOS:
        counts[f"harness.prepare.{sid}"] = sum(
            1 for i in prepare if _scenario_of(spans, i) == sid)
    return counts


def run(args) -> Outcome:
    out = Outcome()
    count = 2 if args.smoke else 20
    setup_s, config = measure_setup(lambda: _prepare(count),
                                    reps=2 if args.smoke else SETUP_REPS)
    runs: list[AuditRun] = []
    tracer = None
    if args.trace:
        # One untraced and one traced audit; the seed's parity picks which
        # runs first, so the warm second slot is shared out across seeds.
        tracer = Tracer()
        for traced in ((False, True) if args.seed % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    runs.append(_one_audit(config, len(runs), tracer))
                    traced_run = runs[-1]
            else:
                runs.append(_one_audit(config, len(runs)))
                untraced_run = runs[-1]
    else:
        start = time.perf_counter()
        while True:
            runs.append(_one_audit(config, len(runs)))
            elapsed = time.perf_counter() - start
            if elapsed + runs[-1].seconds > args.seconds:
                break
    rss = peak_rss_mb()

    # Output checks, outside the timed region.
    out.attempted = len(runs)
    shas, first_rows = set(), None
    for run_ in runs:
        sha, rows = _check_audit(out, run_, count)
        if sha:
            shas.add(sha)
            first_rows = first_rows or rows
    if len(shas) > 1:
        out.broken(f"report.csv differs between audits of one run: {sorted(shas)}")
    if shas:
        sha = sorted(shas)[0]
        out.notes["report_sha256"] = sha
        check_repeats(out, f"audit[n={count}].report", {"sha256": sha})
    if first_rows:
        _reevaluate_sample(out, first_rows, args.seed)
    shutil.rmtree(WORK / "audit", ignore_errors=True)

    ok = [r.seconds for r in runs if r.rc == 0] or [r.seconds for r in runs]
    out.notes["audit_s"] = [r.seconds for r in runs]
    if tracer is None:
        out.metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": median(ok) * 1e3,
            "pairs_per_s": _distinct_pairs(count) * len(ok) / sum(ok),
            "peak_rss_mb": rss,
        }
        return out
    layers = layer_metrics(tracer.spans, useful_pairs=_distinct_pairs(count),
                           overhead_ratio=traced_run.seconds / untraced_run.seconds)
    counts = _exact_counts(tracer.spans, layers)
    check_repeats(out, f"audit[n={count}].counts", counts)
    baseline = {k: f(count) for k, f in BASELINE_COUNTS.items()}
    out.notes["baseline_counts"] = {
        k: {"expected": v, "measured": counts.get(k, layers.get(k))}
        for k, v in baseline.items()}
    out.metrics, out.spans = layers, tracer.spans
    return out
