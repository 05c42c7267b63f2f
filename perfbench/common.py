"""Shared pieces of the benchmark: paths, environment record, set-up timing,
per-layer metric assembly and the output oracles."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Summary, repeat_shares

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SCENARIOS = ("pitfall1", "pitfall2", "pitfall3", "pitfall4", "pitfall5")
METRIC_IDS = ("mae", "mse", "psnr", "ssim", "ms_ssim", "cw_ssim", "pcc", "mi", "nmi")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Set-ups timed per run; setup_s is their median. One is about 0.5-0.8 s,
# mostly a cold interpreter importing refmet.
SETUP_REPS = 9


@dataclass
class Outcome:
    """What one workload run produced, before it is printed."""

    attempted: int = 0
    failed: int = 0
    invariants_ok: bool = True
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # traced runs only

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.notes.setdefault("failures", []).append(reason)

    def broken(self, reason: str) -> None:
        """A run-wide invariant (determinism, exact counts) does not hold."""
        self.invariants_ok = False
        self.notes.setdefault("failures", []).append(reason)


def child_env() -> dict[str, str]:
    """Environment for refmet subprocesses: the checkout's ``src`` on the path.

    BLAS/OpenMP thread variables are passed through unchanged on purpose.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def timed_import_s() -> float:
    """Wall time of a fresh interpreter importing the whole refmet package."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import refmet.cli"], env=child_env(),
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


def measure_setup(generate, reps: int) -> tuple[float, object]:
    """Median over ``reps`` set-ups of (cold import + input generation).

    Returns the median and the inputs from the last repetition.
    """
    totals, inputs = [], None
    for _ in range(reps):
        imp = timed_import_s()
        t0 = time.perf_counter()
        inputs = generate()
        totals.append(imp + time.perf_counter() - t0)
    return median(totals), inputs


def source_fingerprint() -> str:
    """sha256 over the program's source files; names the code being measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "refmet").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, **program_environment()}


@functools.cache
def program_environment() -> dict:
    """What the program's outputs may depend on besides the seed: versions,
    CPUs, BLAS threads and build, the commit and the source sha256."""
    import numpy
    import scipy

    import refmet
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "refmet": refmet.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "openblas": blas.get("openblas configuration", blas.get("name")),
        "git_commit": _git_commit(),
        "source_sha256": source_fingerprint(),
    }


def peak_rss_mb(children: bool = False) -> float:
    import resource
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Run-to-run state: values that must repeat exactly for the same program
# ---------------------------------------------------------------------------

def check_repeats(out: Outcome, key: str, values: dict) -> None:
    """Compare ``values`` with what an earlier run of the same program recorded.

    The state lives in the checkout, keyed by the whole program environment
    (source sha256, library versions, BLAS build and thread variables, CPUs).
    So only runs that should give identical outputs are compared; a different
    source or thread setting, which can move pcc, starts a state of its own.
    """
    env = json.dumps(program_environment(), sort_keys=True).encode()
    path = WORK / "state" / f"{hashlib.sha256(env).hexdigest()}.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    previous = state.get(key)
    if previous is None:
        state[key] = values
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(state, indent=1, sort_keys=True))
        return
    for name, value in values.items():
        if previous.get(name) != value:
            out.broken(f"{key}: {name} = {value!r}, an earlier run of the same "
                       f"program gave {previous.get(name)!r}")


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def error_oracle(ref, test) -> dict[str, float]:
    """mae and mse of two float arrays, computed independently of refmet."""
    import numpy as np
    diff = np.asarray(ref, dtype=np.float64) - np.asarray(test, dtype=np.float64)
    return {"mae": float(np.abs(diff).sum() / diff.size),
            "mse": float((diff * diff).sum() / diff.size)}


# Valid score range per metric, inclusive, with a little float slack.
_EPS = 1e-9
SCORE_RANGES = {
    "mae": (0.0, math.inf), "mse": (0.0, math.inf), "psnr": (0.0, math.inf),
    "ssim": (-1.0 - _EPS, 1.0 + _EPS), "ms_ssim": (0.0, 1.0 + _EPS),
    "cw_ssim": (0.0, 1.0 + _EPS), "pcc": (-1.0, 1.0),
    "mi": (-_EPS, math.inf), "nmi": (1.0 - _EPS, 2.0 + _EPS),
}


def in_range(metric_id: str, value: float) -> bool:
    lo, hi = SCORE_RANGES[metric_id]
    return not math.isnan(value) and lo <= value <= hi


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------

def layer_metrics(spans, *, useful_pairs: int = 0, cli: dict | None = None,
                  overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric; layers a workload does not exercise read 0."""
    s = Summary(spans)
    m: dict[str, float] = {}
    for sid in SCENARIOS:
        m[f"harness.scenario.{sid}_s"] = s.net_s(s.named(f"harness.scenario.{sid}"))
    prepare = s.select(lambda sp: sp.name == "distort.apply_chain"
                       and sp.attrs.get("via") == "refmet.harness")
    m["harness.prepare.calls"] = len(prepare)
    m["harness.prepare.useful_ratio"] = useful_pairs / len(prepare) if prepare else 0.0
    lint = s.named("harness.lint")
    m["harness.lint.calls"] = len(lint)
    m["harness.lint.self_s"] = s.self_s(lint)
    for mid in METRIC_IDS:
        idx = s.select(lambda sp: sp.attrs.get("metric") == mid)
        m[f"metrics.{mid}.calls"] = len(idx)
        m[f"metrics.{mid}.self_s"] = s.self_s(idx)
    for name in ("metrics.ssim_and_cs", "metrics.joint_histogram"):
        idx = s.named(name)
        m[f"{name}.calls"] = len(idx)
        m[f"{name}.self_s"] = s.self_s(idx)
    masked = s.select(lambda sp: sp.attrs.get("masked") is True)
    m["metrics.masked_evaluate.calls"] = len(masked)
    m["metrics.masked_evaluate.self_s"] = s.self_s(masked)
    pair, ref, cross = repeat_shares(spans)
    m["metrics.repeat_pair_share"] = pair
    m["metrics.repeat_ref_share"] = ref
    m["metrics.cross_request_ref_share"] = cross
    for name in ("distort.apply_chain", "normalize.normalize",
                 "normalize.bin_quantize", "downstream.task_similarity"):
        idx = s.named(name)
        m[f"{name}.calls"] = len(idx)
        m[f"{name}.self_s"] = s.self_s(idx)
    m["report.render_csv_s"] = s.net_s(s.named("report.render_csv"))
    m["report.render_markdown_s"] = s.net_s(s.named("report.render_markdown"))
    m["phantom.generate_phantom.self_s"] = s.self_s(s.named("phantom.generate_phantom"))
    cli = cli or {}
    for name in ("cli.python_startup_ms", "cli.import_ms", "image.load_image_ms",
                 "cli.work_ms"):
        m[name] = cli.get(name, 0.0)
    m["trace.overhead_ratio"] = overhead_ratio
    return m


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

SHAPE_PRESERVING = ("gamma", "linear_scale", "translate", "mirror_replace",
                    "gaussian_noise", "stripes", "gaussian_blur")


def draw_chain(rng, ndim: int):
    """A seeded chain of two distinct shape-preserving distortions."""
    from refmet.distort import DistortionSpec
    chain = []
    for kind in rng.choice(SHAPE_PRESERVING, size=2, replace=False):
        seed = 0
        if kind == "gamma":
            params = {"gamma": float(rng.uniform(0.5, 2.0))}
        elif kind == "linear_scale":
            params = {"factor": float(rng.uniform(0.8, 1.25))}
        elif kind == "translate":
            params = {"shift": tuple(int(v) for v in rng.integers(-3, 4, size=ndim))}
        elif kind == "mirror_replace":
            params = {"axis": int(rng.integers(ndim))}
        elif kind == "gaussian_noise":
            params = {"sigma_rel": float(rng.uniform(0.01, 0.05))}
            seed = int(rng.integers(2**31))
        elif kind == "stripes":
            params = {"period": int(rng.integers(4, 13)),
                      "amplitude_rel": float(rng.uniform(0.05, 0.2)),
                      "axis": int(rng.integers(ndim))}
        else:
            params = {"sigma": float(rng.uniform(0.5, 2.0))}
        chain.append(DistortionSpec(str(kind), params, seed))
    return tuple(chain)
