"""``compare_cli`` workload: sequential cold ``python -m refmet compare`` calls.

Every call starts a fresh interpreter with ``PYTHONPATH`` at the checkout's
``src``, so interpreter start, import and CLI work dominate the latency.
No flag set scores cw_ssim and the harness is not involved, so harness and
cw_ssim changes should not move this workload. Flag sets cycle through the
default panel, ``--norm minmax``, ``--prebin 256`` and a foreground
``--mask`` (pointwise panel: windowed metrics reject non-rectangular masks).
Identical requests recur, so their stdout must repeat byte for byte.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (ROOT, SETUP_REPS, WORK, Outcome, child_env, close, draw_chain,
                    error_oracle, fresh_dir, layer_metrics, measure_setup, median,
                    peak_rss_mb)
from tracer import DIGEST, Tracer

PAIRS = 4
FLAGSETS = (
    ("default", ()),
    ("minmax", ("--norm", "minmax")),
    ("prebin", ("--prebin", "256")),
    ("mask", ("--mask", "{mask}", "--metrics", "mae,mse,psnr,pcc,nmi")),
)
CHILD = Path(__file__).resolve().parent / "compare_child.py"


@dataclass
class Pair:
    ref: Path
    test: Path
    mask: Path
    ref_data: np.ndarray
    test_data: np.ndarray
    mask_data: np.ndarray


@dataclass
class Call:
    key: tuple[int, int]
    seconds: float
    rc: int
    stdout: str
    spans: list | None = None


def _read_rawf32(path: Path, shape) -> np.ndarray:
    return np.fromfile(path, dtype="<f4").reshape(shape).astype(np.float64)


def _prepare(seed: int, size: int) -> list[Pair]:
    from refmet.distort import apply_chain
    from refmet.image import mask_to_image, save_image
    from refmet.phantom import PhantomParams, generate_phantom
    base = fresh_dir("compare")
    rng = np.random.default_rng([seed, 1])
    pairs = []
    for i in range(PAIRS):
        ph = generate_phantom(int(rng.integers(2**31)), PhantomParams(dims=(size, size)))
        test = apply_chain(draw_chain(rng, 2), ph.image)
        ref_path, test_path = base / f"ref{i}.rawf32", base / f"test{i}.rawf32"
        mask_path = base / f"fg{i}.pgm"
        save_image(ph.image, ref_path)
        save_image(test, test_path)
        save_image(mask_to_image(ph.foreground_mask), mask_path)
        pairs.append(Pair(ref_path, test_path, mask_path,
                          _read_rawf32(ref_path, ph.image.shape),
                          _read_rawf32(test_path, ph.image.shape),
                          np.array(ph.foreground_mask.data)))
    return pairs


def _argv(pair: Pair, flags) -> list[str]:
    return ["compare", str(pair.ref), str(pair.test),
            *(f.format(mask=pair.mask) for f in flags)]


def _call(pairs, k: int, traced: bool) -> Call:
    key = ((k // len(FLAGSETS)) % len(pairs), k % len(FLAGSETS))
    argv = _argv(pairs[key[0]], FLAGSETS[key[1]][1])
    spans_path = WORK / "compare" / "spans.json"
    if traced:
        cmd = [sys.executable, str(CHILD), str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "refmet", *argv]
    env = child_env()
    t0 = time.perf_counter()
    res = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    spans = json.loads(spans_path.read_text()) if traced and res.returncode == 0 else None
    return Call(key, seconds, res.returncode, res.stdout, spans)


def _oracle(pair: Pair, flag: str) -> dict[str, float]:
    r, t = pair.ref_data, pair.test_data
    if flag == "minmax":
        r, t = ((a - a.min()) / (a.max() - a.min()) for a in (r, t))
    elif flag == "prebin":
        r, t = (np.minimum(np.floor((a - a.min()) / (a.max() - a.min()) * 256), 255)
                for a in (r, t))
    elif flag == "mask":
        r, t = r[pair.mask_data], t[pair.mask_data]
    return error_oracle(r, t)


def _check(out: Outcome, pairs, calls: list[Call]) -> None:
    first_stdout: dict[tuple[int, int], str] = {}
    oracles = {}
    for call in calls:
        flag = FLAGSETS[call.key[1]][0]
        if call.rc != 0:
            out.fail(f"compare {call.key} ({flag}) exited {call.rc}")
            continue
        if first_stdout.setdefault(call.key, call.stdout) != call.stdout:
            out.fail(f"compare {call.key} ({flag}): stdout differs from an "
                     "identical earlier request")
            continue
        scores = {}
        for line in call.stdout.splitlines():
            metric_id, value, _fp = line.split("\t")
            scores[metric_id] = float(value)
        if call.key not in oracles:
            oracles[call.key] = _oracle(pairs[call.key[0]], flag)
        for metric_id, want in oracles[call.key].items():
            if not close(scores.get(metric_id, float("nan")), want):
                out.fail(f"compare {call.key} ({flag}): {metric_id} = "
                         f"{scores.get(metric_id)} but the numpy oracle gives {want}")


def _child_numbers(spans: list[dict]) -> tuple[float, float, float]:
    """(import, load_image, work) seconds of one traced invocation.

    Work is ``main`` without image loading and without the tracer's digests.
    """
    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    load = total("image.load_image")
    return total("cli.import"), load, total("cli.main") - load - total(DIGEST)


def run(args) -> Outcome:
    out = Outcome()
    size = 192
    setup_s, pairs = measure_setup(lambda: _prepare(args.seed, size),
                                   reps=2 if args.smoke else SETUP_REPS)
    calls: list[Call] = []
    start = time.perf_counter()
    if not args.trace:
        while len(calls) < 3 if args.smoke else (
                not calls or time.perf_counter() - start < args.seconds):
            calls.append(_call(pairs, len(calls), traced=False))
        _check(out, pairs, calls)
        out.attempted = len(calls)
        seconds = [c.seconds for c in calls]
        out.notes["samples"] = len(seconds)
        out.notes["latency_ms"] = [t * 1e3 for t in seconds]
        if len(seconds) > 10:
            # The highest percentile with ten samples beyond it.
            n = len(seconds)
            out.notes["latency_tail"] = (f"p{100 * (n - 10) / n:.0f}="
                                         f"{sorted(seconds)[n - 11] * 1e3:.1f} ms")
        out.metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": median(seconds) * 1e3,
            "pairs_per_s": len(seconds) / sum(seconds),
            "peak_rss_mb": peak_rss_mb(children=True),
        }
        return out

    startup = []
    for _ in range(2 if args.smoke else 5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        startup.append(time.perf_counter() - t0)
    untraced, traced = [], []
    k = 0
    while len(traced) < 3 if args.smoke else (
            not traced or time.perf_counter() - start < args.seconds):
        order = (False, True) if k % 2 == 0 else (True, False)
        for flag in order:
            (traced if flag else untraced).append(_call(pairs, k, traced=flag))
        k += 1
    _check(out, pairs, untraced + traced)
    out.attempted = len(untraced) + len(traced)
    tracer = Tracer()
    numbers = []
    for i, call in enumerate(traced):
        if call.spans is not None:
            tracer.merge(call.spans, request=i + 1)
            numbers.append(_child_numbers(call.spans))
    cli = {"cli.python_startup_ms": median(startup) * 1e3,
           "cli.import_ms": median([n[0] for n in numbers]) * 1e3,
           "image.load_image_ms": median([n[1] for n in numbers]) * 1e3,
           "cli.work_ms": median([n[2] for n in numbers]) * 1e3}
    out.spans = tracer.spans
    out.metrics = layer_metrics(
        tracer.spans, cli=cli,
        overhead_ratio=sum(c.seconds for c in traced) / sum(c.seconds for c in untraced))
    return out
