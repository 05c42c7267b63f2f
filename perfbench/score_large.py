"""``score_large`` workload: a seeded stream of distinct library scoring requests.

Requests alternate between 512x512 phantoms and 64^3 seeded smooth volumes
(ms_ssim with 3 scales: 5 do not fit 64^3). No reference repeats and the
harness is not involved, so large-image kernels and the 3D paths show here
and harness-level reuse cannot. One operation is a round of one 2D and one
3D request, which keeps the per-operation latency unimodal. Inputs are made
outside the timed region.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from common import (SETUP_REPS, Outcome, close, draw_chain, error_oracle,
                    in_range, layer_metrics, measure_setup, median, peak_rss_mb)
from tracer import Tracer

POINTWISE = ("mae", "mse", "psnr", "pcc", "mi", "nmi")
PREPS = ("minmax", "zscore", "bin256")
VOLUME = 64


@dataclass
class Request:
    index: int
    ref: object       # refmet Image
    mask: object      # foreground Mask
    rect_mask: object  # Mask of the foreground's bounding box
    chain: tuple
    prep: str

    @property
    def scales(self) -> int:
        return 5 if self.ref.ndim == 2 else 3

    @property
    def windowed(self) -> tuple[str, ...]:
        return ("ssim", "ms_ssim", "cw_ssim") if self.ref.ndim == 2 else ("ssim", "ms_ssim")


def _volume(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Smooth random texture inside a seeded ellipsoid on a zero background."""
    from scipy import ndimage
    field = ndimage.gaussian_filter(rng.standard_normal((n, n, n)), 2.0)
    center = (n - 1) / 2.0 + rng.uniform(-1.0, 1.0, size=3)
    # Semi-axes >= 0.4 n keep the bounding box >= 44 voxels: 3 ms_ssim scales fit.
    axes = n * rng.uniform(0.40, 0.45, size=3)
    grid = np.indices((n, n, n), dtype=np.float64)
    inside = sum(((g - c) / a) ** 2 for g, c, a in zip(grid, center, axes)) <= 1.0
    lo, hi = field[inside].min(), field[inside].max()
    vol = np.zeros((n, n, n))
    vol[inside] = 0.6 + 0.3 * (field[inside] - lo) / (hi - lo)
    return vol, inside


def make_request(seed: int, index: int, size2d: int) -> Request:
    from refmet import phantom
    from refmet.image import Image, Mask, bounding_box
    rng = np.random.default_rng([seed, 2, index])
    if index % 2 == 0:
        ph = phantom.generate_phantom(int(rng.integers(2**31)),
                                      phantom.PhantomParams(dims=(size2d, size2d)))
        ref, mask = ph.image, ph.foreground_mask
    else:
        vol, inside = _volume(rng, VOLUME)
        ref, mask = Image(vol), Mask(inside)
    rect = bounding_box(mask)
    box = np.zeros(mask.shape, dtype=bool)
    box[tuple(slice(o, o + e) for o, e in zip(rect.origin, rect.extent))] = True
    return Request(index, ref, mask, Mask(box), draw_chain(rng, ref.ndim),
                   PREPS[int(rng.integers(len(PREPS)))])


def score(req: Request):
    """The timed request: distort, normalize or bin, lint, evaluate, masked evaluate."""
    from refmet import distort, harness, metrics, normalize
    panel = tuple(m for m in ("mae", "mse", "psnr", "ssim", "ms_ssim", "cw_ssim",
                              "pcc", "mi", "nmi")
                  if m != "cw_ssim" or req.ref.ndim == 2)
    ref = req.ref
    test = distort.apply_chain(req.chain, ref)
    if req.prep == "bin256":
        norm, prebin = normalize.NormMethod.none(), 256
        ref, test = normalize.bin_quantize(ref, 256), normalize.bin_quantize(test, 256)
    else:
        norm, prebin = getattr(normalize.NormMethod, req.prep)(), None
        ref, test = normalize.normalize(ref, norm), normalize.normalize(test, norm)
    harness.lint_configuration(ref, test, harness.EvalPlan(
        metrics=panel, norm=norm, prebin=prebin, chain=req.chain))
    ctx = metrics.EvalContext(scales=req.scales,
                              weights=metrics.truncated_weights(req.scales))
    full = {m: metrics.evaluate(m, ref, test, ctx).value for m in panel}
    masked = {m: metrics.masked_evaluate(m, ref, test, req.mask, ctx).value
              for m in POINTWISE}
    masked.update({m: metrics.masked_evaluate(m, ref, test, req.rect_mask, ctx).value
                   for m in req.windowed})
    return ref, test, ctx, full, masked


def _timed_score(req: Request, tracer: Tracer | None = None):
    if tracer is not None:
        tracer.new_request()
    with (tracer.installed() if tracer else nullcontext()), \
            (tracer.span("request") if tracer else nullcontext()):
        t0 = time.perf_counter()
        result = score(req)
        return result, time.perf_counter() - t0


def _check(out: Outcome, req: Request, result) -> None:
    from refmet import metrics
    from refmet.image import bounding_box, crop
    ref, test, ctx, full, masked = result
    where = f"request {req.index} ({req.ref.ndim}D, {req.prep})"
    for label, scores in (("full", full), ("masked", masked)):
        bad = {m: v for m, v in scores.items() if not in_range(m, v)}
        if bad:
            out.fail(f"{where}: {label} scores out of range {bad}")
            return
    fg = req.mask.data
    for label, want, scores in (
            ("full", error_oracle(ref.data, test.data), full),
            ("masked", error_oracle(ref.data[fg], test.data[fg]), masked)):
        for m, v in want.items():
            if not close(scores[m], v):
                out.fail(f"{where}: {label} {m} = {scores[m]}, numpy oracle {v}")
                return
    rect = bounding_box(req.rect_mask)
    cropped = metrics.evaluate("ssim", crop(ref, rect), crop(test, rect), ctx).value
    if cropped != masked["ssim"]:
        out.fail(f"{where}: ssim on the rectangle mask {masked['ssim']!r} != "
                 f"ssim on the crop {cropped!r}")


def run(args) -> Outcome:
    out = Outcome()
    # 5 ms_ssim scales on the foreground's bounding box need >= 176 px per axis.
    size2d = 320 if args.smoke else 512
    tracer = Tracer() if args.trace else None

    def generate(first: int):
        with tracer.installed() if tracer else nullcontext():
            return [make_request(args.seed, i, size2d) for i in (first, first + 1)]

    setup_s, batch = measure_setup(lambda: generate(0),
                                   reps=2 if args.smoke else SETUP_REPS)
    rounds, untraced_s, traced_s = [], 0.0, 0.0
    start = time.perf_counter()
    while True:
        if rounds:
            batch = generate(2 * len(rounds))
        round_s = 0.0
        for req in batch:
            out.attempted += 1
            if tracer is None:
                result, elapsed = _timed_score(req)
            else:
                # Untraced and traced runs of the same request, alternating
                # which goes first so neither always finds warm caches.
                first_traced = (req.index // 2) % 2 == 1
                for traced in (first_traced, not first_traced):
                    res, dt = _timed_score(req, tracer if traced else None)
                    if traced:
                        traced_s += dt
                    else:
                        result, elapsed = res, dt
                        untraced_s += dt
            round_s += elapsed
            _check(out, req, result)
        rounds.append(round_s)
        if args.smoke or time.perf_counter() - start + round_s > args.seconds:
            break
    out.notes["round_ms"] = [t * 1e3 for t in rounds]
    if tracer is not None:
        out.spans = tracer.spans
        out.metrics = layer_metrics(tracer.spans, overhead_ratio=traced_s / untraced_s)
        return out
    out.metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": median(rounds) * 1e3,
        "pairs_per_s": out.attempted / sum(rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    return out
