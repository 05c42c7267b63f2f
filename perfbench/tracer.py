"""In-memory span tracer that times calls into refmet from outside.

A span is one call through a wrapped function: name, start, end, parent
span, request id and attributes. Wrappers are installed by replacing the
module attribute a caller looks the name up in (``refmet.harness.apply_chain``
for the harness, ``refmet.distort.apply_chain`` for direct callers) and are
removed again on exit, so no file under ``src/`` changes. Spans stay in
memory until the run ends.

Self time is a span's duration minus the time its child spans cover.
Content digests taken for the repeat-share metrics are recorded as
``trace.digest`` spans, so they never count as self time of a layer, and
net durations remove them from the layer spans that enclose them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
import weakref
from contextlib import contextmanager

DIGEST = "trace.digest"


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, parent, request, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs = attrs

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request,
                "attrs": self.attrs}

    @classmethod
    def from_json(cls, obj: dict, index_offset: int, request: int) -> "Span":
        parent = obj["parent"]
        sp = cls(obj["name"], obj["start"],
                 parent + index_offset if parent >= 0 else -1, request, obj["attrs"])
        sp.end = obj["end"]
        return sp


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._digests: dict[int, tuple[weakref.ref, str]] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), parent, self.request, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def new_request(self) -> None:
        self.request += 1

    def digest(self, arr) -> str:
        """Content digest of an array, cached while the array is alive."""
        with self.span(DIGEST):
            hit = self._digests.get(id(arr))
            if hit is not None and hit[0]() is arr:
                return hit[1]
            h = hashlib.blake2b(digest_size=16)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.data if arr.flags.c_contiguous else arr.tobytes())
            value = h.hexdigest()
            self._digests[id(arr)] = (weakref.ref(arr), value)
            return value

    def merge(self, spans: list[dict], request: int) -> None:
        """Append spans recorded by a child process as one request."""
        offset = len(self.spans)
        self.spans.extend(Span.from_json(s, offset, request) for s in spans)

    @contextmanager
    def installed(self):
        """Install the wrappers of every refmet layer (``HOOKS``) until exit."""
        # Import every hooked module before patching any: a module imported
        # later would bind an earlier module's wrapper as its "original".
        modules = {name: importlib.import_module(name) for name, _, _ in HOOKS}
        saved = []
        try:
            for module_name, attr, make in HOOKS:
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(self, original, module_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Hook factories: (tracer, original function, module name) -> wrapper
# ---------------------------------------------------------------------------

def _timed(name):
    def make(tracer, fn, via):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, via=via):
                return fn(*args, **kwargs)
        return wrapper
    return make


def _metric(masked: bool):
    """Span ``metrics.<metric_id>`` keyed by the id passed to (masked_)evaluate."""
    def make(tracer, fn, via):
        @functools.wraps(fn)
        def wrapper(metric_id, ref, test, *args, **kwargs):
            ref_key = tracer.digest(ref.data)
            test_key = tracer.digest(test.data)
            with tracer.span(f"metrics.{metric_id}", via=via, metric=metric_id,
                             masked=masked, ref=ref_key, test=test_key):
                return fn(metric_id, ref, test, *args, **kwargs)
        return wrapper
    return make


def _scenario(tracer, fn, via):
    """Each scenario is one request of the audit."""
    @functools.wraps(fn)
    def wrapper(scenario, *args, **kwargs):
        tracer.new_request()
        with tracer.span(f"harness.scenario.{scenario.scenario_id}", via=via):
            return fn(scenario, *args, **kwargs)
    return wrapper


def _everywhere(name, attr, modules, make=None):
    make = make or _timed(name)
    return [(m, attr, make) for m in modules]


HOOKS = (
    _everywhere("distort.apply_chain", "apply_chain",
                ("refmet.distort", "refmet.harness", "refmet.cli"))
    + _everywhere("normalize.normalize", "normalize",
                  ("refmet.normalize", "refmet.harness", "refmet.cli"))
    + _everywhere("normalize.bin_quantize", "bin_quantize",
                  ("refmet.normalize", "refmet.harness", "refmet.cli"))
    + _everywhere("harness.lint", "lint_configuration",
                  ("refmet.harness", "refmet.cli"))
    + _everywhere("downstream.task_similarity", "task_similarity",
                  ("refmet.downstream", "refmet.harness"))
    + _everywhere("phantom.generate_phantom", "generate_phantom",
                  ("refmet.phantom", "refmet.harness", "refmet.cli"))
    + _everywhere("image.load_image", "load_image", ("refmet.image", "refmet.cli"))
    + _everywhere("report.render_csv", "render_csv", ("refmet.report",))
    + _everywhere("report.render_markdown", "render_markdown", ("refmet.report",))
    + _everywhere("metrics.ssim_and_cs", "ssim_and_cs",
                  ("refmet.metrics.structural",))
    + _everywhere("metrics.joint_histogram", "joint_histogram",
                  ("refmet.metrics.information",))
    + _everywhere(None, "evaluate", ("refmet.metrics", "refmet.harness", "refmet.cli"),
                  _metric(masked=False))
    + _everywhere(None, "masked_evaluate",
                  ("refmet.metrics", "refmet.harness", "refmet.cli"),
                  _metric(masked=True))
    + _everywhere(None, "run_scenario", ("refmet.harness", "refmet.cli"), _scenario)
)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class Summary:
    """Per-span self time and net duration (duration without tracer digests)."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        n = len(spans)
        child_time = [0.0] * n
        digest_time = [0.0] * n
        for i in range(n - 1, -1, -1):
            sp = spans[i]
            if sp.parent < 0:
                continue
            dur = sp.end - sp.start
            child_time[sp.parent] += dur
            digest_time[sp.parent] += dur if sp.name == DIGEST else digest_time[i]
        self.self_time = [spans[i].end - spans[i].start - child_time[i]
                          for i in range(n)]
        self.net = [spans[i].end - spans[i].start - digest_time[i] for i in range(n)]

    def select(self, pred):
        return [i for i, sp in enumerate(self.spans) if pred(sp)]

    def named(self, name: str):
        return self.select(lambda sp: sp.name == name)

    def self_s(self, idx) -> float:
        return float(sum(self.self_time[i] for i in idx))

    def net_s(self, idx) -> float:
        return float(sum(self.net[i] for i in idx))


def repeat_shares(spans: list[Span]) -> tuple[float, float, float]:
    """(pair share, ref share, cross-request ref share) over metric spans.

    A metric call repeats its pair (or reference) when an earlier metric
    call in the run scored the same content; it repeats across requests
    when that earlier call belongs to an earlier request.
    """
    seen_pairs: set[tuple[str, str]] = set()
    first_request: dict[str, int] = {}
    n = rep_pair = rep_ref = cross_ref = 0
    for sp in spans:
        if "metric" not in sp.attrs:
            continue
        n += 1
        ref, pair = sp.attrs["ref"], (sp.attrs["ref"], sp.attrs["test"])
        rep_pair += pair in seen_pairs
        seen_pairs.add(pair)
        if ref in first_request:
            rep_ref += 1
            cross_ref += first_request[ref] < sp.request
        else:
            first_request[ref] = sp.request
    if n == 0:
        return 0.0, 0.0, 0.0
    return rep_pair / n, rep_ref / n, cross_ref / n
