"""Five built-in pitfall scenarios, the lint engine, and report assembly.

Each scenario is a list of labeled variants; a variant pairs an
:class:`EvalPlan` (distortion chain, per-image normalization, optional
binning, data-range policy, metric panel) with a masking mode, which sets
the plan's mask per phantom: a ``Rect`` crop, or the foreground ``Mask``.
Running a scenario applies every variant to every phantom, appends one row
per metric, and finishes with mean rows (case_id ``"mean"``) per (variant, metric).

Lint rules (W01..W05) check an evaluation plan against the known pitfall
configurations before any score is trusted. Lints never change scores.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .distort import DistortionSpec, apply_chain, chain_fingerprint, fraction_rect
# Not called here (the metric table scores dice), but perfbench/tracer.py
# hooks this name on this module, so it must stay importable from it.
from .downstream import task_similarity  # noqa: F401
from .errors import ConfigError, RefmetError, check_ids, config_value, read_json
from .image import Image, Mask, Rect, bounding_box, crop, require_same_shape
from .metrics import (METRIC_IDS, EvalContext, MetricScore, check_int, evaluate,
                      masked_evaluate, metric_kind, rect_of_mask)
from .metrics.score import fingerprint, merge_fingerprints
from .normalize import DataRangePolicy, NormMethod, bin_quantize, normalize
from .phantom import Phantom, PhantomParams, generate_phantom
from .report import Lint, Report, Row

__all__ = [
    "Variant", "Scenario", "HarnessConfig", "EvalPlan",
    "builtin_scenario", "SCENARIO_IDS",
    "run_scenario", "lint_configuration", "reevaluate_row", "generate_phantoms",
]

SCENARIO_IDS = ("pitfall1", "pitfall2", "pitfall3", "pitfall4", "pitfall5")

PANEL_FULL = ("mae", "mse", "psnr", "ssim", "ms_ssim", "cw_ssim", "pcc", "nmi")
PANEL_WINDOW_SAFE = ("mae", "mse", "psnr", "ssim", "ms_ssim", "pcc", "nmi")
PANEL_POINTWISE = ("mae", "mse", "psnr", "pcc", "nmi")

MASK_MODES = ("none", "crop_fraction", "bbox", "foreground")
CROP_FRACTION = 0.03  # per side, for mask mode "crop_fraction"
OUTPUT_FORMATS = ("csv", "markdown")


@dataclass(frozen=True, kw_only=True)
class EvalPlan(EvalContext):
    """The one evaluation spec: metric panel, pair preparation, mask and
    (from EvalContext) the metric knobs, so ``evaluate`` reads the plan
    itself. Harness, compare and lint all use it; it is linted before
    scoring. The panel holds at least one known metric id, none twice
    (``check_ids``). A ``Mask`` must not be empty, and a filled rectangle
    becomes its ``Rect``: a crop :meth:`prepare` makes for every metric.
    :meth:`score` restricts each metric to any other ``Mask``, which refuses
    a windowed one, ``dice`` included. A plan does not know the image shape:
    the caller checks the mask's shape, as ``refmet.cli._plan`` does."""

    metrics: tuple[str, ...]
    norm: NormMethod = field(default_factory=NormMethod.none)
    prebin: int | None = None
    chain: tuple[DistortionSpec, ...] = ()
    mask: Mask | Rect | None = None

    def __post_init__(self):
        if not self.metrics:
            raise ConfigError("empty metric list")
        check_ids(self.metrics, METRIC_IDS, "metrics")
        if self.prebin is not None:
            check_int("prebin", self.prebin)
            if self.prebin < 2:
                raise ConfigError(f"plan field 'prebin' must be >= 2, got {self.prebin}")
        if isinstance(self.mask, Mask):
            if not self.mask.data.any():
                raise RefmetError("evaluation mask is empty")
            object.__setattr__(self, "mask", rect_of_mask(self.mask) or self.mask)
        super().__post_init__()

    def prepare(self, ref: Image, test: Image) -> tuple[Image, Image]:
        """Normalize, pre-bin, then crop to a ``Rect`` mask, both images of a pair."""
        if self.norm.kind != "none":
            ref, test = normalize(ref, self.norm), normalize(test, self.norm)
        if self.prebin:
            ref, test = bin_quantize(ref, self.prebin), bin_quantize(test, self.prebin)
        if isinstance(self.mask, Rect):
            require_same_shape(ref, test)
            ref, test = crop(ref, self.mask), crop(test, self.mask)
        return ref, test

    def score(self, metric_id: str, ref: Image, test: Image) -> MetricScore:
        """Score a prepared pair: ``masked_evaluate`` under a ``Mask``, else ``evaluate``."""
        if isinstance(self.mask, Mask):
            return masked_evaluate(metric_id, ref, test, self.mask, self)
        return evaluate(metric_id, ref, test, self)


@dataclass(frozen=True)
class Variant:
    """One labeled evaluation configuration inside a scenario."""

    label: str
    plan: EvalPlan
    mask_mode: str = "none"

    def __post_init__(self):
        if self.mask_mode not in MASK_MODES:
            raise ConfigError(f"unknown mask mode {self.mask_mode!r}")

    def case_plan(self, phantom: Phantom) -> EvalPlan:
        """Per-case noise seeds, and the mask mode's ``mask``: a ``Rect`` for a
        crop mode, the foreground ``Mask`` in mode foreground, else none."""
        chain = tuple(replace(s, seed=s.seed + phantom.seed) if s.seeded else s
                      for s in self.plan.chain)
        fg, mode = phantom.foreground_mask, self.mask_mode
        mask = (None if mode == "none" else fg if mode == "foreground"
                else bounding_box(fg) if mode == "bbox"
                else fraction_rect(fg.shape, CROP_FRACTION))
        return replace(self.plan, chain=chain, mask=mask)

    def pipeline_fingerprint(self, plan: EvalPlan) -> str:
        return fingerprint(chain=chain_fingerprint(plan.chain),
                           mask=f"crop_fraction({CROP_FRACTION!r})"
                           if self.mask_mode == "crop_fraction" else self.mask_mode,
                           norm=plan.norm.spec_string(),
                           prebin=plan.prebin if plan.prebin else "none")


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    variants: tuple[Variant, ...]

    def __post_init__(self):
        labels = [v.label for v in self.variants]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate variant labels in {self.scenario_id}")


# Every harness config key, dotted under its section: (JSON kind, default).
_CONFIG_KEYS = {
    "phantoms.count": ("an integer", 20),
    "phantoms.seed": ("an integer", 1000),
    "phantoms.dims": ("a list of integers", PhantomParams.dims),
    "scenarios": ("a list of strings", SCENARIO_IDS),
    "output.dir": ("a string", "audit_out"),
    "output.formats": ("a list of strings", OUTPUT_FORMATS),
}


@dataclass(frozen=True)
class HarnessConfig:
    """Run-wide knobs; ``_CONFIG_KEYS`` lists the JSON keys. ``scenarios`` and
    ``out_formats`` each hold at least one known id, none twice (``check_ids``)."""

    phantom_count: int = 20
    phantom_seed: int = 1000
    phantom_params: PhantomParams = field(default_factory=PhantomParams)
    scenarios: tuple[str, ...] = SCENARIO_IDS
    out_dir: str = "audit_out"
    out_formats: tuple[str, ...] = OUTPUT_FORMATS

    def __post_init__(self):
        if self.phantom_count < 1:
            raise ConfigError("phantom count must be >= 1")
        if not self.scenarios:
            raise ConfigError("config key 'scenarios' must be a non-empty list")
        if not self.out_formats:
            raise ConfigError("config key 'output.formats' must be a non-empty list")
        check_ids(self.scenarios, SCENARIO_IDS, "scenario ids")
        check_ids(self.out_formats, OUTPUT_FORMATS, "output formats")

    @classmethod
    def from_json(cls, obj: dict) -> "HarnessConfig":
        if not isinstance(obj, dict):
            raise ConfigError("harness config must be a JSON object")
        # Unknown keys, dotted inside a section (a non-object is a type error).
        top = {path.partition(".")[0] for path in _CONFIG_KEYS}
        unknown = [k for k in obj if k not in top] + [
            f"{k}.{sub}" for k in top & obj.keys() if type(obj[k]) is dict
            for sub in obj[k] if f"{k}.{sub}" not in _CONFIG_KEYS]
        if unknown:
            raise ConfigError(f"unknown harness config keys {sorted(unknown)}")
        v = {path: config_value(obj, path, *spec) for path, spec in _CONFIG_KEYS.items()}
        return cls(
            phantom_count=v["phantoms.count"],
            phantom_seed=v["phantoms.seed"],
            phantom_params=PhantomParams(tuple(v["phantoms.dims"])),
            scenarios=tuple(v["scenarios"]),
            out_dir=v["output.dir"],
            out_formats=tuple(v["output.formats"]),
        )

    @classmethod
    def load(cls, path) -> "HarnessConfig":
        return cls.from_json(read_json(path, "an object", "harness config"))


def generate_phantoms(config: HarnessConfig) -> list[Phantom]:
    return [generate_phantom(config.phantom_seed + i, config.phantom_params)
            for i in range(config.phantom_count)]


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

def _variant(label: str, metrics: tuple[str, ...] = PANEL_FULL,
             mask_mode: str = "none", **plan) -> Variant:
    return Variant(label, EvalPlan(metrics=metrics, **plan), mask_mode)


def builtin_scenario(scenario_id: str) -> Scenario:
    if scenario_id == "pitfall1":
        chain = (DistortionSpec("gamma", {"gamma": 0.4}),
                 DistortionSpec("linear_scale", {"factor": 1.2}))
        variants = [
            _variant("none_joint", chain=chain),
            _variant("none_range_ref", chain=chain,
                     range_policy=DataRangePolicy.ref(), metrics=("ssim", "psnr")),
            _variant("none_range_test", chain=chain,
                     range_policy=DataRangePolicy.test(), metrics=("ssim", "psnr")),
            _variant("minmax", chain=chain, norm=NormMethod.minmax(),
                     metrics=("mae", "mse", "psnr", "ssim", "ms_ssim", "cw_ssim")),
            _variant("zscore", chain=chain, norm=NormMethod.zscore(),
                     metrics=("mae", "mse", "psnr", "ssim", "ms_ssim", "cw_ssim")),
            _variant("binned_256", chain=chain, prebin=256),
            _variant("nmi_bins_128", chain=chain, nmi_bins=128, metrics=("nmi",)),
            _variant("nmi_bins_512", chain=chain, nmi_bins=512, metrics=("nmi",)),
        ]
    elif scenario_id == "pitfall2":
        variants = [
            _variant(f"shift_{k}px",
                     chain=(DistortionSpec("translate", {"shift": (k, 0)}),))
            for k in (1, 2, 3, 4)
        ]
    elif scenario_id == "pitfall3":
        chain = (DistortionSpec("mirror_replace", {"axis": 0}),)
        # 4 scales so ms_ssim fits the bounding-box crops at every scale
        variants = [
            _variant("full", chain=chain, metrics=PANEL_WINDOW_SAFE, scales=4),
            _variant("crop_3pct", chain=chain, metrics=PANEL_WINDOW_SAFE,
                     mask_mode="crop_fraction", scales=4),
            _variant("bbox_crop", chain=chain, metrics=PANEL_WINDOW_SAFE,
                     mask_mode="bbox", scales=4),
            _variant("foreground_mask", chain=chain, metrics=PANEL_POINTWISE,
                     mask_mode="foreground"),
        ]
    elif scenario_id == "pitfall4":
        bases = {
            "clean": (),
            "stripes": (DistortionSpec("stripes",
                                       {"period": 8, "amplitude_rel": 0.25, "axis": 0}),),
            "noise": (DistortionSpec("gaussian_noise", {"sigma_rel": 0.05}, seed=7),),
            "mirror": (DistortionSpec("mirror_replace", {"axis": 0}),),
        }
        panel = ("mae", "mse", "psnr", "ssim", "ms_ssim", "nmi")
        variants = []
        for name, chain in bases.items():
            variants.append(_variant(name, chain=chain, metrics=panel))
            for sigma in (0.5, 1.0, 2.0):
                blurred = chain + (DistortionSpec("gaussian_blur", {"sigma": sigma}),)
                variants.append(_variant(f"{name}_blur_{sigma}", chain=blurred,
                                         metrics=panel))
    elif scenario_id == "pitfall5":
        chain = (DistortionSpec("mirror_replace", {"axis": 0}),)
        variants = [
            _variant("image_metrics", chain=chain),
            _variant("proxy_task", chain=chain, metrics=("dice",)),
        ]
    else:
        raise ConfigError(f"unknown scenario id {scenario_id!r}")
    return Scenario(scenario_id, tuple(variants))


# ---------------------------------------------------------------------------
# Evaluation pipeline
# ---------------------------------------------------------------------------

@contextmanager
def _context(where: str):
    """Re-raise a RefmetError with its class kept and ``where`` prepended."""
    try:
        yield
    except RefmetError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _case_id(phantom: Phantom) -> str:
    return f"case_{phantom.seed}"


def run_scenario(scenario: Scenario, phantoms: Sequence[Phantom]) -> Report:
    """Evaluate every variant of ``scenario`` on every phantom.

    Phantoms are the outer loop, so the variants of one phantom that score
    ssim or ms_ssim against equal reference bits share its SSIM moments
    through the per-thread memo of :mod:`.metrics.structural`.
    Each (case, variant) runs one plan, :meth:`Variant.case_plan`: the first
    phantom's chained pair is linted against it, in variant order, and every
    metric scores, through :meth:`EvalPlan.score`, the pair it prepares (and
    crops) once. Appends mean rows (case_id ``"mean"``) per (variant, metric).
    Row order is deterministic: sorted by (case_id, variant, metric_id), means
    last. A failing evaluation re-raises its error class with the scenario,
    variant, case and (for a scoring error) metric prepended to the message; of
    several failing cases, the first in phantom order raises.
    """
    if not phantoms:
        raise ConfigError("run_scenario needs a non-empty phantom list")
    report = Report()
    scores: dict[tuple[str, str], list[float]] = {}
    for case, phantom in enumerate(phantoms):
        for variant in scenario.variants:
            where = (f"scenario {scenario.scenario_id}, variant {variant.label!r}, "
                     f"case {_case_id(phantom)}")
            plan = variant.case_plan(phantom)
            with _context(where):
                chained = phantom.image, apply_chain(plan.chain, phantom.image)
                ref, test = plan.prepare(*chained)
            if case == 0:
                for lint in lint_configuration(*chained, plan):
                    report.lints.append(replace(lint, message=(
                        f"[{scenario.scenario_id}/{variant.label}] {lint.message}")))
            pipeline = variant.pipeline_fingerprint(plan)
            for metric_id in plan.metrics:
                with _context(f"{where}, metric {metric_id}"):
                    score = plan.score(metric_id, ref, test)
                fp = merge_fingerprints(score.params_fingerprint, pipeline)
                report.rows.append(Row(_case_id(phantom), scenario.scenario_id,
                                       variant.label, metric_id, fp, score.value))
                scores.setdefault((variant.label, metric_id), []).append(score.value)
    report.rows.sort(key=lambda r: (r.case_id, r.variant, r.metric_id))
    mean_rows = []
    for variant in scenario.variants:
        for metric_id in variant.plan.metrics:
            vals = scores[(variant.label, metric_id)]
            fp = fingerprint(aggregate="mean", n=len(vals))
            mean_rows.append(Row("mean", scenario.scenario_id, variant.label,
                                 metric_id, fp, float(np.mean(vals))))
    mean_rows.sort(key=lambda r: (r.variant, r.metric_id))
    report.rows.extend(mean_rows)
    return report


def reevaluate_row(row: Row, config: HarnessConfig | None = None) -> float:
    """Recompute one report row from its coordinates (reproducibility check)
    by running :func:`run_scenario` on its phantom, variant and metric alone."""
    config = config or HarnessConfig()
    scenario = builtin_scenario(row.scenario)
    variant = next((v for v in scenario.variants if v.label == row.variant), None)
    if variant is None:
        raise ConfigError(f"no variant {row.variant!r} in {row.scenario}")
    if not row.case_id.startswith("case_"):
        raise ConfigError(f"cannot re-evaluate aggregate row {row.case_id!r}")
    seed = int(row.case_id[len("case_"):])
    phantom = generate_phantom(seed, config.phantom_params)
    # The plan rejects an unknown metric id and lists the registered ones.
    variant = replace(variant, plan=replace(variant.plan, metrics=(row.metric_id,)))
    cell = run_scenario(Scenario(row.scenario, (variant,)), [phantom]).rows[0]
    if cell.params_fingerprint != row.params_fingerprint:
        raise ConfigError(
            f"fingerprint mismatch for {row.case_id}/{row.variant}/{row.metric_id}: "
            f"{cell.params_fingerprint} != {row.params_fingerprint}")
    return cell.score


# ---------------------------------------------------------------------------
# Lint engine
# ---------------------------------------------------------------------------

_ERROR_METRICS = frozenset({"mae", "mse", "psnr"})
_RANGE_TOL = 0.05


def _ranges_differ(ref: Image, test: Image) -> bool:
    span_r = float(ref.data.max()) - float(ref.data.min())
    span_t = float(test.data.max()) - float(test.data.min())
    scale = max(abs(span_r), abs(span_t))
    return scale > 0 and abs(span_r - span_t) > _RANGE_TOL * scale


def lint_configuration(ref: Image, test: Image, plan: EvalPlan) -> list[Lint]:
    """W01..W05 pitfall checks; lints are data and never change scores."""
    lints: list[Lint] = []
    differ = _ranges_differ(ref, test)
    if differ and plan.norm.kind == "none" and plan.prebin is None:
        lints.append(Lint("warning", "W01",
                          "image intensity ranges differ by more than 5% and no "
                          "normalization is configured; scores will mix range "
                          "effects with content differences"))
    if differ and plan.range_policy.kind in ("ref", "test"):
        lints.append(Lint("warning", "W02",
                          f"per-image data-range policy ({plan.range_policy.kind}) "
                          "while image ranges differ; SSIM/PSNR depend directly "
                          "on the chosen range"))
    if isinstance(plan.mask, Mask):
        windowed = [m for m in plan.metrics if metric_kind(m) == "windowed"]
        if windowed:
            lints.append(Lint("error", "W03",
                              f"non-rectangular mask with windowed metrics "
                              f"{windowed}; windowed metrics support only masks "
                              "that are exactly a filled rectangle (evaluated as "
                              "a crop)"))
    if plan.prebin is not None and "nmi" in plan.metrics \
            and plan.prebin != plan.nmi_bins:
        lints.append(Lint("warning", "W04",
                          f"nmi internal bins ({plan.nmi_bins}) differ from "
                          f"pre-binning bins ({plan.prebin}); non-matching bin "
                          "counts artificially reduce similarity (binned images "
                          "are scored on integer bin indices)"))
    has_blur = any(spec.kind == "gaussian_blur" for spec in plan.chain)
    if has_blur and set(plan.metrics) <= _ERROR_METRICS:
        lints.append(Lint("warning", "W05",
                          "metric panel contains only error metrics while a blur "
                          "distortion is configured; error metrics favor blurred "
                          "images, add a dependency metric such as nmi"))
    return lints
