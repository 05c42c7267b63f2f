"""Command-line surface: compare, distort, phantom, audit, lint.

Exit codes are stable across commands: 0 success, 1 hard error (I/O,
bad arguments, precondition failures), 2 lint failure (any lint under
``--strict``, or any lint at all for the ``lint`` command). Output meant
for machine parsing goes to stdout; diagnostics go to stderr. Repeated
runs with identical inputs and flags produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from .distort import apply_chain, chain_fingerprint, parse_chain
from .errors import RefmetError, config_value
from .harness import (EvalPlan, HarnessConfig, SCENARIO_IDS, builtin_scenario,
                      generate_phantoms, lint_configuration, run_scenario)
from .image import load_image, mask_from_image, mask_to_image, save_image
from .metrics import RefWorkspace, format_score
from .normalize import DataRangePolicy, NormMethod
# Not called here (EvalPlan's methods call them), but perfbench/tracer.py
# hooks these names on this module, so they must stay importable from it.
from .metrics import evaluate, masked_evaluate  # noqa: F401
from .normalize import bin_quantize, normalize  # noqa: F401
from .phantom import PhantomParams, generate_phantom
from .report import Report, Row, write_report

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LINT = 2


class _Parser(argparse.ArgumentParser):
    """argparse parser with the package's exit-code contract (1, not 2)."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="refmet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compare", help="score a test image against a reference")
    p.add_argument("ref")
    p.add_argument("test")
    p.add_argument("--metrics", default="mae,mse,psnr,ssim",
                   help="comma-separated metric ids")
    p.add_argument("--norm", default="none",
                   help="minmax | zscore | none | custom:a=..,b=..")
    p.add_argument("--range", default="joint", dest="range_policy",
                   help="joint | ref | test | fixed:L=..")
    p.add_argument("--mask", default=None, help="mask image path (values > 0.5)")
    p.add_argument("--bins", type=int, default=256,
                   help="internal histogram bins for mi/nmi")
    p.add_argument("--prebin", type=int, default=None,
                   help="bin-quantize both images to N bins before scoring")
    p.add_argument("--out", default=None, help="also write scores as CSV")
    p.add_argument("--strict", action="store_true",
                   help="treat any lint as failure (exit 2)")

    p = sub.add_parser("distort", help="apply a distortion chain to an image")
    p.add_argument("input")
    p.add_argument("spec", help="JSON file or inline JSON (object or array)")
    p.add_argument("output")

    p = sub.add_parser("phantom", help="generate synthetic phantoms")
    p.add_argument("out_dir")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--dims", default="192,192", help="H,W")
    p.add_argument("--tumor-half", default="lower",
                   choices=("lower", "upper", "either"))

    p = sub.add_parser("audit", help="run built-in pitfall scenarios")
    p.add_argument("--scenario", default="all",
                   help="one of %s or 'all'" % (", ".join(SCENARIO_IDS)))
    p.add_argument("--config", default=None, help="harness config JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("lint", help="check an evaluation plan for pitfalls")
    p.add_argument("ref")
    p.add_argument("test")
    p.add_argument("--config", default=None, help="evaluation plan JSON")
    return parser


def _parse_metrics(text: str) -> tuple[str, ...]:
    ids = tuple(m.strip() for m in text.split(",") if m.strip())
    if not ids:
        raise RefmetError("empty metric list")
    return ids


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise RefmetError(f"dims must look like H,W, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise RefmetError(f"bad dims {text!r}") from None


def _cmd_compare(args) -> int:
    ref = load_image(args.ref)
    test = load_image(args.test)
    plan = EvalPlan(metrics=_parse_metrics(args.metrics),
                    norm=NormMethod.parse(args.norm),
                    range_policy=DataRangePolicy.parse(args.range_policy),
                    prebin=args.prebin, nmi_bins=args.bins,
                    mask=mask_from_image(load_image(args.mask)) if args.mask else None)
    lints = lint_configuration(ref, test, plan)
    for lint in lints:
        print(lint.line(), file=sys.stderr)
    if args.strict and lints:
        return EXIT_LINT
    ref, test = plan.prepare(ref, test)
    rows = []
    ws = RefWorkspace()
    # Each line is printed before the next metric runs, so a failing metric
    # leaves the lines of the ones before it.
    for metric_id in plan.metrics:
        score = plan.score(metric_id, ref, test, ws)
        print(f"{score.metric_id}\t{format_score(score.value)}\t"
              f"{score.params_fingerprint}")
        rows.append(Row("pair", "compare", "direct", score.metric_id,
                        score.params_fingerprint, score.value))
    if args.out:
        write_report(Report(rows=rows, lints=lints), args.out, "csv")
    return EXIT_OK


def _cmd_distort(args) -> int:
    img = load_image(args.input)
    # Inline JSON is an array or object; anything else names a file.
    spec = args.spec
    text = spec if spec.lstrip()[:1] in ("[", "{") else Path(spec).read_text()
    chain = parse_chain(text)
    out = apply_chain(chain, img)
    save_image(out, args.output)
    print(chain_fingerprint(chain))
    return EXIT_OK


def _cmd_phantom(args) -> int:
    if args.count < 1:
        raise RefmetError(f"--count must be >= 1, got {args.count}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = PhantomParams(dims=_parse_dims(args.dims), tumor_half=args.tumor_half)
    entries = []
    for i in range(args.count):
        seed = args.seed + i
        ph = generate_phantom(seed, params)
        img_name = f"phantom_{seed}.rawf32"
        tumor_name = f"phantom_{seed}_tumor.pgm"
        fg_name = f"phantom_{seed}_foreground.pgm"
        save_image(ph.image, out_dir / img_name)
        save_image(mask_to_image(ph.tumor_mask), out_dir / tumor_name)
        save_image(mask_to_image(ph.foreground_mask), out_dir / fg_name)
        entries.append({"seed": seed, "image": img_name, "tumor_mask": tumor_name,
                        "foreground_mask": fg_name})
    manifest = {"count": args.count, "base_seed": args.seed,
                "dims": list(params.dims), "tumor_half": params.tumor_half,
                "phantoms": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {args.count} phantoms to {out_dir}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    config = HarnessConfig.load(args.config) if args.config else HarnessConfig()
    if args.scenario == "all":
        ids = config.scenarios
    elif args.scenario in SCENARIO_IDS:
        ids = (args.scenario,)
    else:
        raise RefmetError(f"unknown scenario {args.scenario!r}; "
                          f"available: {', '.join(SCENARIO_IDS)}, all")
    out_dir = Path(args.out if args.out else config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    phantoms = generate_phantoms(config)
    full = Report()
    for scenario_id in ids:
        scenario = builtin_scenario(scenario_id)
        part = run_scenario(scenario, phantoms, config)
        full.extend(part)
        print(f"{scenario_id}\t{len(part.rows)}\t{len(part.lints)}")
    if "csv" in config.out_formats:
        write_report(full, out_dir / "report.csv", "csv")
    if "markdown" in config.out_formats:
        write_report(full, out_dir / "report.md", "markdown")
    for lint in full.lints:
        print(lint.line(), file=sys.stderr)
    print(f"report written to {out_dir}", file=sys.stderr)
    if args.strict and full.lints:
        return EXIT_LINT
    return EXIT_OK


def _plan_from_json(obj: dict) -> EvalPlan:
    if not isinstance(obj, dict):
        raise RefmetError("lint config must be a JSON object")
    known = {"metrics", "norm", "range", "prebin", "nmi_bins", "chain", "mask"}
    extra = set(obj) - known
    if extra:
        raise RefmetError(f"unknown lint config keys {sorted(extra)}")
    get = partial(config_value, obj)
    mask = get("mask", "a string")
    return EvalPlan(
        metrics=tuple(get("metrics", "a list of strings",
                          ("mae", "mse", "psnr", "ssim"))),
        norm=NormMethod.parse(get("norm", "a string", "none")),
        range_policy=DataRangePolicy.parse(get("range", "a string", "joint")),
        prebin=get("prebin", "an integer"),
        nmi_bins=get("nmi_bins", "an integer", 256),
        chain=parse_chain(json.dumps(get("chain", "an object or array", []))),
        mask=mask_from_image(load_image(mask)) if mask else None,
    )


def _cmd_lint(args) -> int:
    ref = load_image(args.ref)
    test = load_image(args.test)
    config = json.loads(Path(args.config).read_text()) if args.config else {}
    plan = _plan_from_json(config)
    lints = lint_configuration(ref, test, plan)
    for lint in lints:
        print(f"{lint.code}\t{lint.severity}\t{lint.message}")
    return EXIT_LINT if lints else EXIT_OK


_COMMANDS = {
    "compare": _cmd_compare,
    "distort": _cmd_distort,
    "phantom": _cmd_phantom,
    "audit": _cmd_audit,
    "lint": _cmd_lint,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except RefmetError as exc:
        print(f"refmet {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"refmet {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except json.JSONDecodeError as exc:
        print(f"refmet {args.command}: bad JSON: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
