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

from .distort import apply_chain, chain_fingerprint, chain_from_json, parse_chain
from .errors import RefmetError, config_value, read_json
from .harness import (EvalPlan, HarnessConfig, PHANTOM_SEED, SCENARIO_IDS,
                      builtin_scenario, generate_phantoms, lint_configuration, run_scenario)
from .image import (Image, load_image, mask_from_image, mask_to_image,
                    require_same_shape, save_image)
from .metrics import format_score
from .normalize import DataRangePolicy, NormMethod
# Not called here (EvalPlan's methods call them), but perfbench/tracer.py
# hooks these names on this module, so they must stay importable from it.
from .metrics import evaluate, masked_evaluate  # noqa: F401
from .normalize import bin_quantize, normalize  # noqa: F401
from .phantom import PhantomParams, generate_phantom
from .report import Report, write_report

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
    p.add_argument("--strict", action="store_true",
                   help="treat any lint as failure (exit 2)")

    p = sub.add_parser("distort", help="apply a distortion chain to an image")
    p.add_argument("input")
    p.add_argument("spec", help="JSON file or inline JSON (object or array)")
    p.add_argument("output")

    p = sub.add_parser("phantom", help="generate synthetic phantoms")
    p.add_argument("out_dir")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=PHANTOM_SEED)

    p = sub.add_parser("audit", help="run built-in pitfall scenarios")
    p.add_argument("--scenario", default="all", choices=(*SCENARIO_IDS, "all"))
    p.add_argument("--config", default=None, help="harness config JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("lint", help="check an evaluation plan for pitfalls")
    p.add_argument("ref")
    p.add_argument("test")
    p.add_argument("--config", default=None, help="evaluation plan JSON")
    return parser


def _plan(ref: Image, metrics, norm: str, range_policy: str, prebin, nmi_bins,
          chain=(), mask: str | None = None) -> EvalPlan:
    """The ``EvalPlan`` of ``compare`` and ``lint`` from their user text. A
    mask path is read here once, and the mask must have the reference's shape."""
    if mask:
        mask = mask_from_image(load_image(mask))
        require_same_shape(ref, mask)
    return EvalPlan(metrics=tuple(metrics), norm=NormMethod.parse(norm),
                    range_policy=DataRangePolicy.parse(range_policy),
                    prebin=prebin, nmi_bins=nmi_bins, chain=chain, mask=mask)


def _cmd_compare(args) -> int:
    ref = load_image(args.ref)
    test = load_image(args.test)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    plan = _plan(ref, metrics, args.norm, args.range_policy,
                 args.prebin, args.bins, mask=args.mask)
    lints = lint_configuration(ref, test, plan)
    for lint in lints:
        print(lint.line(), file=sys.stderr)
    if args.strict and lints:
        return EXIT_LINT
    ref, test = plan.prepare(ref, test)
    # Each line is printed before the next metric runs, so a failing metric
    # leaves the lines of the ones before it.
    for metric_id in plan.metrics:
        score = plan.score(metric_id, ref, test)
        print(f"{score.metric_id}\t{format_score(score.value)}\t"
              f"{score.params_fingerprint}")
    return EXIT_OK


def _cmd_distort(args) -> int:
    img = load_image(args.input)
    # Inline JSON is an array or object; anything else names a file.
    spec = args.spec
    if spec.lstrip()[:1] in ("[", "{"):
        chain = parse_chain(spec)
    else:
        chain = chain_from_json(read_json(spec, "an object or array", "distortion chain"))
    out = apply_chain(chain, img)
    save_image(out, args.output)
    print(chain_fingerprint(chain))
    return EXIT_OK


def _cmd_phantom(args) -> int:
    if args.count < 1:
        raise RefmetError(f"--count must be >= 1, got {args.count}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(args.count):
        seed = args.seed + i
        ph = generate_phantom(seed)
        img_name = f"phantom_{seed}.rawf32"
        tumor_name = f"phantom_{seed}_tumor.pgm"
        fg_name = f"phantom_{seed}_foreground.pgm"
        save_image(ph.image, out_dir / img_name)
        save_image(mask_to_image(ph.tumor_mask), out_dir / tumor_name)
        save_image(mask_to_image(ph.foreground_mask), out_dir / fg_name)
        entries.append({"seed": seed, "image": img_name, "tumor_mask": tumor_name,
                        "foreground_mask": fg_name})
    manifest = {"count": args.count, "base_seed": args.seed,
                "dims": list(PhantomParams().dims), "phantoms": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {args.count} phantoms to {out_dir}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    config = HarnessConfig.load(args.config) if args.config else HarnessConfig()
    ids = SCENARIO_IDS if args.scenario == "all" else (args.scenario,)
    out_dir = Path(args.out if args.out else config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    phantoms = generate_phantoms(config)
    full = Report()
    for scenario_id in ids:
        scenario = builtin_scenario(scenario_id)
        part = run_scenario(scenario, phantoms)
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


def _cmd_lint(args) -> int:
    ref = load_image(args.ref)
    test = load_image(args.test)
    config = read_json(args.config, "an object", "lint config") if args.config else {}
    known = {"metrics", "norm", "range", "prebin", "nmi_bins", "chain", "mask"}
    extra = set(config) - known
    if extra:
        raise RefmetError(f"unknown lint config keys {sorted(extra)}")
    get = partial(config_value, config)
    plan = _plan(ref, get("metrics", "a list of strings", ("mae", "mse", "psnr", "ssim")),
                 get("norm", "a string", "none"), get("range", "a string", "joint"),
                 get("prebin", "an integer"), get("nmi_bins", "an integer", 256),
                 chain_from_json(get("chain", "an object or array", [])),
                 get("mask", "a string"))
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


if __name__ == "__main__":
    sys.exit(main())
