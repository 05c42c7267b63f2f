"""Report assembly and serialization (CSV and markdown)."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .metrics.score import format_score

__all__ = ["Row", "Lint", "Report", "write_report"]

CSV_COLUMNS = ("case_id", "scenario", "variant", "metric_id",
               "params_fingerprint", "score")


@dataclass(frozen=True)
class Row:
    case_id: str
    scenario: str
    variant: str
    metric_id: str
    params_fingerprint: str
    score: float


@dataclass(frozen=True)
class Lint:
    severity: str  # "warning" | "error"
    code: str      # W01..W05
    message: str

    def line(self) -> str:
        return f"{self.severity.upper()} {self.code} {self.message}"


@dataclass
class Report:
    rows: list[Row] = field(default_factory=list)
    lints: list[Lint] = field(default_factory=list)

    def extend(self, other: "Report") -> None:
        self.rows.extend(other.rows)
        self.lints.extend(other.lints)


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow([r.case_id, r.scenario, r.variant, r.metric_id,
                         r.params_fingerprint, format_score(r.score)])
    return buf.getvalue()


def render_markdown(report: Report) -> str:
    """One table per scenario: mean scores, metrics x variants."""
    out: list[str] = ["# Metric audit report", ""]
    scenarios: dict[str, list[Row]] = {}
    for r in report.rows:
        scenarios.setdefault(r.scenario, []).append(r)
    for scenario_id in sorted(scenarios):
        rows = scenarios[scenario_id]
        means = [r for r in rows if r.case_id == "mean"]
        table = means if means else rows
        variants: list[str] = []
        metrics: list[str] = []
        cells: dict[tuple[str, str], float] = {}
        for r in table:
            if r.variant not in variants:
                variants.append(r.variant)
            if r.metric_id not in metrics:
                metrics.append(r.metric_id)
            cells[(r.metric_id, r.variant)] = r.score
        n_cases = len({r.case_id for r in rows if r.case_id != "mean"})
        out.append(f"## {scenario_id}")
        out.append("")
        out.append(f"Mean scores over {n_cases} cases.")
        out.append("")
        out.append("| metric | " + " | ".join(variants) + " |")
        out.append("|---" * (len(variants) + 1) + "|")
        for m in metrics:
            vals = []
            for v in variants:
                score = cells.get((m, v))
                vals.append("" if score is None else
                            ("inf" if math.isinf(score) else f"{score:.4f}"))
            out.append(f"| {m} | " + " | ".join(vals) + " |")
        out.append("")
    if report.lints:
        out.append("## Lints")
        out.append("")
        for l in report.lints:
            out.append(f"- {l.line()}")
        out.append("")
    return "\n".join(out)


def write_report(report: Report, path, format: str = "csv") -> None:
    """Write the report; CSV columns are exactly the contract columns."""
    path = Path(path)
    if format == "csv":
        path.write_text(render_csv(report))
    elif format == "markdown":
        path.write_text(render_markdown(report))
    else:
        raise ConfigError(f"unknown report format {format!r}")
