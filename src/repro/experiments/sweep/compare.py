"""The bench-regression gate: diff two trajectory snapshots.

``compare_snapshots(baseline, current)`` walks every cell the two
snapshots share and gates on the *deterministic* metrics — virtual
latency (avg/p50/p95/p99) and hit rate.  Wall-clock throughput varies
with the machine and run, so a throughput drop (or any cell-set change)
is reported as a warning, never a failure.  The CLI exits non-zero
exactly when ``CompareReport.ok`` is false, which is what CI wires into
the ``bench-trajectory`` job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.report import Table

#: Virtual-latency metrics the gate enforces (milliseconds).
GATED_LATENCY_METRICS = ("avg_ms", "p50_ms", "p95_ms", "p99_ms")

#: Metrics reported for context but never gated (physical/wall-clock).
WARN_ONLY_METRICS = ("throughput_rps",)


@dataclass(frozen=True)
class Tolerances:
    """How much worse "current" may be before the gate fails.

    Latency gates combine a *relative* allowance with an *absolute*
    slack: a cell regresses only when
    ``current > max(baseline * (1 + latency_increase),
    baseline + latency_slack_ms)`` — the slack keeps near-zero baselines
    (an all-hit cell at ~20 ms) from flagging on float dust.
    """

    #: Allowed relative latency growth (0.25 = +25%).
    latency_increase: float = 0.25
    #: Absolute latency slack in milliseconds.
    latency_slack_ms: float = 1.0
    #: Allowed absolute hit-rate drop (0.02 = two points).
    hit_rate_drop: float = 0.02
    #: Relative throughput drop that triggers a *warning* (never fails).
    throughput_drop: float = 0.5

    def __post_init__(self) -> None:
        for name in ("latency_increase", "latency_slack_ms", "hit_rate_drop"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.throughput_drop <= 1:
            raise ValueError(
                f"throughput_drop must be in [0, 1], got {self.throughput_drop}"
            )


@dataclass(frozen=True)
class Regression:
    """One gated metric that got worse than the tolerances allow."""

    cell_id: str
    metric: str
    baseline: float
    current: float


@dataclass
class CompareReport:
    """Everything the gate decided, renderable as text or markdown."""

    baseline_label: str
    current_label: str
    tolerances: Tolerances
    regressions: list[Regression] = field(default_factory=list)
    improvements: list[Regression] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    compared_cells: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions

    def _table(self, rows: list[Regression], title: str) -> Table:
        table = Table(
            ["cell", "metric", "baseline", "current", "delta"], title=title
        )
        for row in rows:
            delta = row.current - row.baseline
            table.add_row(
                row.cell_id,
                row.metric,
                f"{row.baseline:.4g}",
                f"{row.current:.4g}",
                f"{delta:+.4g}",
            )
        return table

    def render(self, markdown: bool = False) -> str:
        """The human-readable verdict (markdown for CI job summaries)."""
        lines = [
            f"baseline: {self.baseline_label}",
            f"current:  {self.current_label}",
            f"cells compared: {self.compared_cells}",
        ]
        lines.extend(f"note: {note}" for note in self.notes)
        lines.append("")
        if self.regressions:
            table = self._table(self.regressions, "Regressions (gate FAILS)")
            lines.append(table.to_markdown() if markdown else str(table))
        if self.improvements:
            table = self._table(self.improvements, "Improvements")
            lines.append(table.to_markdown() if markdown else str(table))
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        lines.append("")
        verdict = (
            "OK: no gated regressions"
            if self.ok
            else f"FAIL: {len(self.regressions)} gated regression(s)"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _latency_regressed(
    baseline: float, current: float, tolerances: Tolerances
) -> bool:
    allowed = max(
        baseline * (1.0 + tolerances.latency_increase),
        baseline + tolerances.latency_slack_ms,
    )
    return current > allowed


def compare_snapshots(
    baseline: dict,
    current: dict,
    tolerances: Tolerances | None = None,
    baseline_label: str | None = None,
    current_label: str | None = None,
) -> CompareReport:
    """Gate ``current`` against ``baseline``; see the module docstring."""
    tolerances = tolerances or Tolerances()
    report = CompareReport(
        baseline_label=baseline_label
        or f"{baseline.get('git_sha')} ({baseline.get('created_utc')})",
        current_label=current_label
        or f"{current.get('git_sha')} ({current.get('created_utc')})",
        tolerances=tolerances,
    )
    base_cells = baseline["cells"]
    cur_cells = current["cells"]
    added = sorted(set(cur_cells) - set(base_cells))
    removed = sorted(set(base_cells) - set(cur_cells))
    if added:
        report.warnings.append(
            f"{len(added)} cell(s) only in current (grid grew): {added[:3]}"
        )
    if removed:
        report.warnings.append(
            f"{len(removed)} cell(s) only in baseline (grid shrank): "
            f"{removed[:3]}"
        )

    for cell_id in sorted(set(base_cells) & set(cur_cells)):
        base = base_cells[cell_id]["metrics"]
        cur = cur_cells[cell_id]["metrics"]
        report.compared_cells += 1

        for metric in GATED_LATENCY_METRICS:
            if metric not in base or metric not in cur:
                continue
            entry = Regression(cell_id, metric, base[metric], cur[metric])
            if _latency_regressed(base[metric], cur[metric], tolerances):
                report.regressions.append(entry)
            elif _latency_regressed(cur[metric], base[metric], tolerances):
                report.improvements.append(entry)

        if "hit_rate" in base and "hit_rate" in cur:
            drop = base["hit_rate"] - cur["hit_rate"]
            entry = Regression(
                cell_id, "hit_rate", base["hit_rate"], cur["hit_rate"]
            )
            if drop > tolerances.hit_rate_drop:
                report.regressions.append(entry)
            elif -drop > tolerances.hit_rate_drop:
                report.improvements.append(entry)

        for metric in WARN_ONLY_METRICS:
            if metric not in base or metric not in cur or base[metric] <= 0:
                continue
            drop = (base[metric] - cur[metric]) / base[metric]
            if drop > tolerances.throughput_drop:
                report.warnings.append(
                    f"{cell_id}: {metric} fell {drop:.0%} "
                    f"({base[metric]:.4g} -> {cur[metric]:.4g}; wall-clock, "
                    "not gated)"
                )
    return report
