"""Command-line front end of the sweep harness.

Invoked as ``python experiments/sweep.py <command>`` (the repo-root shim)
or ``python -m repro.experiments.sweep.cli``::

    run      --spec ci --results-dir . # execute (resumable) cell runs
    snapshot --spec ci --results-dir . --out-dir benchmarks/trajectory
    compare  [--baseline ...] [--current ...] [--tol-latency 0.25] ...
    report   --current ...             # markdown tables of one snapshot

``compare`` with no arguments gates the *latest* snapshot in
``benchmarks/trajectory/`` against the previous one (with a single
committed snapshot it self-compares and notes it — a fresh tree always
passes).  Exit status: 0 = gate passed, 1 = gated regression, 2 = usage
or data error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.report import Table
from repro.experiments.sweep.compare import Tolerances, compare_snapshots
from repro.experiments.sweep.run import run_sweep
from repro.experiments.sweep.snapshot import (
    SnapshotError,
    build_snapshot,
    find_snapshots,
    latest_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.experiments.sweep.spec import SweepSpecError, resolve_spec

#: Where the committed perf trajectory lives, relative to the repo root.
DEFAULT_TRAJECTORY_DIR = Path("benchmarks") / "trajectory"

#: Default scratch directory for per-cell records.
DEFAULT_RESULTS_DIR = Path(".sweep-results")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweep.py",
        description="Parameter-sweep harness with a persisted perf trajectory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--spec",
            default="ci",
            help="built-in spec name (ci, ci-push, ci-overload, ci-cluster, smoke)",
        )

    p_run = sub.add_parser("run", help="execute the sweep (resumable)")
    add_spec(p_run)
    p_run.add_argument(
        "--results-dir",
        default=str(DEFAULT_RESULTS_DIR),
        help="per-cell record directory (resume skips completed cells)",
    )
    p_run.add_argument(
        "--force",
        action="store_true",
        help="re-run every cell even if its record exists",
    )

    p_snap = sub.add_parser(
        "snapshot", help="aggregate cell records into BENCH_<date>_<sha>.json"
    )
    add_spec(p_snap)
    p_snap.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR))
    p_snap.add_argument(
        "--out-dir",
        default=str(DEFAULT_TRAJECTORY_DIR),
        help="directory the snapshot is written into",
    )
    p_snap.add_argument(
        "--allow-partial",
        action="store_true",
        help="snapshot even if some cells have not run",
    )
    p_snap.add_argument(
        "--git-sha", default=None, help="override the recorded git sha"
    )

    p_cmp = sub.add_parser(
        "compare", help="gate a snapshot against a baseline (exit 1 on fail)"
    )
    p_cmp.add_argument(
        "--baseline",
        default=None,
        help="baseline snapshot file or trajectory dir "
        f"(default: previous snapshot in {DEFAULT_TRAJECTORY_DIR})",
    )
    p_cmp.add_argument(
        "--current",
        default=None,
        help="current snapshot file or dir "
        f"(default: latest snapshot in {DEFAULT_TRAJECTORY_DIR})",
    )
    p_cmp.add_argument(
        "--tol-latency",
        type=float,
        default=Tolerances.latency_increase,
        help="allowed relative latency growth (default %(default)s)",
    )
    p_cmp.add_argument(
        "--tol-latency-slack-ms",
        type=float,
        default=Tolerances.latency_slack_ms,
        help="absolute latency slack in ms (default %(default)s)",
    )
    p_cmp.add_argument(
        "--tol-hit-rate",
        type=float,
        default=Tolerances.hit_rate_drop,
        help="allowed absolute hit-rate drop (default %(default)s)",
    )
    p_cmp.add_argument(
        "--markdown", action="store_true", help="render markdown tables"
    )

    p_rep = sub.add_parser(
        "report", help="markdown tables for one snapshot's metrics"
    )
    p_rep.add_argument(
        "--current",
        default=None,
        help="snapshot file or dir (default: latest committed snapshot)",
    )

    return parser


def _resolve_snapshot_ref(ref: str | None, role: str) -> Path:
    """A snapshot path from a file, a directory, or the default dir."""
    base = Path(ref) if ref is not None else DEFAULT_TRAJECTORY_DIR
    if base.is_file():
        return base
    chosen = latest_snapshot(base)
    if chosen is None:
        raise SnapshotError(
            f"no {role} snapshot: {base} has no BENCH_*.json"
        )
    return chosen


def _cmd_run(args) -> int:
    spec = resolve_spec(args.spec)
    summary = run_sweep(
        spec, args.results_dir, force=args.force, log=print
    )
    print(
        f"sweep {spec.name!r}: {len(summary.executed)} executed, "
        f"{len(summary.skipped)} skipped (resume), "
        f"{summary.total} total -> {args.results_dir}"
    )
    return 0


def _cmd_snapshot(args) -> int:
    from repro.experiments.sweep.run import cell_path, load_cell_record
    from repro.experiments.sweep.run import CellResult

    spec = resolve_spec(args.spec)
    results = []
    for cell in spec.cells():
        record = load_cell_record(cell_path(args.results_dir, cell.cell_id))
        if record is not None and record["params"] == cell.params:
            results.append(CellResult.from_record(record))
    snapshot = build_snapshot(
        spec,
        results,
        git_sha=args.git_sha,
        allow_partial=args.allow_partial,
    )
    path = write_snapshot(snapshot, args.out_dir)
    print(f"wrote {path} ({len(snapshot['cells'])} cells)")
    return 0


def _cmd_compare(args) -> int:
    current_path = _resolve_snapshot_ref(args.current, "current")
    note = None
    if args.baseline is not None:
        baseline_path = _resolve_snapshot_ref(args.baseline, "baseline")
        if baseline_path == current_path:
            history = find_snapshots(baseline_path.parent)
            earlier = [p for p in history if p != current_path]
            if earlier:
                baseline_path = earlier[-1]
            else:
                note = (
                    "only one committed snapshot; self-comparison "
                    "(trivially passes)"
                )
    else:
        history = find_snapshots(DEFAULT_TRAJECTORY_DIR)
        earlier = [p for p in history if p != current_path]
        if earlier:
            baseline_path = earlier[-1]
        else:
            baseline_path = current_path
            note = (
                "only one committed snapshot; self-comparison "
                "(trivially passes)"
            )
    tolerances = Tolerances(
        latency_increase=args.tol_latency,
        latency_slack_ms=args.tol_latency_slack_ms,
        hit_rate_drop=args.tol_hit_rate,
    )
    report = compare_snapshots(
        load_snapshot(baseline_path),
        load_snapshot(current_path),
        tolerances=tolerances,
        baseline_label=str(baseline_path),
        current_label=str(current_path),
    )
    if note:
        report.notes.append(note)
    print(report.render(markdown=args.markdown))
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    path = _resolve_snapshot_ref(args.current, "current")
    snapshot = load_snapshot(path)
    print(f"# Sweep snapshot {path.name}")
    print(
        f"\nspec: {snapshot['spec']['name']} | commit: "
        f"{snapshot['git_sha']} | created: {snapshot['created_utc']}\n"
    )
    table = Table(
        [
            "cell",
            "requests",
            "hit rate",
            "avg ms",
            "p95 ms",
            "p99 ms",
            "req/s",
        ],
        title="Per-cell metrics",
    )
    for cell_id, cell in sorted(snapshot["cells"].items()):
        m = cell["metrics"]
        table.add_row(
            cell_id,
            str(m["requests"]),
            f"{m['hit_rate']:.3f}",
            f"{m['avg_ms']:.1f}",
            f"{m['p95_ms']:.1f}",
            f"{m['p99_ms']:.1f}",
            f"{m['throughput_rps']:.0f}",
        )
    print(table.to_markdown())
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "snapshot": _cmd_snapshot,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SweepSpecError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
