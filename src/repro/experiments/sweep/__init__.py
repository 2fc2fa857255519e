"""Parameter-sweep experiment harness (grid runner + perf trajectory).

Declarative grids over users x shards x hotspot modes x workloads x
front ends, executed through the real serving stack with
resumable per-cell persistence, aggregated into schema-versioned
``BENCH_<date>_<sha>.json`` snapshots, and gated by a tolerance-based
regression compare.  See :mod:`repro.experiments.sweep.spec` for the
spec format and ``experiments/sweep.py`` for the CLI.
"""

from repro.experiments.sweep.compare import (
    CompareReport,
    Regression,
    Tolerances,
    compare_snapshots,
)
from repro.experiments.sweep.run import (
    CellResult,
    SweepRunSummary,
    run_cell,
    run_sweep,
)
from repro.experiments.sweep.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotError,
    build_snapshot,
    find_snapshots,
    latest_snapshot,
    load_snapshot,
    snapshot_filename,
    write_snapshot,
)
from repro.experiments.sweep.spec import (
    BUILTIN_SPECS,
    DuplicateCellError,
    EmptyGridError,
    SweepCell,
    SweepSpec,
    SweepSpecError,
    UnknownParameterError,
    resolve_spec,
)

__all__ = [
    "BUILTIN_SPECS",
    "CellResult",
    "CompareReport",
    "DuplicateCellError",
    "EmptyGridError",
    "Regression",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotError",
    "SweepCell",
    "SweepRunSummary",
    "SweepSpec",
    "SweepSpecError",
    "Tolerances",
    "UnknownParameterError",
    "build_snapshot",
    "compare_snapshots",
    "find_snapshots",
    "latest_snapshot",
    "load_snapshot",
    "resolve_spec",
    "run_cell",
    "run_sweep",
    "snapshot_filename",
    "write_snapshot",
]
