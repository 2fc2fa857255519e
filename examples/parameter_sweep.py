"""Run a small parameter sweep and gate it against itself.

Run with::

    python examples/parameter_sweep.py [--spec smoke] [--keep DIR]

Walks the whole harness loop in one sitting: expand a declarative grid
spec into cells, execute each cell through the real serving stack
(resumable — re-running the example skips completed cells), aggregate
the per-cell records into a ``BENCH_<date>_<sha>.json`` snapshot, print
the markdown report, and run the regression gate (self-comparison here,
so it always passes).  The CI trajectory does exactly this with
``--spec ci`` against the committed baseline in
``benchmarks/trajectory/``.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.sweep import resolve_spec, run_sweep  # noqa: E402
from repro.experiments.sweep.cli import main as sweep_cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--spec",
        default="smoke",
        help="built-in spec (smoke, ci, ci-push, ci-overload, ci-cluster)",
    )
    parser.add_argument(
        "--keep",
        default=None,
        metavar="DIR",
        help="persist results/snapshot under DIR (default: temp dir)",
    )
    args = parser.parse_args()

    spec = resolve_spec(args.spec)
    print(f"spec {spec.name!r}: {len(spec.cells())} cells")
    print(f"axes: {', '.join(spec.parameters)}")
    print()

    with tempfile.TemporaryDirectory() as scratch:
        base = Path(args.keep) if args.keep else Path(scratch)
        results = base / "results"
        trajectory = base / "trajectory"

        summary = run_sweep(spec, results, log=print)
        print(
            f"\n{len(summary.executed)} executed, "
            f"{len(summary.skipped)} skipped (resume)\n"
        )

        code = sweep_cli(
            [
                "snapshot",
                "--spec",
                args.spec,
                "--results-dir",
                str(results),
                "--out-dir",
                str(trajectory),
            ]
        )
        if code:
            return code
        print()
        sweep_cli(["report", "--current", str(trajectory)])
        print()
        return sweep_cli(
            [
                "compare",
                "--baseline",
                str(trajectory),
                "--current",
                str(trajectory),
            ]
        )


if __name__ == "__main__":
    raise SystemExit(main())
