#!/usr/bin/env python
"""Repo-root entry point for the parameter-sweep harness.

Usage (from the repository root, no install needed)::

    python experiments/sweep.py run      --spec ci --results-dir .sweep-results
    python experiments/sweep.py snapshot --spec ci --results-dir .sweep-results
    python experiments/sweep.py compare
    python experiments/sweep.py report

The real implementation lives in :mod:`repro.experiments.sweep`; this
shim only makes ``src/`` importable when the package is not installed.
"""

import sys
from pathlib import Path

try:
    from repro.experiments.sweep.cli import main
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.experiments.sweep.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
