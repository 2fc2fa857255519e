"""The evaluation harness (Section 5).

Everything needed to regenerate the paper's tables and figures:

- :mod:`repro.experiments.context` — shared experiment setup (dataset,
  study traces, signature provider, model factories),
- :mod:`repro.experiments.accuracy` — trace-replay accuracy measurement,
- :mod:`repro.experiments.crossval` — leave-one-user-out evaluation,
- :mod:`repro.experiments.latency` — the accuracy↔latency regression
  over replayed latencies,
- :mod:`repro.experiments.report` — table formatting and paper-vs-
  measured comparison rows,
- :mod:`repro.experiments.runner` — one ``run_*`` function per table,
  figure and ablation, which the figure benches under ``benchmarks/``
  call.
"""

from repro.experiments.accuracy import AccuracyResult, replay_engine
from repro.experiments.context import ExperimentContext
from repro.experiments.crossval import evaluate_engine_cv, leave_one_user_out
from repro.experiments.latency import LatencyPoint, linear_fit
from repro.experiments.report import Table

__all__ = [
    "AccuracyResult",
    "ExperimentContext",
    "LatencyPoint",
    "Table",
    "evaluate_engine_cv",
    "leave_one_user_out",
    "linear_fit",
    "replay_engine",
]
