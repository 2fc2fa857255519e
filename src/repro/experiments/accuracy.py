"""Trace-replay accuracy measurement (Section 5.2.2).

Models are stepped through request logs one request at a time; after
each request the engine produces its top-``k`` predictions, and a *hit*
is recorded when the user's next request is among them.  This equals the
middleware cache hit rate when ``k`` tiles can be fetched per think
time.  Accuracy is bucketed by the analysis phase of the predicted
(next) request, matching the per-phase plots of Figures 10 and 11.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.core.engine import PredictionEngine
from repro.phases.model import AnalysisPhase
from repro.users.session import Trace

#: The paper sweeps prefetch budgets 1..8 (9 is guaranteed-correct).
DEFAULT_KS: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)


class AccuracyResult:
    """Hit/total counters bucketed by (phase, k)."""

    def __init__(self) -> None:
        self._hits: Counter[tuple[AnalysisPhase | None, int]] = Counter()
        self._totals: Counter[tuple[AnalysisPhase | None, int]] = Counter()

    def record(self, phase: AnalysisPhase | None, k: int, hit: bool) -> None:
        """Log one prediction outcome."""
        self._totals[(phase, k)] += 1
        if hit:
            self._hits[(phase, k)] += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def accuracy(self, k: int, phase: AnalysisPhase | None = None) -> float:
        """Hit rate at budget ``k``; ``phase=None`` aggregates all phases."""
        if phase is not None:
            total = self._totals[(phase, k)]
            return self._hits[(phase, k)] / total if total else 0.0
        hits = sum(h for (p, kk), h in self._hits.items() if kk == k)
        total = sum(t for (p, kk), t in self._totals.items() if kk == k)
        return hits / total if total else 0.0

    def sample_count(self, k: int, phase: AnalysisPhase | None = None) -> int:
        """Number of predictions evaluated in a bucket."""
        if phase is not None:
            return self._totals[(phase, k)]
        return sum(t for (p, kk), t in self._totals.items() if kk == k)


def replay_engine(
    engine: PredictionEngine,
    traces: Sequence[Trace],
    ks: Sequence[int] = DEFAULT_KS,
    result: AccuracyResult | None = None,
) -> AccuracyResult:
    """Step an engine through traces, recording top-k hit rates.

    The engine must already be trained; its session state is reset per
    trace.  Predictions are one step ahead (``d = 1``), as in the paper.
    """
    if result is None:
        result = AccuracyResult()
    for trace in traces:
        engine.reset()
        for i, request in enumerate(trace.requests):
            engine.observe(request.move, request.tile)
            if i + 1 >= len(trace.requests):
                break
            next_request = trace.requests[i + 1]
            for k in ks:
                prediction = engine.predict(k)
                hit = next_request.tile in prediction.tiles
                result.record(next_request.phase, k, hit)
    return result
