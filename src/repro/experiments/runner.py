"""Experiment runner: regenerate every table and figure of Section 5.

Each ``run_*`` function returns printable report objects.  The figure
benches under ``benchmarks/`` call these functions and assert on what
they return, so ``pytest -m bench`` (downscaled with ``REPRO_SIZE`` /
``REPRO_USERS``) is how the tables and figures are regenerated.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.allocation import PaperFinalStrategy, SingleModelStrategy
from repro.experiments.accuracy import AccuracyResult, DEFAULT_KS
from repro.experiments.context import SIGNATURE_NAMES, ExperimentContext
from repro.experiments.crossval import (
    classifier_cv_accuracy,
    evaluate_engine_cv,
    leave_one_user_out,
)
from repro.experiments.latency import (
    LatencyPoint,
    improvement_percent,
    linear_fit,
)
from repro.experiments.report import Comparison, Table
from repro.experiments.sweep.run import replay_walks
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.latency import MISS_SECONDS, LatencyRecorder
from repro.phases.features import FEATURE_NAMES
from repro.phases.labeler import model_fit_fraction
from repro.phases.model import ALL_PHASES, AnalysisPhase

#: The signature the tuned hybrid engine uses — SIFT, as in the paper:
#: it measures best overall among the four signatures on our study too.
HYBRID_SIGNATURE = "sift"


def hybrid_factory(context: ExperimentContext):
    """Engine factory for the tuned two-level engine.

    Tuned per the paper's own procedure (Section 5.4.3 updates the
    allocations "based on our observed accuracy results"): on our study
    the AB model also wins Sensemaking, so no phase hands the whole
    budget to SB — AB fills the first four slots everywhere and SB tops
    up beyond k=4 (``sb_only_phase=None``).
    """

    def factory(train):
        return context.hybrid_engine(
            train,
            sb_signature=HYBRID_SIGNATURE,
            strategy=PaperFinalStrategy(
                ab_model="markov3",
                sb_model=f"sb:{HYBRID_SIGNATURE}",
                sb_only_phase=None,
            ),
        )

    return factory


def _series_table(
    title: str,
    results: dict[str, AccuracyResult],
    phase: AnalysisPhase | None,
    ks=DEFAULT_KS,
) -> Table:
    """One accuracy-vs-k table (one plotted line per model)."""
    suffix = f" — {phase.value}" if phase is not None else " — overall"
    table = Table(["model"] + [f"k={k}" for k in ks], title=title + suffix)
    for name, result in results.items():
        table.add_row(name, *(result.accuracy(k, phase) for k in ks))
    return table


# ----------------------------------------------------------------------
# Table 1 and Section 5.4.1
# ----------------------------------------------------------------------
def run_table1(context: ExperimentContext) -> tuple[Table, Comparison]:
    """Per-feature SVM phase-classification accuracy (Table 1)."""
    paper = {
        "x_position": 0.676,
        "y_position": 0.692,
        "zoom_level": 0.696,
        "pan_flag": 0.580,
        "zoom_in_flag": 0.556,
        "zoom_out_flag": 0.448,
    }
    table = Table(["feature", "accuracy"], title="Table 1: per-feature accuracy")
    comparison = Comparison("Table 1 — single-feature SVM accuracy (LOO-CV)")
    for index, name in enumerate(FEATURE_NAMES):
        accuracy, _ = classifier_cv_accuracy(context.study, feature_indices=[index])
        table.add_row(name, accuracy)
        comparison.add(name, paper[name], accuracy)
    return table, comparison


def run_phase_classifier(context: ExperimentContext) -> Comparison:
    """Full-feature classifier accuracy (Section 5.4.1: 82%)."""
    accuracy, per_user = classifier_cv_accuracy(context.study)
    comparison = Comparison("Section 5.4.1 — phase classifier (LOO-CV)")
    comparison.add("overall accuracy", 0.82, accuracy)
    comparison.add("best user accuracy", ">= 0.90", max(per_user.values()))
    return comparison


# ----------------------------------------------------------------------
# Figure 8: move and phase distributions
# ----------------------------------------------------------------------
def run_figure8(context: ExperimentContext) -> list[Table]:
    """Move (8a) and phase (8b) distributions per task; per-user mixes (8c-e)."""
    tables = []
    move_table = Table(
        ["task", "pan", "zoom_in", "zoom_out", "avg_requests"],
        title="Figure 8a: move distribution per task",
    )
    phase_table = Table(
        ["task", "foraging", "navigation", "sensemaking"],
        title="Figure 8b: phase distribution per task",
    )
    for task_id in context.study.task_ids:
        traces = context.study.by_task(task_id)
        moves = Counter(
            r.move.category.value
            for t in traces
            for r in t.requests
            if r.move is not None
        )
        total_moves = sum(moves.values()) or 1
        phases = Counter(r.phase.value for t in traces for r in t.requests)
        total_phases = sum(phases.values()) or 1
        avg_len = float(np.mean([len(t) for t in traces]))
        move_table.add_row(
            task_id,
            moves.get("pan", 0) / total_moves,
            moves.get("zoom_in", 0) / total_moves,
            moves.get("zoom_out", 0) / total_moves,
            avg_len,
        )
        phase_table.add_row(
            task_id,
            phases.get("foraging", 0) / total_phases,
            phases.get("navigation", 0) / total_phases,
            phases.get("sensemaking", 0) / total_phases,
        )
    tables.extend([move_table, phase_table])

    user_table = Table(
        ["task", "user", "pan", "zoom_in", "zoom_out"],
        title="Figure 8c-e: per-user move mix",
    )
    for task_id in context.study.task_ids:
        for trace in context.study.by_task(task_id):
            moves = Counter(
                r.move.category.value for r in trace.requests if r.move is not None
            )
            total = sum(moves.values()) or 1
            user_table.add_row(
                task_id,
                trace.user_id,
                moves.get("pan", 0) / total,
                moves.get("zoom_in", 0) / total,
                moves.get("zoom_out", 0) / total,
            )
    tables.append(user_table)
    return tables


# ----------------------------------------------------------------------
# Figure 9: the zoom-level sawtooth
# ----------------------------------------------------------------------
def run_figure9(context: ExperimentContext) -> tuple[Table, Comparison]:
    """Zoom level per request for user 2 / task 2, plus model-fit stats."""
    trace = next(
        t
        for t in context.study.traces
        if t.user_id == 2 and t.task_id == 2
    )
    table = Table(
        ["request", "zoom_level", "move"],
        title="Figure 9: zoom level per request (user 2, task 2)",
    )
    for request in trace.requests:
        table.add_row(
            request.index,
            request.tile.level,
            request.move.value if request.move else "start",
        )

    # Section 5.3.5's fit statistics: how many users show the
    # forage-deep-return sawtooth, and how many requests fit the model.
    num_levels = context.dataset.num_levels
    sawtooth_users = 0
    for user_id in context.study.user_ids:
        sawtooth_tasks = sum(
            1 for t in context.study.by_user(user_id) if _is_sawtooth(t, num_levels)
        )
        if sawtooth_tasks >= 2:
            sawtooth_users += 1
    total_requests = context.study.total_requests()
    fitting = sum(
        model_fit_fraction(t, num_levels) * len(t) for t in context.study.traces
    )

    comparison = Comparison("Section 5.3.5 — analysis-model fit")
    comparison.add(
        "users with sawtooth pattern (2+ tasks)",
        "16/18",
        f"{sawtooth_users}/{len(context.study.user_ids)}",
    )
    comparison.add(
        "requests fitting the three-phase model",
        f"{1390 - 57}/1390",
        f"{fitting:.0f}/{total_requests}",
    )
    return table, comparison


def _is_sawtooth(trace, num_levels: int) -> bool:
    """Did the user alternate between coarse and detailed strata?"""
    levels = [r.tile.level for r in trace.requests]
    deep = max(1, 2 * (num_levels - 1) // 3)
    descents = 0
    was_coarse = True
    for level in levels:
        if was_coarse and level >= deep:
            descents += 1
            was_coarse = False
        elif not was_coarse and level < deep:
            was_coarse = True
    return descents >= 2


# ----------------------------------------------------------------------
# Figure 10: individual models
# ----------------------------------------------------------------------
def run_figure10a(context: ExperimentContext, ks=DEFAULT_KS) -> list[Table]:
    """AB (Markov3) vs Momentum vs Hotspot, per phase (Figure 10a)."""
    results = {
        "markov3": evaluate_engine_cv(
            context.study, lambda tr: context.markov_engine(tr, 3), ks
        ),
        "momentum": evaluate_engine_cv(context.study, context.momentum_engine, ks),
        "hotspot": evaluate_engine_cv(context.study, context.hotspot_engine, ks),
    }
    tables = [
        _series_table("Figure 10a: AB vs existing", results, phase, ks)
        for phase in list(ALL_PHASES) + [None]
    ]
    return tables


def run_figure10b(context: ExperimentContext, ks=DEFAULT_KS) -> list[Table]:
    """The four SB signatures, per phase (Figure 10b)."""
    results = {
        f"sb:{name}": evaluate_engine_cv(
            context.study, lambda tr, s=name: context.sb_engine(s), ks
        )
        for name in SIGNATURE_NAMES
    }
    return [
        _series_table("Figure 10b: SB signatures", results, phase, ks)
        for phase in list(ALL_PHASES) + [None]
    ]


def run_figure10c(context: ExperimentContext, ks=DEFAULT_KS) -> list[Table]:
    """Hybrid vs its best individual components (Figure 10c)."""
    results = {
        "hybrid": evaluate_engine_cv(context.study, hybrid_factory(context), ks),
        "markov3": evaluate_engine_cv(
            context.study, lambda tr: context.markov_engine(tr, 3), ks
        ),
        f"sb:{HYBRID_SIGNATURE}": evaluate_engine_cv(
            context.study, lambda tr: context.sb_engine(HYBRID_SIGNATURE), ks
        ),
    }
    return [
        _series_table("Figure 10c: hybrid vs components", results, phase, ks)
        for phase in list(ALL_PHASES) + [None]
    ]


# ----------------------------------------------------------------------
# Figure 11: hybrid vs existing techniques
# ----------------------------------------------------------------------
def run_figure11(
    context: ExperimentContext, ks=DEFAULT_KS
) -> tuple[list[Table], Comparison]:
    """Hybrid vs Momentum/Hotspot per phase, plus headline gaps."""
    results = {
        "hybrid": evaluate_engine_cv(context.study, hybrid_factory(context), ks),
        "momentum": evaluate_engine_cv(context.study, context.momentum_engine, ks),
        "hotspot": evaluate_engine_cv(context.study, context.hotspot_engine, ks),
    }
    tables = [
        _series_table("Figure 11: hybrid vs existing", results, phase, ks)
        for phase in list(ALL_PHASES) + [None]
    ]
    comparison = Comparison("Figure 11 — headline gaps at k=5")
    nav_gap = results["hybrid"].accuracy(5, AnalysisPhase.NAVIGATION) - max(
        results["momentum"].accuracy(5, AnalysisPhase.NAVIGATION),
        results["hotspot"].accuracy(5, AnalysisPhase.NAVIGATION),
    )
    sense_gap = results["hybrid"].accuracy(5, AnalysisPhase.SENSEMAKING) - max(
        results["momentum"].accuracy(5, AnalysisPhase.SENSEMAKING),
        results["hotspot"].accuracy(5, AnalysisPhase.SENSEMAKING),
    )
    comparison.add("navigation accuracy gap", "up to +0.25", nav_gap)
    comparison.add("sensemaking accuracy gap", "+0.10 to +0.18", sense_gap)
    comparison.add(
        "hybrid overall accuracy at k=5", 0.82, results["hybrid"].accuracy(5)
    )
    return tables, comparison


# ----------------------------------------------------------------------
# Figures 12 and 13: latency
# ----------------------------------------------------------------------
def latency_points(
    context: ExperimentContext, ks=DEFAULT_KS
) -> tuple[list[LatencyPoint], dict[str, AccuracyResult]]:
    """Replay every model at every fetch size through the middleware."""
    factories = {
        "momentum": context.momentum_engine,
        "hotspot": context.hotspot_engine,
        "markov3": lambda tr: context.markov_engine(tr, 3),
        "hybrid": hybrid_factory(context),
    }
    accuracy = {
        name: evaluate_engine_cv(context.study, factory, ks)
        for name, factory in factories.items()
    }
    points: list[LatencyPoint] = []
    for name, factory in factories.items():
        for k in ks:
            recorder = replay_model_latency(context, factory, k)
            points.append(
                LatencyPoint(
                    model=name,
                    k=k,
                    accuracy=accuracy[name].accuracy(k),
                    average_latency_seconds=recorder.average_seconds,
                )
            )
    return points, accuracy


def replay_model_latency(
    context: ExperimentContext,
    factory,
    k: int,
    frontend: str = "inprocess",
    prefetch_mode: str = "sync",
    shared_hotspots: str = "off",
):
    """LOO latency replay for one model and fetch size.

    The cache is configured as in Section 5.2.2's equivalence ("measuring
    prediction accuracy becomes equivalent to measuring the hit rate of
    our tile cache"): only the k-tile prefetch region is active, so
    latency is a pure function of prediction accuracy (Figure 12's
    near-perfect line).

    Each trace replays through :func:`replay_walks` against a cold
    endpoint of ``frontend`` (one of
    :data:`~repro.experiments.sweep.spec.FRONTENDS`); the numbers are
    the same on all three.  The fold's engine is trained once and reset
    for each trace on every front end: a cluster router opens the
    trace's session on its owner only, so one engine serves it.

    ``prefetch_mode="sync"`` (the default, what every figure benchmark
    uses) keeps the deterministic virtual-time numbers.
    ``"background"`` routes every prefetch round through the priority
    scheduler's worker pool instead — numbers then depend on physical
    timing (a smoke path, exercised by CI, not a figure
    reproduction).

    ``shared_hotspots`` threads the cross-session popularity knob
    through whichever front end serves the replay.  ``"off"`` (the
    default) and ``"observe"`` leave every figure number bit-identical;
    ``"boost"`` lets live hotspot recommenders and the background
    scheduler act on the shared signal (a smoke path, not a figure
    reproduction — each trace replays against a cold service, so its
    registry only ever sees that trace).
    """
    config = ServiceConfig(
        prefetch=PrefetchPolicy(
            k=k, mode=prefetch_mode, shared_hotspots=shared_hotspots
        ),
        cache=CacheConfig(recent_capacity=1, prefetch_capacity=k),
    )
    recorder = LatencyRecorder()
    for _, train, test in leave_one_user_out(context.study):
        engine_factory = _resetting(factory(train))
        for trace in test:
            walk = [(request.move, request.tile) for request in trace.requests]
            (replayed,), _, _ = replay_walks(
                context.pyramid,
                config,
                [walk],
                engine_factory,
                frontend=frontend,
            )
            recorder.merge(replayed)
    return recorder


def _resetting(engine):
    """A factory handing out ``engine``, reset, to every session."""

    def factory():
        engine.reset()
        return engine

    return factory


def run_figure12(points: list[LatencyPoint]) -> tuple[Table, Comparison]:
    """Latency-vs-accuracy regression (Figure 12) over :func:`latency_points`."""
    table = Table(
        ["model", "k", "accuracy", "avg_latency_ms"],
        title="Figure 12: latency vs accuracy (all models, all fetch sizes)",
    )
    for point in points:
        table.add_row(point.model, point.k, point.accuracy, point.average_latency_ms)
    slope, intercept, r2 = linear_fit(points)
    comparison = Comparison("Figure 12 — linear regression latency(ms) ~ accuracy")
    comparison.add("intercept (ms)", 961.33, intercept)
    comparison.add("slope (ms per accuracy)", -939.08, slope)
    comparison.add("adjusted R^2", 0.99985, r2)
    return table, comparison


def run_figure13(points: list[LatencyPoint]) -> tuple[Table, Comparison]:
    """Average response times per model and fetch size (Figure 13) over
    :func:`latency_points`."""
    by_model: dict[str, dict[int, float]] = {}
    for point in points:
        by_model.setdefault(point.model, {})[point.k] = point.average_latency_ms
    ks = sorted({point.k for point in points})

    table = Table(
        ["model"] + [f"k={k}" for k in ks],
        title="Figure 13: average response time (ms)",
    )
    for model, series in by_model.items():
        table.add_row(model, *(series[k] for k in ks))

    hybrid_at_5 = by_model["hybrid"][5]
    momentum_at_5 = by_model["momentum"][5]
    hotspot_at_5 = by_model["hotspot"][5]
    no_prefetch_ms = MISS_SECONDS * 1000.0
    comparison = Comparison("Figure 13 / Section 5.5 — headline latencies (k=5)")
    comparison.add("hybrid avg latency (ms)", 185.0, hybrid_at_5)
    comparison.add("momentum avg latency (ms)", 349.0, momentum_at_5)
    comparison.add("hotspot avg latency (ms)", 360.0, hotspot_at_5)
    comparison.add(
        "improvement vs no prefetching (%)",
        430.0,
        improvement_percent(no_prefetch_ms, hybrid_at_5),
    )
    comparison.add(
        "improvement vs momentum (%)",
        88.0,
        improvement_percent(momentum_at_5, hybrid_at_5),
    )
    return table, comparison


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def run_history_ablation(
    context: ExperimentContext, orders=(2, 3, 4, 5, 6, 8, 10), ks=(1, 2, 4)
) -> Table:
    """Markov history length sweep (Section 5.4.2: n=3 suffices)."""
    table = Table(
        ["order"] + [f"k={k}" for k in ks],
        title="Ablation: Markov chain history length (overall accuracy)",
    )
    for order in orders:
        result = evaluate_engine_cv(
            context.study, lambda tr, n=order: context.markov_engine(tr, n), ks
        )
        table.add_row(order, *(result.accuracy(k) for k in ks))
    return table


def run_allocation_ablation(context: ExperimentContext, ks=(2, 4, 5, 8)) -> Table:
    """Allocation strategies head to head (Sections 4.4 vs 5.4.3)."""
    from repro.core.allocation import PerPhaseSplitStrategy

    sb_name = f"sb:{HYBRID_SIGNATURE}"
    strategies = {
        "tuned(ab4+sb)": PaperFinalStrategy(
            "markov3", sb_name, ab_first=4, sb_only_phase=None
        ),
        "paper-final(sb-sense)": PaperFinalStrategy("markov3", sb_name, ab_first=4),
        "per-phase-split": PerPhaseSplitStrategy("markov3", sb_name),
        "ab-only": SingleModelStrategy("markov3"),
        "sb-only": SingleModelStrategy(sb_name),
    }
    table = Table(
        ["strategy"] + [f"k={k}" for k in ks],
        title="Ablation: cache allocation strategy (overall accuracy)",
    )
    for name, strategy in strategies.items():
        result = evaluate_engine_cv(
            context.study,
            lambda tr, s=strategy: context.hybrid_engine(
                tr, sb_signature=HYBRID_SIGNATURE, strategy=s
            ),
            ks,
        )
        table.add_row(name, *(result.accuracy(k) for k in ks))
    return table


def run_prefetch_distance_ablation(
    context: ExperimentContext, ks=(4, 8)
) -> Table:
    """Prefetch distance d=1 vs d=2 (Section 5.2.2: d>1 did not help)."""
    table = Table(
        ["distance"] + [f"k={k}" for k in ks],
        title="Ablation: prefetch distance (hybrid, overall accuracy)",
    )
    for distance in (1, 2):
        def factory(train, d=distance):
            engine = hybrid_factory(context)(train)
            engine.prefetch_distance = d
            return engine

        result = evaluate_engine_cv(context.study, factory, ks)
        table.add_row(distance, *(result.accuracy(k) for k in ks))
    return table
