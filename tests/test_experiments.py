"""Unit tests for the evaluation harness."""

import pytest

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine, momentum_engine
from repro.experiments.accuracy import AccuracyResult, replay_engine
from repro.experiments.crossval import (
    classifier_cv_accuracy,
    evaluate_engine_cv,
    leave_one_user_out,
)
from repro.experiments.latency import (
    LatencyPoint,
    figure13_violations,
    improvement_percent,
    linear_fit,
)
from repro.experiments.report import Comparison, Table
from repro.experiments.sweep.run import replay_walks
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.latency import LatencyRecorder
from repro.phases.model import AnalysisPhase
from repro.recommenders.momentum import MomentumRecommender

P = AnalysisPhase


class TestAccuracyResult:
    def test_record_and_query(self):
        result = AccuracyResult()
        result.record(P.FORAGING, 1, True)
        result.record(P.FORAGING, 1, False)
        result.record(P.NAVIGATION, 1, True)
        assert result.accuracy(1, P.FORAGING) == pytest.approx(0.5)
        assert result.accuracy(1) == pytest.approx(2 / 3)

    def test_empty_bucket_is_zero(self):
        assert AccuracyResult().accuracy(5) == 0.0

    def test_sample_count(self):
        result = AccuracyResult()
        result.record(P.FORAGING, 1, True)
        result.record(P.FORAGING, 1, False)
        result.record(P.SENSEMAKING, 1, True)
        result.record(P.FORAGING, 2, False)
        assert result.sample_count(1) == 3
        assert result.sample_count(1, P.FORAGING) == 2
        assert result.sample_count(2) == 1
        assert result.sample_count(5) == 0


class TestReplayEngine:
    def _engine(self, small_dataset) -> PredictionEngine:
        model = MomentumRecommender()
        return PredictionEngine(
            small_dataset.pyramid.grid,
            {model.name: model},
            SingleModelStrategy(model.name),
        )

    def test_counts_predictions(self, small_dataset, small_study):
        engine = self._engine(small_dataset)
        trace = small_study.traces[0]
        result = replay_engine(engine, [trace], ks=(1,))
        # One prediction per request except the last.
        assert result.sample_count(1) == len(trace) - 1

    def test_k9_is_perfect(self, small_dataset, small_study):
        """At k=9 the prefetch covers every possible move (Section 5.2.2)."""
        engine = self._engine(small_dataset)
        result = replay_engine(engine, small_study.traces[:3], ks=(9,))
        assert result.accuracy(9) == pytest.approx(1.0)

    def test_accuracy_monotone_in_k(self, small_dataset, small_study):
        engine = self._engine(small_dataset)
        result = replay_engine(engine, small_study.traces[:3], ks=(1, 3, 5, 8))
        series = [result.accuracy(k) for k in (1, 3, 5, 8)]
        assert series == sorted(series)

    def test_one_context_per_observation(self, small_dataset, small_study, monkeypatch):
        """Sweeping k re-reads each model's ranking of the round; the
        context is only built for the call that has to run a model."""
        engine = self._engine(small_dataset)
        built = []
        build = engine.context
        monkeypatch.setattr(engine, "context", lambda: built.append(1) or build())
        trace = small_study.traces[0]
        result = replay_engine(engine, [trace])
        assert result.sample_count(8) == len(trace) - 1
        assert len(built) == len(trace) - 1


class TestCrossValidation:
    def test_folds_partition_users(self, small_study):
        folds = list(leave_one_user_out(small_study))
        assert len(folds) == len(small_study.user_ids)
        for user_id, train, test in folds:
            assert all(t.user_id != user_id for t in train)
            assert all(t.user_id == user_id for t in test)
            assert len(train) + len(test) == len(small_study)

    def test_evaluate_engine_cv(self, small_dataset, small_study):
        def factory(train):
            model = MomentumRecommender()
            return PredictionEngine(
                small_dataset.pyramid.grid,
                {model.name: model},
                SingleModelStrategy(model.name),
            )

        result = evaluate_engine_cv(small_study, factory, ks=(1, 9))
        assert result.accuracy(9) == pytest.approx(1.0)
        total = small_study.total_requests() - len(small_study)
        assert result.sample_count(1) == total

    def test_classifier_cv(self, small_study):
        overall, per_user = classifier_cv_accuracy(small_study)
        assert set(per_user) == set(small_study.user_ids)
        assert 0.0 <= overall <= 1.0
        # Must beat random guessing over 3 phases.
        assert overall > 1 / 3


class TestLatencyHarness:
    def test_replay_service_trace(self, small_dataset, small_study):
        pyramid = small_dataset.pyramid
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=5),
            cache=CacheConfig(recent_capacity=1, prefetch_capacity=5),
        )
        # Each trace replays through a cold service; latencies pool.
        recorder = LatencyRecorder()
        for trace in small_study.traces[:2]:
            walk = [(request.move, request.tile) for request in trace.requests]
            (replayed,), _, _ = replay_walks(
                pyramid, config, [walk], lambda: momentum_engine(pyramid.grid)
            )
            recorder.merge(replayed)
        assert recorder.count == sum(len(t) for t in small_study.traces[:2])
        assert 0.0 < recorder.average_seconds < 1.0

    def test_linear_fit_recovers_line(self):
        points = [
            LatencyPoint("m", k, acc, (0.984 - 0.9645 * acc))
            for k, acc in enumerate([0.1, 0.3, 0.5, 0.7, 0.9], start=1)
        ]
        slope, intercept, r2 = linear_fit(points)
        assert intercept == pytest.approx(984.0, abs=1e-6)
        assert slope == pytest.approx(-964.5, abs=1e-6)
        assert r2 == pytest.approx(1.0)

    def test_linear_fit_needs_points(self):
        with pytest.raises(ValueError):
            linear_fit([LatencyPoint("m", 1, 0.5, 0.5)] * 2)

    def test_improvement_percent(self):
        assert improvement_percent(984.0, 185.0) == pytest.approx(431.9, abs=0.1)
        with pytest.raises(ValueError):
            improvement_percent(100.0, 0.0)


class TestReport:
    def test_table_rendering(self):
        table = Table(["a", "b"], title="T")
        table.add_row(1, 0.12345)
        text = str(table)
        assert "T" in text
        assert "0.123" in text

    def test_table_row_length_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_table_markdown(self):
        table = Table(["a"], title="T")
        table.add_row("x")
        md = table.to_markdown()
        assert "| a |" in md
        assert "| x |" in md

    def test_comparison(self):
        comparison = Comparison("exp")
        comparison.add("metric", 0.82, 0.815)
        text = str(comparison)
        assert "0.820" in text and "0.815" in text


class TestFigure13Shape:
    """Pins the downscale behavior of the Figure 13 assertions.

    The curves in ``DOWNSCALED`` are the measured REPRO_SIZE=512 /
    REPRO_USERS=6 run that used to fail the bench tier: in the tiny
    world the single-model baselines saturate at high k (momentum with
    k=8 covers nearly every legal move) while the hybrid still splits
    its budget — so hybrid dominance is a full-scale-only claim beyond
    the headline k.
    """

    DOWNSCALED = {
        "momentum": {1: 761.866, 3: 393.560, 5: 246.238, 7: 64.387, 8: 42.519},
        "hotspot": {1: 742.300, 3: 317.597, 5: 193.294, 7: 64.387, 8: 42.519},
        "hybrid": {1: 599.581, 3: 281.918, 5: 142.652, 7: 95.463, 8: 64.387},
    }

    FULL_SCALE = {
        "momentum": {1: 761.0, 3: 393.0, 5: 349.0, 7: 250.0, 8: 220.0},
        "hotspot": {1: 742.0, 3: 318.0, 5: 360.0, 7: 260.0, 8: 230.0},
        "hybrid": {1: 599.0, 3: 282.0, 5: 185.0, 7: 170.0, 8: 160.0},
    }

    def test_downscaled_curves_pass_downscaled_checks(self):
        assert figure13_violations(self.DOWNSCALED, full_scale=False) == []

    def test_downscaled_curves_fail_full_scale_checks(self):
        violations = figure13_violations(self.DOWNSCALED, full_scale=True)
        assert violations  # the k=7/k=8 tail crossing is detected
        assert any("k=7" in v for v in violations)

    def test_full_scale_curves_pass_everywhere(self):
        assert figure13_violations(self.FULL_SCALE, full_scale=True) == []
        assert figure13_violations(self.FULL_SCALE, full_scale=False) == []

    def test_headline_crossing_fails_even_downscaled(self):
        crossed = {
            model: dict(series)
            for model, series in self.DOWNSCALED.items()
        }
        crossed["hybrid"][5] = crossed["momentum"][5] + 1.0
        violations = figure13_violations(crossed, full_scale=False)
        assert any("k=5" in v for v in violations)

    def test_interactivity_bar_is_always_checked(self):
        sluggish = {
            model: dict(series)
            for model, series in self.FULL_SCALE.items()
        }
        for model in sluggish:
            sluggish[model][5] = 600.0
        for full_scale in (True, False):
            violations = figure13_violations(sluggish, full_scale=full_scale)
            assert any("interactivity" in v for v in violations)

    def test_missing_headline_k_is_an_error(self):
        with pytest.raises(ValueError):
            figure13_violations(
                {"hybrid": {1: 1.0}, "momentum": {1: 1.0}, "hotspot": {1: 1.0}},
                full_scale=False,
            )
