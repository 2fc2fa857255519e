"""Smoke tests for the experiment runner at miniature scale.

The benchmarks exercise these at full scale with shape assertions; here
we verify the machinery itself (every generator runs and produces sane
tables) on a tiny world.
"""

from dataclasses import replace

import pytest

from repro.experiments.context import ExperimentContext
from repro.experiments.runner import (
    HYBRID_SIGNATURE,
    hybrid_factory,
    replay_model_latency,
    run_figure8,
    run_figure9,
    run_figure10a,
    run_history_ablation,
    run_phase_classifier,
    run_table1,
)
from repro.experiments.sweep.spec import FRONTENDS


@pytest.fixture(scope="module")
def tiny_context():
    return ExperimentContext.build(size=256, num_users=3, days=1, num_words=8)


class TestRunnerFunctions:
    def test_table1(self, tiny_context):
        table, comparison = run_table1(tiny_context)
        assert len(table.rows) == 6
        assert len(comparison.rows) == 6
        for _, paper, measured in comparison.rows:
            assert 0.0 <= float(measured) <= 1.0

    def test_phase_classifier(self, tiny_context):
        comparison = run_phase_classifier(tiny_context)
        assert 0.0 <= float(comparison.rows[0][2]) <= 1.0

    def test_figure8(self, tiny_context):
        move_table, phase_table, user_table = run_figure8(tiny_context)
        assert len(move_table.rows) == 3
        # Move shares sum to ~1 per task (cells are rounded to 3 dp).
        for row in move_table.rows:
            assert sum(float(v) for v in row[1:4]) == pytest.approx(1.0, abs=2e-3)
        for row in phase_table.rows:
            assert sum(float(v) for v in row[1:4]) == pytest.approx(1.0, abs=2e-3)
        assert len(user_table.rows) == 9

    def test_figure9(self, tiny_context):
        table, comparison = run_figure9(tiny_context)
        assert table.rows[0][1] == "0"  # starts at the overview
        assert len(comparison.rows) == 2

    def test_figure10a(self, tiny_context):
        tables = run_figure10a(tiny_context, ks=(1, 9))
        overall = next(t for t in tables if t.title.endswith("overall"))
        series = {r[0]: [float(v) for v in r[1:]] for r in overall.rows}
        # k=9 covers the full move vocabulary for every model.
        for name, values in series.items():
            assert values[-1] == pytest.approx(1.0), name

    def test_history_ablation(self, tiny_context):
        table = run_history_ablation(tiny_context, orders=(2, 3), ks=(9,))
        series = {int(r[0]): float(r[1]) for r in table.rows}
        assert series[2] == pytest.approx(1.0)
        assert series[3] == pytest.approx(1.0)

    def test_hybrid_factory_uses_configured_signature(self, tiny_context):
        engine = hybrid_factory(tiny_context)(tiny_context.study.traces)
        assert f"sb:{HYBRID_SIGNATURE}" in engine.recommenders
        assert "markov3" in engine.recommenders
        assert engine.phase_predictor is not None


class TestReplayFrontends:
    def test_the_three_front_ends(self):
        assert FRONTENDS == ("inprocess", "socket", "cluster")

    def test_retired_server_front_end_is_rejected(self, tiny_context):
        # "server" was retired with its adapter, "service" when the
        # figure replay took the sweep's front-end names.
        for retired in ("server", "service"):
            with pytest.raises(ValueError, match="frontend must be one of"):
                replay_model_latency(
                    tiny_context,
                    tiny_context.momentum_engine,
                    k=5,
                    frontend=retired,
                )

    def test_default_front_end_is_the_facade(self, tiny_context):
        """What Figures 12/13 run when nobody names a front end."""
        factory = tiny_context.momentum_engine
        default = replay_model_latency(tiny_context, factory, k=5)
        facade = replay_model_latency(
            tiny_context, factory, k=5, frontend="inprocess"
        )
        assert default.count == tiny_context.study.total_requests()
        assert default.to_dict() == facade.to_dict()

    def test_a_cluster_session_feeds_only_its_owners_registry(
        self, tiny_context, monkeypatch
    ):
        """Each fold trains one engine, reset for each trace, on every
        front end: the router opens a session on its owner only, so that
        engine serves the owner alone, which observes every request into
        its registry while the other worker sees nothing.  Two ring seeds
        put the sessions on each of the two workers in turn."""
        from repro.middleware import cluster
        from repro.middleware.cluster import ThreadedClusterServer

        folds = len(tiny_context.study.user_ids)
        trained = []

        def factory(train):
            trained.append(train)
            return tiny_context.momentum_engine(train)

        for frontend in ("inprocess", "socket"):
            trained.clear()
            replay_model_latency(tiny_context, factory, k=5, frontend=frontend)
            assert len(trained) == folds, frontend
        owners = set()
        for ring_seed in (0, 3):
            counts = []

            class Counted(ThreadedClusterServer):
                def __init__(self, pyramid, config, **kwargs):
                    config = replace(config, ring_seed=ring_seed)
                    super().__init__(pyramid, config, **kwargs)

                def stop(self):
                    services = [w.server.service for w in self.workers]
                    counts.append(
                        [
                            (
                                service.cache_manager.requests,
                                service.hotspot_registry.total_observations,
                            )
                            for service in services
                        ]
                    )
                    super().stop()

            monkeypatch.setattr(cluster, "ThreadedClusterServer", Counted)
            trained.clear()
            routed = replay_model_latency(
                tiny_context,
                factory,
                k=5,
                frontend="cluster",
                shared_hotspots="observe",
            )
            assert len(trained) == folds
            assert len(counts) == len(tiny_context.study.traces)
            for workers in counts:
                served = [i for i, (requests, _) in enumerate(workers) if requests]
                assert len(served) == 1  # a session lives on one worker
                owner = served[0]
                owners.add(owner)
                requests, observed = workers[owner]
                assert observed == requests
                assert workers[1 - owner] == (0, 0)
            assert sum(workers[0][0] + workers[1][0] for workers in counts) == (
                routed.count
            )
        assert owners == {0, 1}


class TestContext:
    def test_context_memoized(self, tiny_context):
        again = ExperimentContext.build(size=256, num_users=3, days=1, num_words=8)
        assert again is tiny_context

    def test_single_model_engines(self, tiny_context):
        study = tiny_context.study
        for engine in (
            tiny_context.momentum_engine(study.traces),
            tiny_context.hotspot_engine(study.traces),
            tiny_context.markov_engine(study.traces, 2),
            tiny_context.sb_engine("histogram"),
        ):
            engine.observe(None, tiny_context.grid.root)
            assert engine.predict(2).tiles
