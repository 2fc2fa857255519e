"""End-to-end integration tests: the full ForeCache stack."""

import numpy as np
import pytest

from repro.core.allocation import PaperFinalStrategy
from repro.core.engine import PredictionEngine
from repro.experiments.accuracy import replay_engine
from repro.middleware.client import BrowsingSession
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.service import ForeCacheService
from repro.phases.classifier import PhaseClassifier
from repro.recommenders.markov import MarkovRecommender
from repro.recommenders.signature_based import SignatureBasedRecommender
from repro.tiles.moves import Move


@pytest.fixture(scope="module")
def hybrid_engine(small_dataset, small_study, provider):
    """A trained two-level engine (user 1 held out)."""
    train = small_study.excluding_user(1)
    ab = MarkovRecommender(order=3)
    ab.train(train)
    sb = SignatureBasedRecommender(provider, ("histogram",))
    classifier = PhaseClassifier()
    classifier.fit_traces(train)
    return PredictionEngine(
        small_dataset.pyramid.grid,
        {ab.name: ab, sb.name: sb},
        PaperFinalStrategy(ab.name, sb.name),
        phase_predictor=classifier.predict,
    )


def cold_service(pyramid, engine) -> ForeCacheService:
    """A fresh service (cold cache) serving ``engine`` at k=5."""
    return ForeCacheService(
        pyramid,
        ServiceConfig(prefetch=PrefetchPolicy(k=5)),
        engine_factory=lambda: engine,
    )


@pytest.fixture
def full_stack(small_dataset, hybrid_engine):
    """The trained engine behind a live, cold service."""
    with cold_service(small_dataset.pyramid, hybrid_engine) as service:
        yield service


class TestFullStack:
    def test_interactive_walk(self, full_stack):
        """Drive a live session through pans and zooms."""
        handle = full_stack.open_session(reset_engine=True)
        session = BrowsingSession(handle)
        response = session.start()
        assert response.tile.shape == (32, 32)
        for move in (
            Move.ZOOM_IN_NW,
            Move.ZOOM_IN_SE,
            Move.PAN_RIGHT,
            Move.PAN_DOWN,
            Move.ZOOM_OUT,
        ):
            response = session.move(move)
            assert response.tile.key == session.current
            assert response.phase is not None
        assert handle.recorder.count == 6

    def test_replay_heldout_user(
        self, small_dataset, hybrid_engine, small_study
    ):
        """Replaying the held-out user's traces produces decent hit rates."""
        latencies = []
        for trace in small_study.by_user(1):
            # Each study trace was an independent session: cold cache.
            with cold_service(small_dataset.pyramid, hybrid_engine) as service:
                handle = service.open_session(reset_engine=True)
                BrowsingSession(handle).replay(trace)
                latencies.append(handle.recorder.average_seconds)
        # Far better than the no-prefetch 984 ms.
        assert np.mean(latencies) < 0.65

    def test_accuracy_replay_of_hybrid(self, hybrid_engine, small_study):
        result = replay_engine(
            hybrid_engine, small_study.by_user(1), ks=(5, 9)
        )
        assert result.accuracy(9) == pytest.approx(1.0)
        assert result.accuracy(5) > 0.5

    def test_phase_attribution_present(self, full_stack):
        handle = full_stack.open_session(reset_engine=True)
        session = BrowsingSession(handle)
        session.start()
        response = session.move(Move.ZOOM_IN_NW)
        assert response.phase is not None
        usage = full_stack.cache_manager.cache.model_usage()
        assert sum(usage.values()) == len(response.prefetched)


class TestVirtualTimeConsistency:
    def test_clock_monotone_through_session(self, small_dataset, full_stack):
        clock = small_dataset.db.clock
        before = clock.now()
        handle = full_stack.open_session(reset_engine=True)
        session = BrowsingSession(handle)
        session.start()
        session.move(Move.ZOOM_IN_NW)
        assert clock.now() >= before


class TestExperimentContextIntegration:
    def test_tiny_context_builds_and_evaluates(self):
        """A miniature end-to-end experiment: context, CV, accuracy."""
        from repro.experiments.context import ExperimentContext
        from repro.experiments.crossval import evaluate_engine_cv

        context = ExperimentContext.build(
            size=256, num_users=2, days=1, num_words=8
        )
        result = evaluate_engine_cv(context.study, context.momentum_engine, ks=(9,))
        assert result.accuracy(9) == pytest.approx(1.0)
