"""Unit tests for ROI tracking, history, allocation, and the engine."""

import pytest

from repro.core.allocation import (
    InterleavedStrategy,
    PaperFinalStrategy,
    PerPhaseSplitStrategy,
    SingleModelStrategy,
)
from repro.core.engine import PredictionEngine
from repro.core.history import SessionHistory
from repro.core.roi import ROITracker
from repro.phases.model import AnalysisPhase
from repro.recommenders.base import PredictionContext, Recommender
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.pyramid import TileGrid

P = AnalysisPhase
GRID = TileGrid(4)


class TestROITracker:
    """Algorithm 1, line by line."""

    def test_initial_roi_empty(self):
        assert ROITracker().roi == ()

    def test_zoom_in_opens_temp(self):
        tracker = ROITracker()
        tile = TileKey(1, 0, 0)
        tracker.update(Move.ZOOM_IN_NW, tile)
        assert tracker.collecting
        assert tracker.in_progress == (tile,)
        assert tracker.roi == ()

    def test_pan_extends_temp(self):
        tracker = ROITracker()
        a, b = TileKey(2, 0, 0), TileKey(2, 1, 0)
        tracker.update(Move.ZOOM_IN_NW, a)
        tracker.update(Move.PAN_RIGHT, b)
        assert tracker.in_progress == (a, b)

    def test_zoom_out_commits(self):
        tracker = ROITracker()
        a, b = TileKey(2, 0, 0), TileKey(2, 1, 0)
        tracker.update(Move.ZOOM_IN_NW, a)
        tracker.update(Move.PAN_RIGHT, b)
        tracker.update(Move.ZOOM_OUT, TileKey(1, 0, 0))
        assert tracker.roi == (a, b)
        assert not tracker.collecting
        assert tracker.in_progress == ()

    def test_zoom_in_resets_temp(self):
        """Each zoom-in starts a fresh tempROI (Algorithm 1 line 7)."""
        tracker = ROITracker()
        tracker.update(Move.ZOOM_IN_NW, TileKey(1, 0, 0))
        tracker.update(Move.ZOOM_IN_NW, TileKey(2, 0, 0))
        assert tracker.in_progress == (TileKey(2, 0, 0),)

    def test_zoom_out_without_zoom_in_does_not_commit(self):
        tracker = ROITracker()
        tracker.update(Move.PAN_LEFT, TileKey(2, 1, 0))
        tracker.update(Move.ZOOM_OUT, TileKey(1, 0, 0))
        assert tracker.roi == ()

    def test_pan_before_zoom_in_ignored(self):
        tracker = ROITracker()
        tracker.update(Move.PAN_LEFT, TileKey(2, 1, 0))
        assert tracker.in_progress == ()

    def test_second_cycle_replaces_roi(self):
        tracker = ROITracker()
        tracker.update(Move.ZOOM_IN_NW, TileKey(2, 0, 0))
        tracker.update(Move.ZOOM_OUT, TileKey(1, 0, 0))
        first = tracker.roi
        tracker.update(Move.ZOOM_IN_SE, TileKey(2, 3, 3))
        tracker.update(Move.ZOOM_OUT, TileKey(1, 1, 1))
        assert tracker.roi == (TileKey(2, 3, 3),)
        assert tracker.roi != first

    def test_duplicate_pan_tile_not_duplicated(self):
        tracker = ROITracker()
        a, b = TileKey(2, 0, 0), TileKey(2, 1, 0)
        tracker.update(Move.ZOOM_IN_NW, a)
        tracker.update(Move.PAN_RIGHT, b)
        tracker.update(Move.PAN_LEFT, a)
        assert tracker.in_progress == (a, b)

    def test_initial_request_no_effect(self):
        tracker = ROITracker()
        tracker.update(None, TileKey(0, 0, 0))
        assert tracker.roi == ()
        assert not tracker.collecting

    def test_reset(self):
        tracker = ROITracker()
        tracker.update(Move.ZOOM_IN_NW, TileKey(1, 0, 0))
        tracker.reset()
        assert tracker.roi == ()
        assert tracker.in_progress == ()


class TestSessionHistory:
    def test_record_and_query(self):
        history = SessionHistory(5)
        history.record(None, TileKey(0, 0, 0))
        history.record(Move.ZOOM_IN_NW, TileKey(1, 0, 0))
        assert history.current == TileKey(1, 0, 0)
        assert history.last_move is Move.ZOOM_IN_NW
        assert len(history) == 2

    def test_bounded_length(self):
        history = SessionHistory(3)
        for i in range(5):
            history.record(Move.PAN_RIGHT, TileKey(3, i, 0))
        assert len(history.tiles) == 3
        assert history.tiles[0] == TileKey(3, 2, 0)

    def test_initial_move_not_recorded(self):
        history = SessionHistory(5)
        history.record(None, TileKey(0, 0, 0))
        assert history.moves == ()

    def test_recent_moves(self):
        history = SessionHistory(10)
        moves = [Move.PAN_LEFT, Move.PAN_RIGHT, Move.ZOOM_OUT]
        tile = TileKey(2, 1, 1)
        for move in moves:
            history.record(move, tile)
        assert history.recent_moves(2) == (Move.PAN_RIGHT, Move.ZOOM_OUT)
        assert history.recent_moves(10) == tuple(moves)

    def test_previous_tile(self):
        history = SessionHistory(5)
        assert history.previous_tile() is None
        history.record(None, TileKey(0, 0, 0))
        history.record(Move.ZOOM_IN_NW, TileKey(1, 0, 0))
        assert history.previous_tile() == TileKey(0, 0, 0)

    def test_clear(self):
        history = SessionHistory(5)
        history.record(None, TileKey(0, 0, 0))
        history.clear()
        assert history.current is None
        assert len(history) == 0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            SessionHistory(0)


class TestAllocationStrategies:
    def test_single_model(self):
        assert SingleModelStrategy("m").allocate(P.FORAGING, 5) == [("m", 5)]

    def test_interleaved_round_robin(self):
        strategy = InterleavedStrategy(("a", "b"))
        assert strategy.allocate(None, 5) == [("a", 3), ("b", 2)]

    def test_interleaved_requires_models(self):
        with pytest.raises(ValueError):
            InterleavedStrategy(())

    def test_per_phase_split_navigation(self):
        strategy = PerPhaseSplitStrategy("ab", "sb")
        assert strategy.allocate(P.NAVIGATION, 4) == [("ab", 4)]

    def test_per_phase_split_sensemaking(self):
        strategy = PerPhaseSplitStrategy("ab", "sb")
        assert strategy.allocate(P.SENSEMAKING, 4) == [("sb", 4)]

    def test_per_phase_split_foraging_even(self):
        strategy = PerPhaseSplitStrategy("ab", "sb")
        assert strategy.allocate(P.FORAGING, 4) == [("ab", 2), ("sb", 2)]
        assert strategy.allocate(P.FORAGING, 5) == [("ab", 3), ("sb", 2)]

    def test_paper_final_sensemaking_sb_only(self):
        strategy = PaperFinalStrategy("ab", "sb")
        assert strategy.allocate(P.SENSEMAKING, 6) == [("sb", 6)]

    def test_paper_final_ab_first_four(self):
        strategy = PaperFinalStrategy("ab", "sb")
        assert strategy.allocate(P.NAVIGATION, 3) == [("ab", 3)]
        assert strategy.allocate(P.FORAGING, 6) == [("ab", 4), ("sb", 2)]

    def test_paper_final_unknown_phase(self):
        strategy = PaperFinalStrategy("ab", "sb")
        assert strategy.allocate(None, 5) == [("ab", 4), ("sb", 1)]

    def test_quotas_sum_to_k(self):
        strategies = [
            SingleModelStrategy("m"),
            InterleavedStrategy(("a", "b", "c")),
            PerPhaseSplitStrategy("ab", "sb"),
            PaperFinalStrategy("ab", "sb"),
        ]
        for strategy in strategies:
            for phase in list(P) + [None]:
                for k in range(1, 10):
                    total = sum(q for _, q in strategy.allocate(phase, k))
                    assert total == k, (strategy, phase, k)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SingleModelStrategy("m").allocate(None, 0)


class _FixedRecommender(Recommender):
    """Returns a canned ranking (for engine unit tests)."""

    def __init__(self, name: str, tiles):
        self.name = name
        self._tiles = list(tiles)

    def predict(self, context: PredictionContext):
        return [t for t in self._tiles if t in context.candidates]


class _EchoRecommender(Recommender):
    """Ranks the candidates as given; keeps the contexts it was shown."""

    name = "echo"

    def __init__(self):
        self.contexts = []

    def predict(self, context: PredictionContext):
        self.contexts.append(context)
        return list(context.candidates)


class TestPredictionEngine:
    def test_observe_then_predict(self):
        model = MomentumRecommender()
        engine = PredictionEngine(
            GRID, {model.name: model}, SingleModelStrategy(model.name)
        )
        engine.observe(None, TileKey(2, 1, 1))
        engine.observe(Move.PAN_RIGHT, TileKey(2, 2, 1))
        result = engine.predict(3)
        assert len(result.tiles) == 3
        assert result.tiles[0] == TileKey(2, 3, 1)  # momentum repeat

    def test_predict_before_observe_raises(self):
        model = MomentumRecommender()
        engine = PredictionEngine(
            GRID, {model.name: model}, SingleModelStrategy(model.name)
        )
        with pytest.raises(RuntimeError):
            engine.predict(1)

    def test_invalid_tile_rejected(self):
        model = MomentumRecommender()
        engine = PredictionEngine(
            GRID, {model.name: model}, SingleModelStrategy(model.name)
        )
        with pytest.raises(ValueError):
            engine.observe(None, TileKey(9, 0, 0))

    def test_allocation_order_respected(self):
        key = TileKey(2, 1, 1)
        neighbors = GRID.candidates(key)
        a = _FixedRecommender("a", neighbors)
        b = _FixedRecommender("b", list(reversed(neighbors)))
        engine = PredictionEngine(
            GRID,
            {"a": a, "b": b},
            InterleavedStrategy(("a", "b")),
        )
        engine.observe(None, key)
        result = engine.predict(2)
        assert result.tiles == [neighbors[0], neighbors[-1]]
        assert result.attributions[neighbors[0]] == "a"
        assert result.attributions[neighbors[-1]] == "b"

    def test_duplicates_not_double_counted(self):
        key = TileKey(2, 1, 1)
        neighbors = GRID.candidates(key)
        a = _FixedRecommender("a", neighbors[:2])
        b = _FixedRecommender("b", neighbors[:3])
        engine = PredictionEngine(
            GRID, {"a": a, "b": b}, InterleavedStrategy(("a", "b"))
        )
        engine.observe(None, key)
        result = engine.predict(3)
        assert len(set(result.tiles)) == 3

    def test_shortfall_refilled(self):
        key = TileKey(2, 1, 1)
        neighbors = GRID.candidates(key)
        short = _FixedRecommender("short", neighbors[:1])
        full = _FixedRecommender("full", neighbors)
        engine = PredictionEngine(
            GRID,
            {"short": short, "full": full},
            InterleavedStrategy(("short", "full")),
        )
        engine.observe(None, key)
        result = engine.predict(4)
        assert len(result.tiles) == 4

    def test_unknown_model_in_allocation(self):
        model = MomentumRecommender()
        engine = PredictionEngine(
            GRID, {model.name: model}, SingleModelStrategy("ghost")
        )
        engine.observe(None, TileKey(1, 0, 0))
        with pytest.raises(KeyError):
            engine.predict(1)

    def test_phase_predictor_consulted(self):
        calls = []

        def predictor(tile, move):
            calls.append((tile, move))
            return P.SENSEMAKING

        key = TileKey(2, 1, 1)
        sb = _FixedRecommender("sb", GRID.candidates(key))
        ab = _FixedRecommender("ab", [])
        engine = PredictionEngine(
            GRID,
            {"ab": ab, "sb": sb},
            PaperFinalStrategy("ab", "sb"),
            phase_predictor=predictor,
        )
        engine.observe(None, key)
        result = engine.predict(2)
        assert result.phase is P.SENSEMAKING
        assert calls
        assert all(result.attributions[t] == "sb" for t in result.tiles)

    def test_roi_flows_to_context(self):
        model = MomentumRecommender()
        engine = PredictionEngine(
            GRID, {model.name: model}, SingleModelStrategy(model.name)
        )
        engine.observe(None, TileKey(1, 0, 0))
        engine.observe(Move.ZOOM_IN_NW, TileKey(2, 0, 0))
        context = engine.context()
        # fresh source: in-progress ROI visible mid-collection
        assert context.roi == (TileKey(2, 0, 0),)
        engine.roi_source = "committed"
        assert engine.context().roi == ()

    def test_new_prefetch_distance_reranks(self):
        """The round's rankings are only reusable for the settings they
        were computed under."""
        model = _EchoRecommender()
        engine = PredictionEngine(
            GRID, {model.name: model}, SingleModelStrategy(model.name)
        )
        key = TileKey(2, 1, 1)
        engine.observe(None, key)
        assert engine.predict(50).tiles == GRID.candidates(key, 1)
        engine.prefetch_distance = 2
        assert engine.predict(50).tiles == GRID.candidates(key, 2)
        engine.prefetch_distance = 1
        assert engine.predict(50).tiles == GRID.candidates(key, 1)
        assert len(model.contexts) == 2  # d=1 was still remembered

    def test_new_roi_source_reranks(self):
        model = _EchoRecommender()
        engine = PredictionEngine(
            GRID, {model.name: model}, SingleModelStrategy(model.name)
        )
        engine.observe(None, TileKey(1, 0, 0))
        engine.observe(Move.ZOOM_IN_NW, TileKey(2, 0, 0))
        engine.predict(5)
        engine.roi_source = "committed"
        engine.predict(5)
        assert [c.roi for c in model.contexts] == [(TileKey(2, 0, 0),), ()]

    def test_reset_clears_state(self):
        model = MomentumRecommender()
        engine = PredictionEngine(
            GRID, {model.name: model}, SingleModelStrategy(model.name)
        )
        engine.observe(None, TileKey(1, 0, 0))
        engine.reset()
        assert engine.history.current is None

    def test_rejects_no_recommenders(self):
        with pytest.raises(ValueError):
            PredictionEngine(GRID, {}, SingleModelStrategy("m"))

    def test_rejects_bad_distance(self):
        model = MomentumRecommender()
        with pytest.raises(ValueError):
            PredictionEngine(
                GRID,
                {model.name: model},
                SingleModelStrategy(model.name),
                prefetch_distance=0,
            )

    def test_prediction_capped_at_k(self):
        model = MomentumRecommender()
        engine = PredictionEngine(
            GRID, {model.name: model}, SingleModelStrategy(model.name)
        )
        engine.observe(None, TileKey(2, 1, 1))
        for k in range(1, 9):
            assert len(engine.predict(k).tiles) <= k
