"""Unit tests for the recommendation models."""

import pytest

from repro.phases.model import AnalysisPhase
from repro.recommenders.base import PredictionContext
from repro.recommenders.hotspot import HotspotRecommender
from repro.recommenders.markov import MarkovRecommender
from repro.recommenders.momentum import (
    MomentumRecommender,
    OTHER_PROBABILITY,
    REPEAT_PROBABILITY,
)
from repro.recommenders.signature_based import SignatureBasedRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.pyramid import TileGrid
from repro.users.session import Request, Trace

GRID = TileGrid(4)


def context_at(
    key: TileKey, moves: tuple[Move, ...] = (), roi: tuple[TileKey, ...] = ()
) -> PredictionContext:
    return PredictionContext(
        current=key,
        grid=GRID,
        candidates=tuple(GRID.candidates(key)),
        history_moves=moves,
        history_tiles=(key,),
        roi=roi,
    )


def trace_from_moves(moves: list[Move], start: TileKey, user=1, task=1) -> Trace:
    requests = [Request(0, start, None, AnalysisPhase.FORAGING)]
    current = start
    for i, move in enumerate(moves, start=1):
        current = GRID.apply(current, move)
        assert current is not None, f"illegal move {move} in test trace"
        requests.append(Request(i, current, move, AnalysisPhase.FORAGING))
    return Trace(user_id=user, task_id=task, requests=requests)


class TestMomentum:
    def test_distribution_sums_to_one(self):
        model = MomentumRecommender()
        dist = model.move_distribution(Move.PAN_LEFT)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist[Move.PAN_LEFT] == REPEAT_PROBABILITY
        assert dist[Move.ZOOM_OUT] == OTHER_PROBABILITY

    def test_repeats_previous_move(self):
        model = MomentumRecommender()
        key = TileKey(2, 1, 1)
        ranked = model.predict(context_at(key, (Move.PAN_RIGHT,)))
        assert ranked[0] == TileKey(2, 2, 1)

    def test_no_history_uniform(self):
        model = MomentumRecommender()
        dist = model.move_distribution(None)
        assert len(set(dist.values())) == 1

    def test_illegal_repeat_skipped(self):
        model = MomentumRecommender()
        key = TileKey(2, 0, 1)  # left edge: PAN_LEFT illegal
        ranked = model.predict(context_at(key, (Move.PAN_LEFT,)))
        assert TileKey(2, 0, 1) not in ranked
        assert len(ranked) == 8  # 9 candidates minus the illegal one

    def test_prediction_subset_of_candidates(self):
        model = MomentumRecommender()
        ctx = context_at(TileKey(1, 0, 0), (Move.ZOOM_OUT,))
        assert set(model.predict(ctx)) <= set(ctx.candidates)


class TestMarkov:
    def test_requires_training(self):
        model = MarkovRecommender(order=3)
        with pytest.raises(RuntimeError):
            model.predict(context_at(TileKey(1, 0, 0)))

    def test_learns_repeated_pattern(self):
        moves = [Move.PAN_RIGHT, Move.PAN_RIGHT, Move.PAN_RIGHT]
        trace = trace_from_moves(moves, TileKey(2, 0, 0))
        model = MarkovRecommender(order=2)
        model.train([trace] * 5)
        dist = model.move_distribution((Move.PAN_RIGHT, Move.PAN_RIGHT))
        assert dist[Move.PAN_RIGHT] == max(dist.values())

    def test_learns_alternating_pattern(self):
        moves = [Move.PAN_RIGHT, Move.PAN_LEFT, Move.PAN_RIGHT, Move.PAN_LEFT]
        trace = trace_from_moves(moves, TileKey(2, 0, 0))
        model = MarkovRecommender(order=1)
        model.train([trace] * 5)
        dist = model.move_distribution((Move.PAN_RIGHT,))
        assert dist[Move.PAN_LEFT] > dist[Move.PAN_RIGHT]

    def test_distribution_normalized(self):
        trace = trace_from_moves(
            [Move.ZOOM_IN_NW, Move.ZOOM_IN_NW], TileKey(0, 0, 0)
        )
        model = MarkovRecommender(order=3)
        model.train([trace])
        dist = model.move_distribution((Move.PAN_LEFT, Move.PAN_UP, Move.ZOOM_OUT))
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_predict_orders_by_probability(self):
        moves = [Move.ZOOM_IN_NW] * 3
        trace = trace_from_moves(moves, TileKey(0, 0, 0))
        model = MarkovRecommender(order=2)
        model.train([trace] * 3)
        ctx = context_at(TileKey(1, 0, 0), (Move.ZOOM_IN_NW, Move.ZOOM_IN_NW))
        ranked = model.predict(ctx)
        assert ranked[0] == TileKey(2, 0, 0)  # NW child

    def test_name_includes_order(self):
        assert MarkovRecommender(order=5).name == "markov5"


class TestHotspot:
    def test_untrained_behaves_like_momentum(self):
        hotspot = HotspotRecommender()
        momentum = MomentumRecommender()
        ctx = context_at(TileKey(2, 1, 1), (Move.PAN_DOWN,))
        assert hotspot.predict(ctx) == momentum.predict(ctx)

    def test_training_finds_popular_tiles(self):
        popular = TileKey(2, 2, 2)
        traces = [trace_from_moves([], popular) for _ in range(3)]
        traces.append(trace_from_moves([], TileKey(2, 0, 0)))
        model = HotspotRecommender(num_hotspots=1)
        model.train(traces)
        assert model.hotspots == (popular,)

    def test_pulls_toward_hotspot(self):
        hotspot_tile = TileKey(2, 3, 1)
        # Visits make (2,3,1) the hotspot.
        traces = [trace_from_moves([], hotspot_tile) for _ in range(5)]
        model = HotspotRecommender(num_hotspots=1, proximity=4)
        model.train(traces)
        # Standing two tiles west, with momentum pointing away.
        ctx = context_at(TileKey(2, 1, 1), (Move.PAN_LEFT,))
        ranked = model.predict(ctx)
        assert ranked[0] == TileKey(2, 2, 1)  # toward the hotspot

    def test_far_from_hotspots_defaults_to_momentum(self):
        far = TileKey(3, 7, 7)
        traces = [trace_from_moves([], TileKey(3, 0, 0)) for _ in range(3)]
        model = HotspotRecommender(num_hotspots=1, proximity=2)
        model.train(traces)
        momentum = MomentumRecommender()
        ctx = context_at(far, (Move.PAN_UP,))
        assert model.predict(ctx) == momentum.predict(ctx)

    def test_nearest_hotspot(self):
        model = HotspotRecommender(num_hotspots=2, proximity=10)
        model.train([
            trace_from_moves([], TileKey(2, 0, 0)),
            trace_from_moves([], TileKey(2, 3, 3)),
        ])
        assert model.nearest_hotspot(TileKey(2, 1, 0)) == TileKey(2, 0, 0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            HotspotRecommender(num_hotspots=0)
        with pytest.raises(ValueError):
            HotspotRecommender(proximity=0)
        # The live set replaces the trained one outright; no blend.
        with pytest.raises(TypeError, match="hotspot_warmup"):
            HotspotRecommender(hotspot_warmup=8)

    def test_equidistant_hotspots_tiebreak_by_key(self):
        """Regression: equidistant hotspots must resolve by ``(distance,
        key)``, never by training iteration order.

        ``(2,0,2)`` and ``(2,2,0)`` are both 2 moves from ``(2,1,1)``;
        the winner must be the smaller key whichever of them trained as
        the more popular (and therefore earlier-iterated) hotspot.
        """
        low_key, high_key = TileKey(2, 0, 2), TileKey(2, 2, 0)
        query = TileKey(2, 1, 1)
        assert query.manhattan_distance(low_key) == query.manhattan_distance(
            high_key
        )
        for favored in (low_key, high_key):
            other = high_key if favored == low_key else low_key
            traces = [trace_from_moves([], favored) for _ in range(5)]
            traces += [trace_from_moves([], other) for _ in range(2)]
            model = HotspotRecommender(num_hotspots=2, proximity=4)
            model.train(traces)
            # Popularity order differs between the two trainings...
            assert model.hotspots == (favored, other)
            # ...but the equidistant pick is always the smaller key.
            assert model.nearest_hotspot(query) == low_key

    def test_live_registry_overrides_training(self):
        from repro.core.popularity import SharedHotspotRegistry

        trained_tile = TileKey(2, 0, 0)
        live_tile = TileKey(2, 3, 1)
        model = HotspotRecommender(num_hotspots=1, proximity=4)
        model.train([trace_from_moves([], trained_tile) for _ in range(3)])
        registry = SharedHotspotRegistry()
        model.bind_registry(registry)
        # Empty registry: cold start falls back to the trained set.
        assert model.effective_hotspots() == (trained_tile,)
        registry.observe(live_tile)
        assert model.effective_hotspots() == (live_tile,)
        ctx = context_at(TileKey(2, 1, 1), (Move.PAN_LEFT,))
        assert model.predict(ctx)[0] == TileKey(2, 2, 1)  # toward live tile
        model.bind_registry(None)
        assert model.effective_hotspots() == (trained_tile,)


class TestSignatureBased:
    def test_requires_signatures(self, provider):
        with pytest.raises(ValueError):
            SignatureBasedRecommender(provider, ())

    def test_unknown_signature(self, provider):
        with pytest.raises(ValueError):
            SignatureBasedRecommender(provider, ("nope",))

    @pytest.mark.parametrize(
        "weights, message",
        [([1.0], "1 weights for 2 signatures"), ([1.0, -0.5], "non-negative")],
    )
    def test_bad_weights_refused_at_construction(self, provider, weights, message):
        with pytest.raises(ValueError, match=message):
            SignatureBasedRecommender(provider, ("histogram", "normal"), weights)

    def test_name(self, provider):
        model = SignatureBasedRecommender(provider, ("histogram", "normal"))
        assert model.name == "sb:histogram+normal"

    def test_rankings_cover_candidates(self, provider, small_dataset):
        model = SignatureBasedRecommender(provider, ("histogram",))
        grid = small_dataset.pyramid.grid
        key = TileKey(2, 1, 1)
        ctx = PredictionContext(
            current=key,
            grid=grid,
            candidates=tuple(grid.candidates(key)),
            roi=(TileKey(2, 2, 1),),
        )
        ranked = model.predict(ctx)
        assert sorted(ranked) == sorted(ctx.candidates)

    def test_empty_roi_falls_back_to_current(self, provider, small_dataset):
        model = SignatureBasedRecommender(provider, ("histogram",))
        grid = small_dataset.pyramid.grid
        key = TileKey(2, 1, 1)
        ctx = PredictionContext(
            current=key,
            grid=grid,
            candidates=tuple(grid.candidates(key)),
        )
        ranked = model.predict(ctx)
        assert len(ranked) == len(ctx.candidates)

    def test_deterministic(self, provider, small_dataset):
        model = SignatureBasedRecommender(provider, ("histogram",))
        grid = small_dataset.pyramid.grid
        key = TileKey(2, 2, 1)
        ctx = PredictionContext(
            current=key,
            grid=grid,
            candidates=tuple(grid.candidates(key)),
            roi=(TileKey(2, 1, 1),),
        )
        assert model.predict(ctx) == model.predict(ctx)
