"""Integration-style tests for the serving facade and its client."""

import pytest

from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.client import BrowsingSession
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.latency import (
    HIT_SECONDS,
    LatencyRecorder,
    MISS_SECONDS,
    nearest_rank_percentile,
    response_seconds,
)
from repro.middleware.protocol import WorkerUnavailableError
from repro.middleware.service import ForeCacheService, SessionHandle
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move


def momentum_engine(pyramid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        pyramid.grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def open_handle(
    pyramid, policy: PrefetchPolicy, **service_kwargs
) -> SessionHandle:
    """One session over its own cold sync-mode service (no pool to stop)."""
    service = ForeCacheService(
        pyramid, ServiceConfig(prefetch=policy), **service_kwargs
    )
    return service.open_session(momentum_engine(pyramid))


class FailsOnce:
    """A connection whose ``on_call``-th request raises before reaching
    the server — what a client sees while the router fails over."""

    def __init__(self, connection, on_call: int) -> None:
        self.connection = connection
        self.pyramid = connection.pyramid
        self.calls = 0
        self.on_call = on_call

    def request(self, move, key):
        self.calls += 1
        if self.calls == self.on_call:
            raise WorkerUnavailableError("worker went away")
        return self.connection.request(move, key)


@pytest.fixture
def server(small_dataset):
    return open_handle(small_dataset.pyramid, PrefetchPolicy(k=5))


class TestLatencyModel:
    def test_hit_latency(self):
        assert response_seconds(True, 0.0) == HIT_SECONDS

    def test_miss_latency_includes_backend(self):
        latency = response_seconds(False, 0.9645)
        assert latency == pytest.approx(MISS_SECONDS)

    def test_recorder_average(self):
        recorder = LatencyRecorder()
        recorder.record(0.1, True)
        recorder.record(0.3, False)
        assert recorder.average_seconds == pytest.approx(0.2)
        assert recorder.hit_rate == pytest.approx(0.5)

    def test_recorder_merge(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.record(0.1, True)
        b.record(0.2, False)
        a.merge(b)
        assert a.count == 2
        assert a.hits == 1

    @pytest.mark.parametrize(
        "q, expected", [(0.0, 1.0), (0.25, 1.0), (0.5, 2.0), (0.51, 3.0), (1.0, 4.0)]
    )
    def test_percentile_is_the_nearest_rank(self, q, expected):
        assert nearest_rank_percentile([4.0, 1.0, 3.0, 2.0], q) == expected

    @pytest.mark.parametrize("q", [-0.01, 1.01])
    def test_percentile_rank_must_be_a_fraction(self, q):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            nearest_rank_percentile([1.0], q)

    def test_percentile_of_no_samples_is_zero(self):
        recorder = LatencyRecorder()
        assert recorder.percentile(0.95) == 0.0
        assert recorder.average_seconds == 0.0
        assert recorder.hit_rate == 0.0


class TestServer:
    def test_first_request_misses(self, server):
        response = server.request(None, TileKey(0, 0, 0))
        assert not response.hit
        assert response.latency_seconds == pytest.approx(MISS_SECONDS, rel=0.05)
        assert len(response.prefetched) == 4  # root has only 4 moves

    def test_predicted_request_hits(self, server):
        first = server.request(None, TileKey(2, 1, 1))
        # Momentum with no history ranks candidates deterministically;
        # follow one of the prefetched tiles.
        target = first.prefetched[0]
        move = TileKey(2, 1, 1).move_to(target)
        response = server.request(move, target)
        assert response.hit
        assert response.latency_seconds == pytest.approx(HIT_SECONDS)

    def test_unpredicted_request_misses(self, server):
        first = server.request(None, TileKey(2, 1, 1))
        candidates = server.pyramid.grid.candidates(TileKey(2, 1, 1))
        not_prefetched = [t for t in candidates if t not in first.prefetched]
        assert not_prefetched
        target = not_prefetched[-1]
        move = TileKey(2, 1, 1).move_to(target)
        response = server.request(move, target)
        assert not response.hit

    def test_prefetch_disabled(self, small_dataset):
        server = open_handle(
            small_dataset.pyramid, PrefetchPolicy(enabled=False)
        )
        server.request(None, TileKey(2, 1, 1))
        response = server.request(Move.PAN_RIGHT, TileKey(2, 2, 1))
        assert not response.hit
        assert response.prefetched == ()

    def test_recorder_accumulates(self, server):
        server.request(None, TileKey(1, 0, 0))
        server.request(Move.ZOOM_IN_NW, TileKey(2, 0, 0))
        assert server.recorder.count == 2

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            PrefetchPolicy(k=0)


class TestBrowsingSession:
    def test_start_at_root(self, server):
        session = BrowsingSession(server)
        response = session.start()
        assert response.tile.key == TileKey(0, 0, 0)
        assert session.current == TileKey(0, 0, 0)

    def test_start_twice_rejected(self, server):
        session = BrowsingSession(server)
        session.start()
        with pytest.raises(RuntimeError):
            session.start()

    def test_move_updates_position(self, server):
        session = BrowsingSession(server)
        session.start()
        response = session.move(Move.ZOOM_IN_SE)
        assert response.tile.key == TileKey(1, 1, 1)
        assert session.current == TileKey(1, 1, 1)

    def test_illegal_move_rejected(self, server):
        session = BrowsingSession(server)
        session.start()
        with pytest.raises(ValueError):
            session.move(Move.ZOOM_OUT)

    def test_move_before_start_rejected(self, server):
        with pytest.raises(RuntimeError):
            BrowsingSession(server).move(Move.PAN_LEFT)

    def test_available_moves(self, server):
        session = BrowsingSession(server)
        assert session.available_moves == []
        session.start()
        assert all(m.is_zoom_in for m in session.available_moves)

    def test_start_at_a_given_tile(self, server):
        session = BrowsingSession(server)
        assert session.start(at=TileKey(2, 1, 3)).tile.key == TileKey(2, 1, 3)
        assert session.current == TileKey(2, 1, 3)
        assert Move.ZOOM_OUT in session.available_moves

    def test_a_start_outside_the_pyramid_sends_nothing(self, server):
        session = BrowsingSession(server)
        with pytest.raises(ValueError, match="not in the pyramid"):
            session.start(at=TileKey(1, 2, 0))
        assert session.current is None
        assert server.recorder.count == 0
        session.start()  # still fresh

    def test_an_illegal_move_sends_nothing(self, server):
        session = BrowsingSession(server)
        session.start()
        with pytest.raises(ValueError, match="not legal"):
            session.move(Move.PAN_LEFT)
        assert session.current == TileKey(0, 0, 0)
        assert server.recorder.count == 1

    def test_available_moves_are_the_grids_from_the_current_tile(self, server):
        session = BrowsingSession(server)
        grid = server.pyramid.grid
        session.start()
        for move in (Move.ZOOM_IN_SE, Move.PAN_LEFT, Move.ZOOM_IN_NW):
            session.move(move)
            assert session.available_moves == [
                legal for legal, _ in grid.available_moves(session.current)
            ]

    def test_replay_trace(self, server, small_study):
        session = BrowsingSession(server)
        trace = small_study.traces[0]
        responses = session.replay(trace)
        assert len(responses) == len(trace)

    def test_replay_requires_fresh_session(self, server, small_study):
        session = BrowsingSession(server)
        session.start()
        with pytest.raises(RuntimeError):
            session.replay(small_study.traces[0])

    def test_failed_start_leaves_the_session_fresh(self, server):
        session = BrowsingSession(FailsOnce(server, on_call=1))
        with pytest.raises(WorkerUnavailableError):
            session.start()
        assert session.current is None
        # The router's promise: the same connection retries.
        assert session.start().tile.key == TileKey(0, 0, 0)
        assert session.current == TileKey(0, 0, 0)

    def test_failed_move_is_not_applied(self, server):
        session = BrowsingSession(FailsOnce(server, on_call=2))
        session.start()
        with pytest.raises(WorkerUnavailableError):
            session.move(Move.ZOOM_IN_SE)
        assert session.current == TileKey(0, 0, 0)
        # Retrying applies the move once, not twice.
        assert session.move(Move.ZOOM_IN_SE).tile.key == TileKey(1, 1, 1)
        assert session.current == TileKey(1, 1, 1)

    def test_failed_replay_can_be_retried(self, server, small_study):
        trace = small_study.traces[0]
        session = BrowsingSession(FailsOnce(server, on_call=1))
        with pytest.raises(WorkerUnavailableError):
            session.replay(trace)
        assert session.current is None
        assert len(session.replay(trace)) == len(trace)
        assert session.current == trace.requests[-1].tile

    def test_prefetching_reduces_latency(self, small_dataset, small_study):
        """End to end: prefetching must beat no-prefetching on latency."""

        def build_server(enabled: bool) -> SessionHandle:
            return open_handle(
                small_dataset.pyramid,
                PrefetchPolicy(k=5, enabled=enabled),
                cache_manager=CacheManager(small_dataset.pyramid, TileCache()),
            )

        trace = max(small_study.traces, key=len)
        with_prefetch = build_server(True)
        BrowsingSession(with_prefetch).replay(trace)
        without_prefetch = build_server(False)
        BrowsingSession(without_prefetch).replay(trace)
        assert (
            with_prefetch.recorder.average_seconds
            < without_prefetch.recorder.average_seconds
        )
