"""Continuous push prefetch: scheduler, cache, wire, and lifecycle.

The unit half exercises the two pure state machines —
:class:`~repro.middleware.push.PushScheduler` (budget fairness, ack
dedup, generation cancellation, in-flight caps) and
:class:`~repro.middleware.push.PushCache` (LRU, digest) — with no
sockets involved.  The end-to-end half drives the real TCP stack:
negotiated capability, pushed tiles answering locally, a tile never
streamed twice while held, cancellation on a new request, a mid-push
client disconnect leaving the service healthy.  The hypothesis fuzz
interleaves push and reply frames through the client's decoder to prove
absorption never misparies request/reply.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.core.popularity import SharedHotspotRegistry
from repro.middleware import protocol
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.connection import ClientConnection, SessionStub
from repro.middleware.net import SocketTransport, ThreadedSocketServer
from repro.middleware.protocol import (
    FrameDecoder,
    Hello,
    InvalidRequestError,
    PushAck,
    PushTile,
    TilePayload,
    TileRef,
    Welcome,
    encode_frame,
)
from repro.middleware.push import (
    CONFIDENCE_DECAY,
    HOT_CONFIDENCE_FACTOR,
    PushCache,
    PushScheduler,
)
from repro.middleware.service import TileResponse
from repro.modis.dataset import MODISDataset
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.tile import DataTile

PUSH_CONFIG = ServiceConfig(
    prefetch=PrefetchPolicy(k=4, push="on"),
    cache=CacheConfig(recent_capacity=4, prefetch_capacity=8),
)


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def engine_factory(pyramid):
    return lambda: make_engine(pyramid.grid)


def key(level: int, x: int, y: int) -> TileKey:
    return TileKey(level, x, y)


# ----------------------------------------------------------------------
# PushCache units
# ----------------------------------------------------------------------
class TestPushCache:
    def tile(self, dataset, k: TileKey):
        return dataset.pyramid.fetch_tile(k, charge=False)

    def test_put_get_promote_and_digest(self, small_dataset):
        cache = PushCache(capacity=2)
        a, b = key(1, 0, 0), key(1, 1, 0)
        cache.put(self.tile(small_dataset, a))
        cache.put(self.tile(small_dataset, b))
        assert cache.digest() == sorted([a, b])
        assert cache.get(a).key == a  # promotes a over b
        cache.put(self.tile(small_dataset, key(1, 0, 1)))
        assert b not in cache  # LRU: b was least recently useful
        assert a in cache
        assert cache.evicted == 1

    def test_miss_and_hit_rate(self, small_dataset):
        cache = PushCache(capacity=2)
        assert cache.get(key(0, 0, 0)) is None
        cache.put(self.tile(small_dataset, key(0, 0, 0)))
        assert cache.get(key(0, 0, 0)) is not None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PushCache(capacity=0)

    def test_clear(self, small_dataset):
        cache = PushCache()
        cache.put(self.tile(small_dataset, key(0, 0, 0)))
        cache.clear()
        assert len(cache) == 0 and cache.digest() == []

    def test_put_upgrades_in_place_and_ignores_downgrades(
        self, small_dataset
    ):
        cache = PushCache(capacity=4)
        k = key(1, 0, 0)
        coarse = self.tile(small_dataset, k)
        full = self.tile(small_dataset, k)
        cache.put(coarse, fidelity=0.25)
        assert cache.fidelity(k) == 0.25
        assert cache.get(k) is coarse
        # The refinement replaces the held tile in place.
        cache.put(full, fidelity=1.0)
        assert cache.upgraded == 1
        assert cache.fidelity(k) == 1.0
        assert cache.get(k) is full
        assert len(cache) == 1  # an upgrade is not a second entry
        # A stale coarse frame must never clobber the full tile.
        cache.put(coarse, fidelity=0.25)
        assert cache.downgrades_ignored == 1
        assert cache.get(k) is full
        assert cache.fidelity(k) == 1.0

    def test_eviction_forgets_fidelity(self, small_dataset):
        cache = PushCache(capacity=1)
        a, b = key(1, 0, 0), key(1, 1, 0)
        cache.put(self.tile(small_dataset, a), fidelity=0.25)
        cache.put(self.tile(small_dataset, b))
        assert a not in cache
        # Unheld keys report full fidelity (nothing to refine).
        assert cache.fidelity(a) == 1.0


# ----------------------------------------------------------------------
# the digest is maintained, not rebuilt
# ----------------------------------------------------------------------
MODEL_KEYS = [key(level, x, y) for level in (1, 2) for x in (0, 1) for y in (0, 1)]
CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(MODEL_KEYS),
            st.sampled_from([0.25, 0.5, 1.0]),
        ),
        st.tuples(st.just("get"), st.sampled_from(MODEL_KEYS)),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


class TestPushCacheDigest:
    @pytest.fixture(scope="class")
    def tiles(self, tiny_dataset):
        fetch = tiny_dataset.pyramid.fetch_tile
        return {k: fetch(k, charge=False) for k in MODEL_KEYS}

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=5), ops=CACHE_OPS)
    def test_any_sequence_leaves_what_sorted_would_give(
        self, tiles, capacity, ops
    ):
        """Against the parent's structures — an LRU of keys, a fidelity
        per key, ``sorted()`` per report — after every operation."""
        cache = PushCache(capacity=capacity)
        model: dict[TileKey, float] = {}  # insertion order is LRU order
        for op, *args in ops:
            if op == "put":
                k, fidelity = args
                cache.put(tiles[k], fidelity=fidelity)
                if k not in model or fidelity >= model[k]:
                    model.pop(k, None)
                    model[k] = fidelity
                    while len(model) > capacity:
                        del model[next(iter(model))]
            elif op == "get":
                (k,) = args
                held = cache.get(k)
                assert (held is not None) == (k in model)
                if k in model:
                    assert held is tiles[k]
                    model[k] = model.pop(k)
            else:
                cache.clear()
                model.clear()
            assert cache.digest() == sorted(model)
            assert cache.held() == tuple(map(TileRef.from_key, sorted(model)))
            assert len(cache) == len(model)
            for k in MODEL_KEYS:
                assert (k in cache) == (k in model)
                assert cache.fidelity(k) == model.get(k, 1.0)

    def test_reporting_a_held_tile_sorts_and_builds_nothing(
        self, tiles, monkeypatch
    ):
        """One request for a held tile: no ``TileKey`` comparison, and no
        ``TileRef`` built for any tile held at the request before."""
        stub = SessionStub(ClientConnection(), "s", PushCache(capacity=8))
        for k in reversed(MODEL_KEYS):
            stub.push_cache.put(tiles[k])
        calls = {"lt": 0, "ref": 0}
        lt, init = TileKey.__lt__, TileRef.__init__

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(TileKey, "__lt__", counted("lt", lt))
        monkeypatch.setattr(TileRef, "__init__", counted("ref", init))
        message, held_tile = stub.request(Move.PAN_RIGHT, MODEL_KEYS[3])
        assert calls == {"lt": 0, "ref": 0}
        # A miss builds the one reference that was not held: the tile's.
        request, _ = stub.request(Move.PAN_RIGHT, key(3, 0, 0))
        assert calls == {"lt": 0, "ref": 1}
        monkeypatch.undo()
        assert held_tile is tiles[MODEL_KEYS[3]]
        assert message.tile == TileRef.from_key(MODEL_KEYS[3])
        assert message.held == request.held == tuple(
            map(TileRef.from_key, sorted(MODEL_KEYS))
        )


class TestHeldKeysMemo:
    def test_a_reference_is_keyed_once(self, monkeypatch):
        protocol._key_of.cache_clear()
        built: list = []

        def counting_key(level, x, y):
            built.append((level, x, y))
            return TileKey(level, x, y)

        monkeypatch.setattr(protocol, "TileKey", counting_key)
        refs = tuple(TileRef(5, x, 3) for x in range(6))
        ack = PushAck(session_id="s", held=refs)
        first = protocol.held_keys(ack)
        assert first == [TileKey(5, x, 3) for x in range(6)]
        assert len(built) == 6
        request = protocol.TileRequest(
            session_id="t", tile=TileRef(0, 0, 0), held=refs[2:] + (TileRef(5, 9, 9),)
        )
        second = protocol.held_keys(request)
        assert built[6:] == [(5, 9, 9)]  # only the one not keyed before
        assert all(a is b for a, b in zip(second, first[2:]))
        info = protocol._key_of.cache_info()
        assert info.maxsize == 4096 and info.currsize == 7

    def test_an_unkeyable_reference_is_refused_every_time(self):
        ack = PushAck(session_id="s", held=(TileRef(1, 0, 0), TileRef(-3, 0, 0)))
        for _ in range(3):
            with pytest.raises(InvalidRequestError) as refusal:
                protocol.held_keys(ack)
            assert refusal.value.session_id == "s"


# ----------------------------------------------------------------------
# PushScheduler units
# ----------------------------------------------------------------------
def predictions(*keys: TileKey) -> list[tuple[TileKey, str]]:
    return [(k, "momentum") for k in keys]


class TestPushScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            PushScheduler(budget_bytes=0, max_inflight=1)
        with pytest.raises(ValueError):
            PushScheduler(budget_bytes=1024, max_inflight=0)

    def test_begin_round_requires_registration(self):
        scheduler = PushScheduler(budget_bytes=1024, max_inflight=2)
        with pytest.raises(KeyError):
            scheduler.begin_round("ghost", predictions(key(0, 0, 0)))

    def test_budget_is_split_fairly_across_sessions(self):
        scheduler = PushScheduler(budget_bytes=9000, max_inflight=8)
        scheduler.open_session("a")
        assert scheduler.allowance_bytes() == 9000
        scheduler.open_session("b")
        scheduler.open_session("c")
        assert scheduler.allowance_bytes() == 3000
        # One session cannot stream past its fair share in one round.
        scheduler.begin_round(
            "a", predictions(key(1, 0, 0), key(1, 1, 0), key(1, 0, 1))
        )
        streamed = 0
        while (job := scheduler.next_job("a")) is not None:
            if not scheduler.commit(job, 1400):
                break
            streamed += 1
        assert streamed == 2  # 3 x 1400 > 3000, 2 x 1400 fits
        assert scheduler.deferred_jobs == 1
        # The other sessions' allowance is unaffected by a's spending.
        assert scheduler.allowance_bytes() == 3000

    def test_max_inflight_caps_unacked_tiles(self):
        scheduler = PushScheduler(budget_bytes=10**6, max_inflight=2)
        scheduler.open_session("a")
        scheduler.begin_round(
            "a",
            predictions(key(1, 0, 0), key(1, 1, 0), key(1, 0, 1), key(1, 1, 1)),
        )
        sent = []
        while (job := scheduler.next_job("a")) is not None:
            assert scheduler.commit(job, 100)
            sent.append(job.key)
        assert len(sent) == 2
        assert scheduler.inflight_tiles("a") == 2
        # An ack confirming both frees the cap for the next round.
        scheduler.acknowledge("a", sent)
        assert scheduler.inflight_tiles("a") == 0

    def test_ack_dedup_held_and_inflight_never_requeued(self):
        scheduler = PushScheduler(budget_bytes=10**6, max_inflight=4)
        scheduler.open_session("a")
        held = [key(1, 0, 0)]
        scheduler.acknowledge("a", held)
        scheduler.begin_round("a", predictions(key(1, 0, 0), key(1, 1, 0)))
        job = scheduler.next_job("a")
        assert job.key == key(1, 1, 0)  # the held tile was deduped
        assert scheduler.deduped_jobs == 1
        assert scheduler.commit(job, 100)
        # Still unacked -> deduped again next round.
        scheduler.begin_round("a", predictions(key(1, 1, 0)))
        assert scheduler.next_job("a") is None
        assert scheduler.deduped_jobs == 2

    def test_eviction_makes_a_tile_pushable_again(self):
        scheduler = PushScheduler(budget_bytes=10**6, max_inflight=4)
        scheduler.open_session("a")
        scheduler.acknowledge("a", [key(1, 0, 0)])
        # The digest is authoritative: an ack *without* the tile means
        # the client evicted it, so it may be streamed again.
        scheduler.acknowledge("a", [])
        scheduler.begin_round("a", predictions(key(1, 0, 0)))
        assert scheduler.next_job("a").key == key(1, 0, 0)

    def test_new_round_cancels_what_the_old_round_queued(self):
        scheduler = PushScheduler(budget_bytes=10**6, max_inflight=4)
        scheduler.open_session("a")
        scheduler.begin_round("a", predictions(key(1, 0, 0), key(1, 1, 0)))
        generation = scheduler.generation("a")
        assert scheduler.queued_jobs("a") == 2
        scheduler.begin_round("a", predictions(key(1, 0, 1)))
        assert scheduler.generation("a") == generation + 1
        assert scheduler.cancelled_jobs == 2
        assert scheduler.queued_jobs("a") == 1

    def test_forget_session_counts_leftovers_and_is_idempotent(self):
        scheduler = PushScheduler(budget_bytes=10**6, max_inflight=4)
        scheduler.open_session("a")
        scheduler.begin_round("a", predictions(key(1, 0, 0)))
        scheduler.forget_session("a")
        assert scheduler.cancelled_jobs == 1
        assert not scheduler.has_session("a")
        scheduler.forget_session("a")  # idempotent
        assert scheduler.session_count == 0

    def test_rank_utility_orders_by_confidence_decay(self):
        scheduler = PushScheduler(budget_bytes=10**6, max_inflight=8)
        scheduler.open_session("a")
        scheduler.begin_round(
            "a", predictions(key(1, 0, 0), key(1, 1, 0), key(1, 0, 1))
        )
        jobs = []
        while (job := scheduler.next_job("a")) is not None:
            jobs.append(job)
            scheduler.commit(job, 10)
        assert [j.rank for j in jobs] == [0, 1, 2]
        assert [j.utility for j in jobs] == [
            1.0,
            CONFIDENCE_DECAY,
            CONFIDENCE_DECAY**2,
        ]

    def test_hotspot_boost_reorders_jobs(self):
        registry = SharedHotspotRegistry()
        for _ in range(5):
            registry.observe(key(1, 1, 0))
        scheduler = PushScheduler(
            budget_bytes=10**6, max_inflight=8, hotspot_registry=registry
        )
        scheduler.open_session("a")
        scheduler.begin_round("a", predictions(key(1, 0, 0), key(1, 1, 0)))
        # Rank 1 is globally hot: 0.8 * 3.0 = 2.4 > 1.0, so it leads.
        hot = scheduler.next_job("a")
        assert hot.key == key(1, 1, 0)
        assert hot.utility == CONFIDENCE_DECAY * HOT_CONFIDENCE_FACTOR == 0.8 * 3.0
        assert scheduler.next_job("a").utility == 1.0

    def test_stats_snapshot(self):
        scheduler = PushScheduler(budget_bytes=1024, max_inflight=1)
        scheduler.open_session("a")
        stats = scheduler.stats()
        assert stats["sessions"] == 1 and stats["rounds"] == 0

    def test_mid_round_join_does_not_move_the_round_budget(self):
        # Regression: commit used to recompute the fair share live, so a
        # session joining mid-round silently shrank what an in-progress
        # round could still stream.  The round must charge the allowance
        # snapshotted at begin_round.
        scheduler = PushScheduler(budget_bytes=3000, max_inflight=8)
        scheduler.open_session("a")
        scheduler.begin_round(
            "a", predictions(key(1, 0, 0), key(1, 1, 0), key(1, 0, 1))
        )
        assert scheduler.commit(scheduler.next_job("a"), 1000)
        scheduler.open_session("b")  # live share drops to 1500 ...
        assert scheduler.allowance_bytes() == 1500
        # ... but a's round keeps its 3000-byte snapshot.
        assert scheduler.commit(scheduler.next_job("a"), 1000)
        assert scheduler.commit(scheduler.next_job("a"), 1000)
        assert scheduler.deferred_jobs == 0
        # The *next* round is granted the new, smaller share.
        scheduler.acknowledge("a", [])
        scheduler.begin_round("a", predictions(key(2, 0, 0)))
        assert not scheduler.commit(scheduler.next_job("a"), 1600)

    def test_oversized_frame_is_skipped_not_requeued(self):
        # A frame larger than the whole fair share can never pass
        # commit; the old behavior deferred it every round forever.
        scheduler = PushScheduler(budget_bytes=1000, max_inflight=8)
        scheduler.open_session("a")
        scheduler.begin_round("a", predictions(key(1, 0, 0), key(1, 1, 0)))
        giant = scheduler.next_job("a")
        assert scheduler.skip_oversize(giant, 5000)
        assert scheduler.skipped_oversize == 1
        # The next job still fits and streams normally.
        job = scheduler.next_job("a")
        assert not scheduler.skip_oversize(job, 400)
        assert scheduler.commit(job, 400)
        assert scheduler.stats()["skipped_oversize"] == 1
        assert scheduler.pushed_tiles == 1

    def test_skip_oversize_for_a_forgotten_session(self):
        scheduler = PushScheduler(budget_bytes=1000, max_inflight=8)
        scheduler.open_session("a")
        scheduler.begin_round("a", predictions(key(1, 0, 0)))
        job = scheduler.next_job("a")
        scheduler.forget_session("a")
        assert scheduler.skip_oversize(job, 10)  # nowhere to stream it


class TestProgressivePushScheduler:
    def scheduler(self, budget: int = 10**6) -> PushScheduler:
        scheduler = PushScheduler(
            budget_bytes=budget,
            max_inflight=8,
            progressive=True,
        )
        scheduler.open_session("a")
        return scheduler

    def test_round_queues_coarse_phase_before_refinements(self):
        scheduler = self.scheduler()
        queued = scheduler.begin_round(
            "a", predictions(key(1, 0, 0), key(1, 1, 0))
        )
        assert queued == 4  # two coarse + two refinements
        jobs = []
        while (job := scheduler.next_job("a")) is not None:
            jobs.append(job)
            scheduler.commit(job, 100)
        # Every predicted tile streams coarse before *any* refinement.
        assert [j.fidelity for j in jobs] == [0.25, 0.25, 1.0, 1.0]
        assert [j.key for j in jobs[:2]] == [j.key for j in jobs[2:]]
        assert scheduler.coarse_tiles == 2
        assert scheduler.refined_tiles == 2

    def test_budget_exhaustion_leaves_tiles_coarse(self):
        scheduler = self.scheduler(budget=250)
        scheduler.begin_round("a", predictions(key(1, 0, 0), key(1, 1, 0)))
        streamed = []
        while (job := scheduler.next_job("a")) is not None:
            if not scheduler.commit(job, 100):
                break
            streamed.append(job)
        # Both coarse frames fit; no refinement does.
        assert [j.fidelity for j in streamed] == [0.25, 0.25]
        assert scheduler.coarse_tiles == 2 and scheduler.refined_tiles == 0

    def test_coarse_held_tile_requeues_refinement_not_dedup(self):
        scheduler = self.scheduler(budget=250)
        k = key(1, 0, 0)
        scheduler.begin_round("a", predictions(k))
        assert scheduler.commit(scheduler.next_job("a"), 100)  # coarse out
        # The client acks holding the (coarse) tile.
        scheduler.acknowledge("a", [k])
        # Same prediction next round: the plain dedup would swallow the
        # upgrade — a refinement-only job must be queued instead.
        scheduler.begin_round("a", predictions(k))
        job = scheduler.next_job("a")
        assert job is not None and job.fidelity == 1.0 and job.key == k
        assert scheduler.commit(job, 100)
        assert scheduler.refined_tiles == 1
        # Fully refined and held: now the dedup applies.
        scheduler.acknowledge("a", [k])
        scheduler.begin_round("a", predictions(k))
        assert scheduler.next_job("a") is None
        assert scheduler.deduped_jobs == 1

    def test_new_round_cancels_queued_refinements(self):
        scheduler = self.scheduler(budget=250)
        scheduler.begin_round("a", predictions(key(1, 0, 0)))
        assert scheduler.commit(scheduler.next_job("a"), 100)
        assert scheduler.queued_jobs("a") == 1  # the refinement, waiting
        scheduler.begin_round("a", predictions(key(2, 0, 0)))
        assert scheduler.cancelled_jobs == 1

    def test_refinement_streams_past_the_inflight_cap(self):
        # A refinement re-uses its tile's unacked slot, so it must not
        # deadlock behind max_inflight.
        scheduler = PushScheduler(
            budget_bytes=10**6,
            max_inflight=1,
            progressive=True,
        )
        scheduler.open_session("a")
        scheduler.begin_round("a", predictions(key(1, 0, 0)))
        coarse = scheduler.next_job("a")
        assert coarse.fidelity == 0.25
        assert scheduler.commit(coarse, 100)
        refine = scheduler.next_job("a")  # cap is full, same key passes
        assert refine is not None and refine.fidelity == 1.0
        assert scheduler.commit(refine, 400)
        assert scheduler.inflight_tiles("a") == 1

    def test_client_eviction_clears_coarse_tracking(self):
        scheduler = self.scheduler(budget=250)
        k = key(1, 0, 0)
        scheduler.begin_round("a", predictions(k))
        assert scheduler.commit(scheduler.next_job("a"), 100)
        # Digest without the tile: the client evicted the coarse copy.
        scheduler.acknowledge("a", [])
        scheduler.begin_round("a", predictions(k))
        # Fresh push again (coarse first), not a refinement of nothing.
        job = scheduler.next_job("a")
        assert job.fidelity == 0.25


# ----------------------------------------------------------------------
# protocol envelope
# ----------------------------------------------------------------------
class TestPushProtocol:
    def test_push_tile_round_trip(self, small_dataset):
        tile = small_dataset.pyramid.fetch_tile(key(1, 0, 0), charge=False)
        message = PushTile(
            session_id="s",
            tile=TileRef.from_key(tile.key),
            rank=2,
            generation=7,
            utility=0.64,
            payload=TilePayload.from_tile(tile),
        )
        decoded = protocol.decode(protocol.encode(message))
        assert decoded == message
        assert decoded.payload.to_tile().key == tile.key

    def test_push_ack_round_trip(self):
        message = PushAck(
            session_id="s",
            held=(TileRef.from_key(key(1, 0, 0)),),
            move=Move.PAN_RIGHT.value,
            tile=TileRef.from_key(key(1, 1, 0)),
        )
        assert protocol.decode(protocol.encode(message)) == message
        assert message.to_move() is Move.PAN_RIGHT

    def test_hello_welcome_negotiate_push(self):
        hello = protocol.decode(
            protocol.encode(Hello(versions=(1,), push=True))
        )
        assert hello.push is True
        # Legacy peers omit the field entirely; it defaults off.
        legacy = protocol.decode('{"type": "hello", "versions": [1]}')
        assert legacy.push is False
        welcome = protocol.decode(
            protocol.encode(Welcome(version=1, server="s", push=True))
        )
        assert welcome.push is True


# ----------------------------------------------------------------------
# end-to-end over real sockets
# ----------------------------------------------------------------------
def push_walk(start: TileKey, moves: list[Move]) -> list:
    walk = [(None, start)]
    current = start
    for move in moves:
        current = current.apply(move)
        walk.append((move, current))
    return walk


PAN_WALK = push_walk(
    TileKey(3, 0, 1), [Move.PAN_RIGHT] * 4 + [Move.PAN_DOWN] * 2
)


@pytest.fixture
def push_server(small_dataset):
    with ThreadedSocketServer(
        small_dataset.pyramid,
        PUSH_CONFIG,
        engine_factory=engine_factory(small_dataset.pyramid),
    ) as server:
        yield server


class TestPushEndToEnd:
    def test_negotiation_grants_push_only_when_both_sides_ask(
        self, push_server, small_dataset
    ):
        pyramid = small_dataset.pyramid
        with SocketTransport(
            *push_server.address, pyramid=pyramid, push=True
        ) as transport:
            assert transport.push_enabled
        with SocketTransport(*push_server.address, pyramid=pyramid) as legacy:
            assert not legacy.push_enabled
            assert legacy.connect().push_cache is None

    def test_only_a_push_connections_sessions_join_the_push_scheduler(
        self, push_server
    ):
        scheduler = push_server.server.push_scheduler
        with SocketTransport(*push_server.address) as pull, SocketTransport(
            *push_server.address, push=True
        ) as push:
            pull.connect()
            assert scheduler.session_count == 0
            conn = push.connect()
            assert scheduler.session_count == 1
            conn.close()
            assert scheduler.session_count == 0

    def test_push_off_server_declines_a_push_client(self, small_dataset):
        with ThreadedSocketServer(
            small_dataset.pyramid,
            ServiceConfig(prefetch=PrefetchPolicy(k=4, push="off")),
            engine_factory=engine_factory(small_dataset.pyramid),
        ) as server:
            with SocketTransport(
                *server.address, pyramid=small_dataset.pyramid, push=True
            ) as transport:
                assert not transport.push_enabled
                conn = transport.connect()
                assert conn.push_cache is None
                assert conn.request(None, TileKey(0, 0, 0)).tile.key == (
                    TileKey(0, 0, 0)
                )

    def test_pushed_tiles_answer_locally(self, push_server, small_dataset):
        with SocketTransport(
            *push_server.address, pyramid=small_dataset.pyramid, push=True
        ) as transport:
            conn = transport.connect()
            for move, k in PAN_WALK:
                response = conn.request(move, k)
                assert response.tile.key == k
            cache = conn.push_cache
            assert cache.hits > 0  # pans were answered from the cache
            # Local hits report zero latency and count as hits
            # server-side too.
            info = conn.transport.roundtrip(
                protocol.OpenSession(session_id=None)
            )
            scheduler = push_server.server.push_scheduler
            assert scheduler.pushed_tiles > 0
            assert info is not None

    def test_held_tile_is_never_streamed_twice(
        self, push_server, small_dataset
    ):
        with SocketTransport(
            *push_server.address,
            pyramid=small_dataset.pyramid,
            push=True,
            push_cache_capacity=64,
        ) as transport:
            conn = transport.connect()
            for move, k in PAN_WALK:
                conn.request(move, k)
            transport.settle()
            cache = conn.push_cache
            # With no client-side eviction, every put must be a distinct
            # key: a re-push of a held tile would raise pushed above the
            # number of tiles actually held.
            assert cache.evicted == 0
            assert cache.pushed == len(cache)
            assert push_server.server.push_scheduler.deduped_jobs > 0

    def test_unloadable_and_oversized_pushes_are_rejected_not_streamed(
        self, small_dataset
    ):
        # In one push round the first predicted tile fails to load and
        # the second encodes over the frame budget.  Both are dropped
        # through the scheduler's reject path, neither is streamed or
        # held, the rest of the round streams, and the request's own
        # reply still arrives.
        pyramid = small_dataset.pyramid
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=4, push="on", push_budget_bytes=10**7),
            cache=CacheConfig(recent_capacity=4, prefetch_capacity=8),
            max_frame_bytes=2**20,
        )
        with ThreadedSocketServer(
            pyramid, config, engine_factory=engine_factory(pyramid)
        ) as server:
            scheduler = server.server.push_scheduler
            load_tile, reject = server.server._load_tile, scheduler.reject
            loaded, rejected = [], []

            async def faulty_load_tile(key):
                loaded.append(key)
                if len(loaded) == 1:
                    raise OSError("backend unavailable")
                tile = await load_tile(key)
                if len(loaded) == 2:
                    # 2 MiB of float noise per attribute: no deflate
                    # brings that frame under the 1 MiB budget.
                    noise = np.random.default_rng(0).random((512, 512))
                    return DataTile(key, {name: noise for name in tile.attributes})
                return tile

            def recording_reject(job):
                rejected.append(job.key)
                reject(job)

            server.server._load_tile = faulty_load_tile
            scheduler.reject = recording_reject
            with SocketTransport(
                *server.address, pyramid=pyramid, push=True, payload="binary"
            ) as transport:
                conn = transport.connect()
                response = conn.request(None, pyramid.grid.root)
                transport.settle()
                assert response.tile.key == pyramid.grid.root
                assert len(loaded) > 2
                assert rejected == loaded[:2]
                assert scheduler.deferred_jobs == 2
                state = scheduler._sessions[conn.session_id]
                for key in rejected:
                    assert key not in conn.push_cache
                    assert key not in state.held and key not in state.unacked
                assert set(state.unacked) == set(loaded[2:])
                assert scheduler.pushed_tiles == len(conn.push_cache) == len(loaded) - 2

    def test_new_request_cancels_stale_queued_pushes(self, small_dataset):
        # A tiny in-flight cap leaves jobs queued after every round; the
        # next request must cancel them (generation bump), not stream
        # a stale round.
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=4, push="on", push_max_inflight=1),
            cache=CacheConfig(recent_capacity=4, prefetch_capacity=8),
        )
        with ThreadedSocketServer(
            small_dataset.pyramid,
            config,
            engine_factory=engine_factory(small_dataset.pyramid),
        ) as server:
            with SocketTransport(
                *server.address, pyramid=small_dataset.pyramid, push=True
            ) as transport:
                conn = transport.connect()
                for move, k in PAN_WALK:
                    conn.request(move, k)
                transport.settle()
                scheduler = server.server.push_scheduler
                assert scheduler.cancelled_jobs > 0
                assert scheduler.inflight_tiles(conn.session_id) <= 1

    def test_mid_push_disconnect_leaves_service_healthy(
        self, push_server, small_dataset
    ):
        pyramid = small_dataset.pyramid
        transport = SocketTransport(
            *push_server.address, pyramid=pyramid, push=True
        )
        conn = transport.connect()
        conn.request(None, TileKey(3, 0, 1))
        # Vanish abruptly: no close_session, no goodbye — the server's
        # connection cleanup must reap the session and its push state.
        transport.close()
        scheduler = push_server.server.push_scheduler

        deadline = 50
        while scheduler.session_count and deadline:
            deadline -= 1
            time.sleep(0.1)
        assert scheduler.session_count == 0
        # And a fresh client is served as if nothing happened.
        with SocketTransport(
            *push_server.address, pyramid=pyramid, push=True
        ) as fresh:
            replacement = fresh.connect()
            for move, k in PAN_WALK:
                assert replacement.request(move, k).tile.key == k
            replacement.close()

    def test_push_ack_without_negotiation_is_rejected(
        self, push_server, small_dataset
    ):
        with SocketTransport(
            *push_server.address, pyramid=small_dataset.pyramid
        ) as legacy:
            conn = legacy.connect()
            reply = legacy.roundtrip(
                PushAck(session_id=conn.session_id, held=())
            )
            assert isinstance(reply, protocol.ErrorInfo)
            with pytest.raises(InvalidRequestError):
                raise reply.to_exception()

    def test_progressive_push_refines_client_tiles_in_place(
        self, small_dataset
    ):
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=4, push="on", fidelity="progressive"),
            cache=CacheConfig(recent_capacity=4, prefetch_capacity=8),
        )
        with ThreadedSocketServer(
            small_dataset.pyramid,
            config,
            engine_factory=engine_factory(small_dataset.pyramid),
        ) as server:
            with SocketTransport(
                *server.address,
                pyramid=small_dataset.pyramid,
                push=True,
                push_cache_capacity=64,
            ) as transport:
                conn = transport.connect()
                for move, k in PAN_WALK:
                    response = conn.request(move, k)
                    assert response.tile.key == k
                    # Request/reply responses are always full fidelity.
                    assert response.tile.shape == (32, 32)
                transport.settle()
                cache = conn.push_cache
                scheduler = server.server.push_scheduler
                stats = scheduler.stats()
                # Coarse frames streamed, and refinements landed as
                # in-place upgrades on the client.
                assert stats["coarse_tiles"] > 0
                assert stats["refined_tiles"] > 0
                assert cache.upgraded > 0
                assert cache.downgrades_ignored == 0
                # Every held tile is full tile shape (coarse stand-ins
                # are upsampled on arrival) at a tracked fidelity.
                for k in cache.digest():
                    assert cache.get(k).shape == (32, 32)
                    assert 0.0 < cache.fidelity(k) <= 1.0

    def test_second_walker_is_pushed_without_encoding(
        self, push_server, small_dataset, segment_encodes
    ):
        pyramid = small_dataset.pyramid
        pushed = []
        for _ in range(2):
            with SocketTransport(
                *push_server.address, pyramid=pyramid, push=True
            ) as transport:
                conn = transport.connect()
                for move, k in PAN_WALK:
                    conn.request(move, k)
                transport.settle()
                for k in conn.push_cache.digest():
                    held = conn.push_cache.get(k)
                    full = pyramid.fetch_tile(k, charge=False)
                    for name, array in full.attributes.items():
                        assert (held.attributes[name] == array).all()
                pushed.append(conn.push_cache.pushed)
            if len(pushed) == 1:
                first = len(segment_encodes)
        # After the first walker's sends every tile it was sent carries
        # its encoding; the second walks the same tiles and is sent
        # those encodings, pushes included.
        assert pushed[0] == pushed[1] > 0
        assert len(segment_encodes) == first

    def test_coarse_push_frames_are_never_memoised(
        self, small_dataset, segment_encodes
    ):
        pyramid = small_dataset.pyramid
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=4, push="on", fidelity="progressive"),
            cache=CacheConfig(recent_capacity=4, prefetch_capacity=8),
        )
        with ThreadedSocketServer(
            pyramid, config, engine_factory=engine_factory(pyramid)
        ) as server:
            with SocketTransport(
                *server.address, push=True, push_cache_capacity=64
            ) as pushy:
                conn = pushy.connect()
                for move, k in PAN_WALK:
                    conn.request(move, k)
                pushy.settle()
                streamed = conn.push_cache.digest()
            assert server.server.push_scheduler.stats()["coarse_tiles"] > 0
            # Only full-fidelity tiles reach the segment encoder.
            assert {t.shape for t, _ in segment_encodes} <= {(32, 32)}
            # A coarse frame shares its key with the full tile.  Had its
            # segment been memoised, a plain client asking for that key
            # would now be handed the block-averaged bytes.
            with SocketTransport(*server.address) as plain:
                conn = plain.connect()
                for k in streamed:
                    response = conn.request(None, k)
                    full = pyramid.fetch_tile(k, charge=False)
                    assert response.fidelity == 1.0
                    for name, array in full.attributes.items():
                        assert (response.tile.attributes[name] == array).all()


# ----------------------------------------------------------------------
# a local hit is answered at once: same bytes, same answers, later books
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world256():
    return MODISDataset.build(size=256, tile_size=32, days=1, seed=7)


def push_config(fidelity="off", budget=None) -> ServiceConfig:
    policy = dict(k=4, push="on", fidelity=fidelity)
    if budget is not None:
        policy["push_budget_bytes"] = budget
    return ServiceConfig(
        prefetch=PrefetchPolicy(**policy),
        cache=CacheConfig(recent_capacity=4, prefetch_capacity=8),
    )


def held_response(stub: SessionStub, reply, held_tile) -> TileResponse:
    """The in-process response to a local hit once the server's reply
    to its ``push_ack`` is read: the reference a deferring client's
    ``local_response`` is held to.  The reply is payload-less by design,
    so the tile is the one the push cache holds."""
    stub._check_hit_reply(reply)
    return TileResponse(
        tile=held_tile,
        latency_seconds=reply.latency_seconds,
        hit=reply.hit,
        phase=reply.to_phase(),
        prefetched=tuple(ref.to_key() for ref in reply.prefetched),
        # A held tile may still be the coarse stand-in awaiting its
        # refinement frame; report what it was held at when probed.
        fidelity=stub._fidelity,
    )


def synchronous(conn):
    """The parent's session client — one blocking round trip per
    request, local hit or not — transcribed from the public pieces."""
    stub = conn._stub

    def request(move, k):
        message, held = stub.request(move, k)
        reply = conn.transport.roundtrip(message)
        if held is None:
            return stub.response(reply)
        return held_response(stub, reply, held)

    return request


def drive(pyramid, config, steps, *, sessions=1, capacity=32, client=None):
    """Run ``steps`` — ``(session, choice among its legal moves)`` pairs,
    each session starting at the root — over one fresh server and one
    tapped push connection; ``client(conn)`` is what issues a session's
    requests (default: the shipped, deferring ``conn.request``).
    Returns the responses and both byte streams."""
    grid = pyramid.grid
    with ThreadedSocketServer(
        pyramid, config, engine_factory=engine_factory(pyramid)
    ) as server, SocketTransport(
        *server.address,
        push=True,
        payload="binary",
        push_cache_capacity=capacity,
        wire_tap=True,
    ) as transport:
        conns = [transport.connect(session_id=f"s{i}") for i in range(sessions)]
        request = [client(c) if client else c.request for c in conns]
        at: list = [None] * sessions
        responses = []
        for who, choice in steps:
            who %= sessions
            if at[who] is None:
                move, target = None, grid.root
            else:
                legal = grid.available_moves(at[who])
                move, target = legal[choice % len(legal)]
            responses.append(request[who](move, target))
            at[who] = target
        hits = sum(c.push_cache.hits for c in conns)
        for conn in conns:
            conn.close()
        return (
            responses,
            hits,
            bytes(transport.wire_sent),
            bytes(transport.wire_received),
        )


def assert_same_answers(deferring, reference):
    assert len(deferring) == len(reference)
    for mine, theirs in zip(deferring, reference):
        assert mine.tile.key == theirs.tile.key
        for name, block in theirs.tile.attributes.items():
            assert (mine.tile.attributes[name] == block).all()
        assert (mine.hit, mine.latency_seconds, mine.fidelity) == (
            theirs.hit, theirs.latency_seconds, theirs.fidelity,
        )


# Momentum pushes what lies ahead; a walk that keeps choosing the same
# few moves is the one that meets its pushes.
WALK_STEPS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=2, max_size=30
)


class TestDeferredAcks:
    @settings(max_examples=20, deadline=None)
    @given(
        steps=WALK_STEPS,
        sessions=st.integers(1, 3),
        capacity=st.integers(1, 8),
        progressive_budget=st.sampled_from([None, 8192, 12000]),
    )
    def test_same_bytes_and_answers_as_the_synchronous_client(
        self, world256, steps, sessions, capacity, progressive_budget
    ):
        config = (
            push_config()
            if progressive_budget is None
            else push_config("progressive", progressive_budget)
        )
        shape = dict(sessions=sessions, capacity=capacity)
        mine = drive(world256.pyramid, config, steps, **shape)
        theirs = drive(
            world256.pyramid, config, steps, client=synchronous, **shape
        )
        assert_same_answers(mine[0], theirs[0])
        assert mine[1:] == theirs[1:]  # local hits, sent bytes, received bytes

    @pytest.mark.parametrize("fidelity", ["off", "progressive"])
    def test_a_walk_of_local_hits_is_byte_identical(self, world256, fidelity):
        # Down to the deepest level, then back and forth along a row.
        steps = [(0, 0)] * 4 + [(0, 1)] * 5 + [(0, 0)] * 5 + [(0, 1)] * 3
        config = push_config(fidelity)
        mine = drive(world256.pyramid, config, steps)
        theirs = drive(world256.pyramid, config, steps, client=synchronous)
        assert mine[1] > 4  # the walk did meet its pushes
        assert_same_answers(mine[0], theirs[0])
        assert mine[1:] == theirs[1:]
        # What a local hit cannot know yet, it does not claim.
        local = [r for r in mine[0] if r.latency_seconds == 0.0 and r.hit]
        assert len(local) == mine[1]
        assert all((r.phase, r.prefetched) == (None, ()) for r in local)

    @pytest.mark.parametrize(
        "budget, capacity", [(8192, 1), (12000, 2)], ids=["cap1", "cap2"]
    )
    def test_a_local_hit_reports_the_fidelity_its_tile_was_held_at(
        self, world256, budget, capacity
    ):
        """A small push cache under a small budget: the round a local
        hit's ack starts evicts (or upgrades) the very key that was
        just answered.  The response must describe the tile it carries."""
        pyramid = world256.pyramid
        with ThreadedSocketServer(
            pyramid,
            push_config("progressive", budget),
            engine_factory=engine_factory(pyramid),
        ) as server, SocketTransport(
            *server.address, push=True, push_cache_capacity=capacity
        ) as transport:
            conn = transport.connect()
            current = TileKey(3, 0, 1)
            conn.request(None, current)
            coarse_hits = 0
            for move in [Move.PAN_RIGHT, Move.PAN_LEFT] * 6:
                current = current.apply(move)
                hits = conn.push_cache.hits
                response = conn.request(move, current)
                if conn.push_cache.hits == hits:
                    continue
                full = pyramid.fetch_tile(current, charge=False)
                is_full = all(
                    (response.tile.attributes[name] == block).all()
                    for name, block in full.attributes.items()
                )
                assert is_full == (response.fidelity == 1.0)
                coarse_hits += not is_full
            assert coarse_hits > 0

    def test_after_settle_the_servers_books_are_the_clients(
        self, push_server, small_dataset
    ):
        service = push_server.server.service
        with SocketTransport(
            *push_server.address, pyramid=small_dataset.pyramid, push=True
        ) as transport:
            conn = transport.connect(session_id="walker")
            hits = 0
            for count, (move, k) in enumerate(PAN_WALK, start=1):
                hits += conn.request(move, k).hit
                transport.settle()
                info = service.info("walker")
                assert (info.requests, info.hits) == (count, hits)
                assert service.session("walker").recorder.count == count
            assert conn.push_cache.hits > 0

    def test_two_threads_share_one_transport(self, world256):
        """Settling in one session's call files pushes into the other's
        cache; probe, digest and post hold the transport's lock."""
        pyramid = world256.pyramid
        bounce = [Move.PAN_RIGHT] * 5 + [Move.PAN_LEFT] * 5
        walks = [
            push_walk(TileKey(3, 0, row), bounce * 6) for row in (1, 5)
        ]
        wrong: list = []

        def walk(conn, steps, counts):
            for move, k in steps:
                response = conn.request(move, k)
                full = pyramid.fetch_tile(k, charge=False)
                if response.tile.key != k or any(
                    (response.tile.attributes[name] != block).any()
                    for name, block in full.attributes.items()
                ):
                    wrong.append(k)
                counts.append(response.hit)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadedSocketServer(
                pyramid, PUSH_CONFIG, engine_factory=engine_factory(pyramid)
            ) as server, SocketTransport(
                *server.address, push=True, payload="binary"
            ) as transport:
                conns = [transport.connect(session_id=n) for n in "ab"]
                counts: list = [[], []]
                threads = [
                    threading.Thread(target=walk, args=args, daemon=True)
                    for args in zip(conns, walks, counts)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                transport.settle()
                service = server.server.service
                for conn, walked, seen in zip(conns, walks, counts):
                    info = service.info(conn.session_id)
                    assert (info.requests, info.hits) == (
                        len(walked), sum(seen),
                    )
                    assert len(seen) == len(walked)
                assert sum(c.push_cache.hits for c in conns) > 20
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_two_interleaved_sessions_share_one_transport(self, world256):
        """Step by step in turn, the two sessions' calls settle each
        other's rounds: every reply still carries its own full tile,
        and the server's books end equal to the clients'."""
        pyramid = world256.pyramid
        bounce = [Move.PAN_RIGHT] * 5 + [Move.PAN_LEFT] * 5
        walks = [
            push_walk(TileKey(3, 0, row), bounce * 3) for row in (1, 5)
        ]
        with ThreadedSocketServer(
            pyramid, PUSH_CONFIG, engine_factory=engine_factory(pyramid)
        ) as server, SocketTransport(
            *server.address, push=True, payload="binary"
        ) as transport:
            conns = [transport.connect(session_id=n) for n in "ab"]
            seen = [0, 0]
            for steps in zip(*walks):
                for index, (conn, (move, k)) in enumerate(zip(conns, steps)):
                    response = conn.request(move, k)
                    full = pyramid.fetch_tile(k, charge=False)
                    assert response.tile.key == k
                    for name, block in full.attributes.items():
                        assert (response.tile.attributes[name] == block).all()
                    seen[index] += response.hit
            transport.settle()
            service = server.server.service
            for conn, walked, hits in zip(conns, walks, seen):
                info = service.info(conn.session_id)
                assert (info.requests, info.hits) == (len(walked), hits)
            assert sum(c.push_cache.hits for c in conns) > 10


# ----------------------------------------------------------------------
# fuzz: interleaved push/reply frames through the decoder
# ----------------------------------------------------------------------
def _reply_frame(index: int) -> str:
    return protocol.encode(
        protocol.SessionInfo(
            session_id=f"reply-{index}",
            open=True,
            prefetch_mode="sync",
            requests=index,
            hits=0,
            hit_rate=0.0,
            average_latency_seconds=0.0,
        )
    )


def _push_frame(index: int) -> str:
    return protocol.encode(
        PushTile(
            session_id=f"push-{index}",
            tile=TileRef.from_key(TileKey(1, index % 2, 0)),
            rank=index,
            generation=1,
            utility=0.8**index,
        )
    )


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.booleans(), min_size=1, max_size=12),
    framing=st.sampled_from(["lines", "length"]),
    chunk=st.integers(min_value=1, max_value=64),
)
def test_interleaved_push_and_reply_frames_decode_in_order(
    kinds, framing, chunk
):
    """However pushes interleave with replies — and however the bytes
    fragment — the decoder yields every frame once, in order, and the
    client-side absorption rule (skip pushes, return the first
    non-push) always pairs the right reply."""
    texts = [
        _push_frame(i) if is_push else _reply_frame(i)
        for i, is_push in enumerate(kinds)
    ]
    stream = b"".join(encode_frame(text, framing) for text in texts)
    decoder = FrameDecoder(framing)
    received: list[str] = []
    for start in range(0, len(stream), chunk):
        received.extend(decoder.feed(stream[start : start + chunk]))
    assert received == texts
    assert decoder.buffered == 0
    # The absorption rule: pushes are consumed, the first reply wins.
    pushes, reply = [], None
    for text in received:
        message = protocol.decode(text)
        if isinstance(message, PushTile):
            pushes.append(message)
            continue
        reply = message
        break
    expected_pushes = 0
    for is_push in kinds:
        if not is_push:
            break
        expected_pushes += 1
    assert len(pushes) == expected_pushes
    if expected_pushes < len(kinds):
        assert reply is not None
        assert reply.session_id == f"reply-{expected_pushes}"
    else:
        assert reply is None
