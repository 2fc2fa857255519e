"""Concurrency tests: coalescing, stale-job cancellation, shared-cache races.

These exercise the serving subsystem the way a real deployment does —
many threads hammering one cache manager and one scheduler — with
backend queries gated or slowed just enough to force the interleavings
the code must survive.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.scheduler import (
    CANCELLED,
    DONE,
    FAILED,
    PrefetchScheduler,
)
from repro.middleware.service import ForeCacheService
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(grid, {model.name: model}, SingleModelStrategy(model.name))


def serving(pyramid, policy: PrefetchPolicy, **cache) -> ForeCacheService:
    """A service whose sessions each get a fresh momentum engine."""
    return ForeCacheService(
        pyramid,
        ServiceConfig(prefetch=policy, cache=CacheConfig(**cache)),
        engine_factory=lambda: make_engine(pyramid.grid),
    )


class Table(dict):
    """A pyramid's live tile table with no pyramid: :meth:`query` loads
    a key's tile into it as a fetch fills the table, and :meth:`tiles`
    makes it a pyramid to a :class:`CacheManager`."""

    def query(self, key: TileKey) -> tuple[DataTile, float]:
        import numpy as np

        entry = self[key] = (DataTile(key=key, attributes={"v": np.zeros((2, 2))}), 0.5)
        return entry

    def tiles(self) -> Table:
        return self

    def request(self, cache: TileCache, key: TileKey, model: str | None = None):
        """``cache.request`` served from this table."""
        return cache.request(key, self.query, self, model)


def run_threads(workers) -> list[BaseException]:
    """Run thunks on their own threads; return exceptions they raised."""
    errors: list[BaseException] = []
    lock = threading.Lock()

    def guard(fn):
        def body():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced to the test
                with lock:
                    errors.append(exc)

        return body

    threads = [threading.Thread(target=guard(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "worker thread hung"
    return errors


class TestCoalescing:
    def test_concurrent_same_tile_misses_coalesce(self, small_dataset):
        manager = CacheManager(
            small_dataset.pyramid, TileCache(), backend_delay_seconds=0.05
        )
        calls: list[TileKey] = []
        original = manager._query_backend

        def counting(key):
            calls.append(key)
            return original(key)

        manager._query_backend = counting
        key = TileKey(3, 2, 2)
        barrier = threading.Barrier(8)
        outcomes = []
        outcome_lock = threading.Lock()

        def worker():
            barrier.wait()
            outcome = manager.fetch(key)
            with outcome_lock:
                outcomes.append(outcome)

        errors = run_threads([worker] * 8)
        assert not errors
        assert len(calls) == 1, "concurrent misses must trigger one DBMS query"
        assert len(outcomes) == 8
        assert all(o.tile.key == key for o in outcomes)
        assert sum(1 for o in outcomes if not o.coalesced) == 1
        assert manager.coalesced == 7
        assert manager.requests == 8
        assert manager.hits == 0

    def test_distinct_tiles_do_not_coalesce(self, small_dataset):
        manager = CacheManager(
            small_dataset.pyramid, TileCache(), backend_delay_seconds=0.02
        )
        calls: list[TileKey] = []
        original = manager._query_backend

        def counting(key):
            calls.append(key)
            return original(key)

        manager._query_backend = counting
        keys = [TileKey(3, x, 0) for x in range(4)]
        barrier = threading.Barrier(4)

        def worker(key):
            barrier.wait()
            manager.fetch(key)

        errors = run_threads([lambda k=k: worker(k) for k in keys])
        assert not errors
        assert sorted(calls) == sorted(keys)

    def test_prefetch_job_coalesces_with_request(self, small_dataset):
        """A request landing on a tile already being prefetched waits for
        that load instead of issuing a second query."""
        manager = CacheManager(small_dataset.pyramid, TileCache())
        key = TileKey(3, 1, 1)
        calls: list[TileKey] = []
        started = threading.Event()
        release = threading.Event()
        original = manager._query_backend

        def gated(query_key):
            calls.append(query_key)
            started.set()
            assert release.wait(10)
            return original(query_key)

        manager._query_backend = gated
        scheduler = PrefetchScheduler(manager, max_workers=1)
        try:
            scheduler.schedule([(key, "m")])
            assert started.wait(10)

            def requester():
                outcome = manager.fetch(key)
                assert outcome.coalesced

            thread = threading.Thread(target=requester)
            thread.start()
            release.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert scheduler.wait_idle(10)
            assert len(calls) == 1
        finally:
            release.set()
            scheduler.shutdown()


class TestStaleCancellation:
    def test_new_round_cancels_queued_jobs(self, small_dataset):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        started = threading.Event()
        release = threading.Event()
        original = manager._query_backend

        def gated(key):
            started.set()
            assert release.wait(10)
            return original(key)

        manager._query_backend = gated
        scheduler = PrefetchScheduler(manager, max_workers=1)
        try:
            first = scheduler.schedule(
                [(TileKey(2, i, 0), "m") for i in range(4)], session_id=7
            )
            assert started.wait(10)  # worker is inside job 0's query
            second = scheduler.schedule([(TileKey(2, 0, 1), "m")], session_id=7)
            release.set()
            assert scheduler.wait_idle(10)
            # Job 0 was already past its staleness check; the rest of the
            # superseded round never touched the backend.
            assert [job.state for job in first] == [DONE] + [CANCELLED] * 3
            assert all(job.state == DONE for job in second)
            assert scheduler.jobs_cancelled == 3
            assert scheduler.jobs_completed == 2
        finally:
            release.set()
            scheduler.shutdown()

    def test_cancel_session_drops_queued_jobs(self, small_dataset):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        started = threading.Event()
        release = threading.Event()
        original = manager._query_backend

        def gated(key):
            started.set()
            assert release.wait(10)
            return original(key)

        manager._query_backend = gated
        scheduler = PrefetchScheduler(manager, max_workers=1)
        try:
            jobs = scheduler.schedule(
                [(TileKey(2, i, 0), "m") for i in range(3)], session_id=1
            )
            assert started.wait(10)
            scheduler.cancel_session(1)
            release.set()
            assert scheduler.wait_idle(10)
            assert [job.state for job in jobs] == [DONE, CANCELLED, CANCELLED]
        finally:
            release.set()
            scheduler.shutdown()

    def test_sessions_cancel_independently(self, small_dataset):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        scheduler = PrefetchScheduler(manager, max_workers=2)
        try:
            ours = scheduler.schedule([(TileKey(2, 0, 0), "m")], session_id="a")
            scheduler.cancel_session("b")  # someone else's session
            assert scheduler.wait_idle(10)
            assert ours[0].state == DONE
        finally:
            scheduler.shutdown()

    def test_a_failed_load_does_not_stop_the_worker(self, small_dataset):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        bad = TileKey(2, 0, 0)
        original = manager._query_backend

        def flaky(key):
            if key == bad:
                raise OSError("backend went away")
            return original(key)

        manager._query_backend = flaky
        scheduler = PrefetchScheduler(manager, max_workers=1)
        try:
            jobs = scheduler.schedule([(bad, "m"), (TileKey(2, 1, 0), "m")])
            assert scheduler.wait_idle(10)
            assert [job.state for job in jobs] == [FAILED, DONE]
            assert isinstance(jobs[0].error, OSError)
            assert jobs[1].tile.key == TileKey(2, 1, 0)
            assert (scheduler.jobs_failed, scheduler.jobs_completed) == (1, 1)
        finally:
            scheduler.shutdown()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_workers": 0}, "needs >= 1 workers"),
            ({"shed_queue_depth": 0}, "shed_queue_depth must be >= 1"),
        ],
    )
    def test_pool_settings_are_checked(self, small_dataset, kwargs, message):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        with pytest.raises(ValueError, match=message):
            PrefetchScheduler(manager, **kwargs)

    def test_schedule_after_shutdown_rejected(self, small_dataset):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        scheduler = PrefetchScheduler(manager, max_workers=1)
        scheduler.shutdown()
        with pytest.raises(RuntimeError):
            scheduler.schedule([(TileKey(0, 0, 0), "m")])


class TestBackgroundServer:
    def test_background_mode_serves_correct_tiles(self, small_dataset):
        with serving(
            small_dataset.pyramid, PrefetchPolicy(k=5, mode="background")
        ) as service:
            session = service.open_session()
            rng = random.Random(11)
            key = small_dataset.pyramid.grid.root
            response = session.request(None, key)
            assert response.tile.key == key
            for _ in range(20):
                move, target = rng.choice(
                    small_dataset.pyramid.grid.available_moves(key)
                )
                response = session.request(move, target)
                assert response.tile.key == target
                key = target
            assert service.drain(timeout=10)
            assert session.recorder.count == 21
            scheduler = service.scheduler
            assert scheduler.jobs_submitted == (
                scheduler.jobs_completed
                + scheduler.jobs_cancelled
                + scheduler.jobs_failed
            )
            assert scheduler.jobs_failed == 0

    def test_background_prefetch_produces_hits(self, small_dataset):
        """Once drained, the prefetched tiles serve the next request from
        cache, same as the synchronous path."""
        with serving(
            small_dataset.pyramid, PrefetchPolicy(k=5, mode="background")
        ) as service:
            session = service.open_session()
            first = session.request(None, TileKey(2, 1, 1))
            assert service.drain(timeout=10)
            target = first.prefetched[0]
            move = TileKey(2, 1, 1).move_to(target)
            response = session.request(move, target)
            assert response.hit

    def test_sync_mode_is_default_and_unscheduled(self, small_dataset):
        service = ForeCacheService(small_dataset.pyramid)
        assert service.config.prefetch.mode == "sync"
        assert service.scheduler is None

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            PrefetchPolicy(mode="eager")

    def test_servers_sharing_a_scheduler_get_distinct_sessions(
        self, small_dataset
    ):
        """Two sessions of one background service (one shared
        scheduler) must not cancel each other's queued prefetch rounds
        via a colliding default session id."""
        with serving(
            small_dataset.pyramid, PrefetchPolicy(mode="background")
        ) as service:
            sessions = [service.open_session() for _ in range(2)]
            assert sessions[0].session_id != sessions[1].session_id
            for session in sessions:
                session.request(None, small_dataset.pyramid.grid.root)
            assert service.drain(timeout=10)
            # Neither session's round was superseded by the other's.
            assert service.scheduler.jobs_cancelled == 0


class TestMultiUserStress:
    @pytest.mark.parametrize("mode", ["sync", "background"])
    def test_shared_cache_race_free_under_load(self, small_dataset, mode):
        """Four user sessions on four threads share one cache and one
        scheduler; every response must carry the tile its user asked for
        and the shared counters must reconcile."""
        pyramid = small_dataset.pyramid
        steps = 25
        with serving(
            pyramid,
            PrefetchPolicy(k=8, mode=mode, workers=3, share_budget=True),
            recent_capacity=16,
            prefetch_capacity=8,
        ) as server:
            user_ids = [1, 2, 3, 4]
            for user_id in user_ids:
                server.open_session(session_id=user_id)

            def drive(user_id):
                rng = random.Random(100 + user_id)
                key = pyramid.grid.root
                response = server.request(user_id, None, key)
                assert response.tile.key == key
                for _ in range(steps):
                    move, target = rng.choice(pyramid.grid.available_moves(key))
                    response = server.request(user_id, move, target)
                    assert response.tile.key == target
                    key = target

            errors = run_threads([lambda u=u: drive(u) for u in user_ids])
            assert errors == []
            assert server.drain(timeout=15)

            total = len(user_ids) * (steps + 1)
            manager = server.cache_manager
            assert manager.requests == total
            assert 0 <= manager.hits <= total
            assert (
                sum(server.session(u).recorder.count for u in user_ids) == total
            )
            if mode == "background":
                scheduler = server.scheduler
                assert scheduler.jobs_failed == 0
                assert scheduler.jobs_submitted == (
                    scheduler.jobs_completed + scheduler.jobs_cancelled
                )

    def test_one_users_fetch_warms_the_cache_for_another(self, small_dataset):
        pyramid = small_dataset.pyramid
        with serving(
            pyramid,
            PrefetchPolicy(k=4, mode="background", share_budget=True),
            prefetch_capacity=4,
        ) as server:
            server.open_session(session_id=1)
            server.open_session(session_id=2)
            key = TileKey(2, 1, 1)
            first = server.request(1, None, key)
            assert not first.hit
            second = server.request(2, None, key)
            assert second.hit


class TestThreadSafeCaches:
    def test_recent_region_bounded_under_concurrent_requests(self):
        """request/promote churn on one shard's recent slice: occupancy
        stays within capacity and every entry serves its own key's tile."""
        cache, tiles = TileCache(recent_capacity=8, prefetch_capacity=8), Table()
        keys = [TileKey(4, x, y) for x in range(8) for y in range(8)]

        def writer(seed):
            rng = random.Random(seed)
            for _ in range(500):
                tiles.request(cache, rng.choice(keys))
                wanted = rng.choice(keys)
                found = cache.promote(wanted, tiles)
                assert found is None or found.key == wanted

        errors = run_threads([lambda s=s: writer(s) for s in range(6)])
        assert errors == []
        assert len(cache.recent_keys) <= 8
        for key in cache.recent_keys:
            assert cache.lookup(key, tiles).key == key

    def test_admit_evicts_oldest(self):
        cache, tiles = TileCache(prefetch_capacity=2), Table()
        a, b, c = (TileKey(2, i, 0) for i in range(3))
        for key in (a, b, c):
            assert tiles.request(cache, key, "m")[0].key == key
        assert cache.prefetched_keys == [b, c]
        assert cache.lookup(a, tiles) is None
        assert cache.lookup(b, tiles) is not None
        assert cache.attribution(c) == "m"

    def test_tile_cache_concurrent_mixed_traffic(self):
        cache, tiles = TileCache(recent_capacity=8, prefetch_capacity=4), Table()
        keys = [TileKey(3, x, y) for x in range(4) for y in range(4)]

        def churn(seed):
            rng = random.Random(seed)
            for _ in range(300):
                key = rng.choice(keys)
                action = rng.randrange(3)
                if action == 0:
                    tiles.request(cache, key)
                elif action == 1:
                    tiles.request(cache, key, f"m{seed}")
                else:
                    found = cache.lookup(key, tiles)
                    assert found is None or found.key == key

        errors = run_threads([lambda s=s: churn(s) for s in range(6)])
        assert errors == []
        assert len(cache.prefetched_keys) <= 4

    def test_sharded_lru_hammer(self):
        """get/put/evict churn across every segment of the standalone
        sharded LRU: each segment stays within its capacity and every
        value read back is the one put under its key."""
        from repro.cache.lru import ShardedLRUCache

        cache = ShardedLRUCache(16, shards=8)

        def churn(seed):
            rng = random.Random(seed)
            for _ in range(400):
                n = rng.randrange(96)
                cache.put(n, n)
                wanted = rng.randrange(96)
                found = cache.get(wanted)
                assert found is None or found == wanted

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = run_threads([lambda s=s: churn(s) for s in range(6)])
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for _, entries, capacity in cache._segments:
            assert len(entries) <= capacity
            assert all(entries[key] == key for key in entries)

    def test_sharded_recent_region_hammer(self):
        """Request/promote churn across every shard of a sharded tile
        cache's recent region: each slice stays within its capacity,
        entries stay consistent, and every probe is counted once."""
        cache = TileCache(recent_capacity=16, prefetch_capacity=16, shards=8)
        tiles = Table()
        manager = CacheManager(tiles, cache)
        keys = [TileKey(5, x, y) for x in range(12) for y in range(8)]
        probes_per_worker = 400
        hits = []

        def churn(seed):
            rng = random.Random(seed)
            found_count = 0
            for _ in range(probes_per_worker):
                tiles.request(cache, rng.choice(keys))
                wanted = rng.choice(keys)
                outcome = manager.try_fetch(wanted)
                if outcome is not None:
                    assert outcome.tile.key == wanted and outcome.hit
                    found_count += 1
                assert len(cache.recent_keys) <= 16
            hits.append(found_count)

        # Switch threads often, so churn interleaves inside the shards.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = run_threads([lambda s=s: churn(s) for s in range(6)])
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert cache._recent_capacities == [2] * 8
        for index, capacity in enumerate(cache._recent_capacities):
            assert len(cache._recent[index]) <= capacity
        for key in cache.recent_keys:
            assert cache.lookup(key, tiles).key == key
        # Every hit was counted exactly once; a miss probe counts nothing.
        assert manager.hits == manager.requests == sum(hits)
        assert manager.inflight_count == 0

    def test_a_concurrent_put_can_evict_a_just_requested_tile(self):
        """Why the hammer below never asserts residency right after a
        request: another thread's request into the same full recent
        segment may evict the tile in between.  Two threads, a one-slot
        segment, and a barrier between the put and the check make that
        interleaving certain."""
        cache, tiles = TileCache(recent_capacity=1, prefetch_capacity=1), Table()
        first, second = TileKey(3, 0, 0), TileKey(3, 1, 0)
        put_done, check_now = (threading.Barrier(2, timeout=10) for _ in range(2))
        seen = []

        def requester():
            tiles.request(cache, first)
            put_done.wait()
            check_now.wait()
            seen.append(first in cache)

        def intruder():
            put_done.wait()
            tiles.request(cache, second)
            check_now.wait()

        assert run_threads([requester, intruder]) == []
        assert seen == [False]
        assert cache.recent_keys == [second]

    def test_sharded_tile_cache_promote_and_evict_hammer(self):
        """Request/promote/admit/lookup churn over a fully sharded
        TileCache (both regions striped): full shards evict, nothing
        tears, and promotion holds once the churn is over.

        Inside the churn only what concurrency cannot break is checked:
        a found tile carries the key looked up and usage counts are
        never negative.  Residency right after a request is not one of
        those (see the test above): ``recent_capacity=12`` over 8
        shards gives segments of 2, 2, 2, 2, 1, 1, 1, 1 slots."""
        cache = TileCache(recent_capacity=12, prefetch_capacity=8, shards=8)
        tiles = Table()
        keys = [TileKey(3, x, y) for x in range(6) for y in range(6)]

        def churn(seed):
            rng = random.Random(seed)
            for _ in range(400):
                key = rng.choice(keys)
                action = rng.randrange(4)
                if action == 0:
                    # A user request: promotes a prefetched tile into
                    # the recent region and frees its slot.
                    tiles.request(cache, key)
                elif action == 1:
                    tiles.request(cache, key, f"m{seed}")
                elif action == 2:
                    found = cache.lookup(key, tiles)
                    assert found is None or found.key == key
                else:
                    usage = cache.model_usage()
                    assert all(count >= 0 for count in usage.values())

        errors = run_threads([lambda s=s: churn(s) for s in range(8)])
        assert errors == []
        assert len(cache.prefetched_keys) <= 8
        assert len(cache.recent_keys) <= 12
        # Single-threaded, promotion is an invariant: a requested
        # prefetched tile stays resident and its prefetch slot is freed.
        # (An admission leaves a resident tile where it is: start empty.)
        cache.clear()
        for key in keys[:6]:
            tiles.request(cache, key, "m")
            assert key in cache.prefetched_keys
            tiles.request(cache, key)
            assert key not in cache.prefetched_keys
            assert key in cache.recent_keys
            assert cache.lookup(key, tiles).key == key


class TestPriorityAdmission:
    """Rank-aware fair admission: the scheduler's heap is ordered by
    (rank, session deficit, generation) and stale jobs are dropped at
    pop time."""

    @staticmethod
    def _manager(small_dataset, shards: int = 1) -> CacheManager:
        return CacheManager(
            small_dataset.pyramid,
            TileCache(recent_capacity=32, prefetch_capacity=9, shards=shards),
        )

    @staticmethod
    def _gate(manager, gate_keys):
        """Backend queries for ``gate_keys`` block until released."""
        started = threading.Semaphore(0)
        release = threading.Event()
        original = manager._query_backend

        def gated(key):
            if key in gate_keys:
                started.release()
                assert release.wait(10)
            return original(key)

        manager._query_backend = gated
        return started, release

    def test_rank_order_beats_arrival_order(self, small_dataset):
        """With the queue backed up, every session's rank-0 tile runs
        before any session's rank-1 tile, regardless of arrival."""
        manager = self._manager(small_dataset)
        gate_key = TileKey(3, 7, 7)
        started, release = self._gate(manager, {gate_key})
        scheduler = PrefetchScheduler(manager, max_workers=1)
        try:
            scheduler.schedule([(gate_key, "m")], session_id="gate")
            assert started.acquire(timeout=10)
            rounds = [
                scheduler.schedule(
                    [(TileKey(3, x, y), "m") for x in range(3)],
                    session_id=f"s{y}",
                )
                for y in range(3)
            ]
            release.set()
            assert scheduler.wait_idle(10)
            jobs = [job for round_ in rounds for job in round_]
            assert all(job.state == DONE for job in jobs)
            by_completion = sorted(jobs, key=lambda j: j.finish_order)
            assert [j.rank for j in by_completion] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        finally:
            release.set()
            scheduler.shutdown()

    def test_concurrent_schedules_run_only_newest_generation(self, small_dataset):
        """Racing schedule() calls on one session: exactly the highest
        generation's jobs run; every superseded job is cancelled, none
        is left pending."""
        manager = self._manager(small_dataset)
        gate_key = TileKey(3, 7, 7)
        started, release = self._gate(manager, {gate_key})
        scheduler = PrefetchScheduler(manager, max_workers=1)
        rounds: list[list] = []
        rounds_lock = threading.Lock()
        try:
            scheduler.schedule([(gate_key, "m")], session_id="gate")
            assert started.acquire(timeout=10)
            barrier = threading.Barrier(6)

            def submit(i):
                barrier.wait()
                jobs = scheduler.schedule(
                    [(TileKey(4, i, y), "m") for y in range(3)],
                    session_id="s",
                )
                with rounds_lock:
                    rounds.append(jobs)

            errors = run_threads([lambda i=i: submit(i) for i in range(6)])
            assert errors == []
            release.set()
            assert scheduler.wait_idle(10)
            jobs = [job for round_ in rounds for job in round_]
            assert all(job.finished for job in jobs)
            newest = max(job.generation for job in jobs)
            for job in jobs:
                expected = DONE if job.generation == newest else CANCELLED
                assert job.state == expected
        finally:
            release.set()
            scheduler.shutdown()

    def test_deficit_round_robin_prefers_less_served_session(self, small_dataset):
        """At equal rank, the session the pool has served least goes
        first — even when the busier session's round arrived earlier
        and carries a newer generation."""
        manager = self._manager(small_dataset)
        gate1, gate2 = TileKey(3, 7, 7), TileKey(3, 7, 6)
        original = manager._query_backend
        started1, started2 = threading.Event(), threading.Event()
        release1, release2 = threading.Event(), threading.Event()

        def gated(key):
            if key == gate1:
                started1.set()
                assert release1.wait(10)
            elif key == gate2:
                started2.set()
                assert release2.wait(10)
            return original(key)

        manager._query_backend = gated
        scheduler = PrefetchScheduler(manager, max_workers=1)
        try:
            # Phase 1: session "a" has a full round served (deficit 4).
            scheduler.schedule([(gate1, "m")], session_id="gate")
            assert started1.wait(10)
            scheduler.schedule(
                [(TileKey(4, x, 0), "m") for x in range(4)], session_id="a"
            )
            release1.set()
            assert scheduler.wait_idle(10)
            # Phase 2: "a" again (arrives first) vs. newcomer "b".
            scheduler.schedule([(gate2, "m")], session_id="gate")
            assert started2.wait(10)
            a_jobs = scheduler.schedule(
                [(TileKey(4, x, 1), "m") for x in range(3)], session_id="a"
            )
            b_jobs = scheduler.schedule(
                [(TileKey(4, x, 2), "m") for x in range(3)], session_id="b"
            )
            release2.set()
            assert scheduler.wait_idle(10)
            for rank in range(3):
                assert b_jobs[rank].finish_order < a_jobs[rank].finish_order
        finally:
            release1.set()
            release2.set()
            scheduler.shutdown()

    def test_cancel_session_mid_round_never_wedges_wait_idle(self, small_dataset):
        """Cancelling a session whose round is queued behind busy
        workers drains cleanly: the jobs are dropped at pop time and
        wait_idle still observes the drain."""
        manager = self._manager(small_dataset)
        gates = {TileKey(3, 7, 7), TileKey(3, 7, 6)}
        started, release = self._gate(manager, gates)
        scheduler = PrefetchScheduler(manager, max_workers=2)
        try:
            scheduler.schedule([(key, "m") for key in gates], session_id="x")
            assert started.acquire(timeout=10)
            assert started.acquire(timeout=10)
            jobs = scheduler.schedule(
                [(TileKey(4, x, 3), "m") for x in range(10)], session_id="y"
            )
            scheduler.cancel_session("y")
            release.set()
            assert scheduler.wait_idle(10)
            assert all(job.state == CANCELLED for job in jobs)
            assert scheduler.jobs_cancelled == 10
        finally:
            release.set()
            scheduler.shutdown()

    def test_shutdown_cancels_queued_jobs_and_reconciles(self, small_dataset):
        """shutdown() must not strand queued jobs PENDING: they are
        cancelled, counted, and reconciled so wait_idle is truthful."""
        manager = self._manager(small_dataset)
        gate_key = TileKey(3, 7, 7)
        started, release = self._gate(manager, {gate_key})
        scheduler = PrefetchScheduler(manager, max_workers=1)
        try:
            gate_jobs = scheduler.schedule([(gate_key, "m")], session_id="g")
            assert started.acquire(timeout=10)
            queued = scheduler.schedule(
                [(TileKey(4, x, 4), "m") for x in range(3)], session_id="s"
            )
            scheduler.shutdown(wait=False)
            assert all(job.state == CANCELLED for job in queued)
            assert all(job.finished for job in queued)
            assert scheduler.jobs_cancelled == 3
            release.set()
            assert scheduler.wait_idle(10)
            assert gate_jobs[0].state == DONE
            with pytest.raises(RuntimeError):
                scheduler.schedule([(TileKey(0, 0, 0), "m")])
        finally:
            release.set()
            scheduler.shutdown()


class TestShardedCacheManager:
    def test_sharded_manager_still_coalesces_same_key(self, small_dataset):
        """Striping the in-flight table must not break coalescing: one
        key maps to one stripe, so concurrent misses still share one
        DBMS query."""
        manager = CacheManager(
            small_dataset.pyramid,
            TileCache(shards=4),
            backend_delay_seconds=0.05,
        )
        calls: list[TileKey] = []
        original = manager._query_backend

        def counting(key):
            calls.append(key)
            return original(key)

        manager._query_backend = counting
        key = TileKey(3, 2, 2)
        barrier = threading.Barrier(8)
        outcomes = []
        outcome_lock = threading.Lock()

        def worker():
            barrier.wait()
            outcome = manager.fetch(key)
            with outcome_lock:
                outcomes.append(outcome)

        errors = run_threads([worker] * 8)
        assert not errors
        assert len(calls) == 1, "concurrent misses must trigger one DBMS query"
        assert all(o.tile.key == key for o in outcomes)
        assert sum(1 for o in outcomes if not o.coalesced) == 1
        assert manager.coalesced == 7
        assert manager.requests == 8

    def test_sharded_manager_distinct_keys_query_once_each(self, small_dataset):
        manager = CacheManager(
            small_dataset.pyramid,
            TileCache(shards=4),
            backend_delay_seconds=0.02,
        )
        calls: list[TileKey] = []
        original = manager._query_backend

        def counting(key):
            calls.append(key)
            return original(key)

        manager._query_backend = counting
        keys = [TileKey(3, x, y) for x in range(4) for y in range(2)]
        barrier = threading.Barrier(len(keys))

        def worker(key):
            barrier.wait()
            manager.fetch(key)

        errors = run_threads([lambda k=k: worker(k) for k in keys])
        assert not errors
        assert sorted(calls) == sorted(keys)

    def test_sharded_tile_cache_concurrent_mixed_traffic(self):
        cache = TileCache(recent_capacity=8, prefetch_capacity=8, shards=4)
        tiles = Table()
        keys = [TileKey(3, x, y) for x in range(4) for y in range(4)]

        def churn(seed):
            rng = random.Random(seed)
            for _ in range(300):
                key = rng.choice(keys)
                action = rng.randrange(3)
                if action == 0:
                    tiles.request(cache, key)
                elif action == 1:
                    tiles.request(cache, key, f"m{seed}")
                else:
                    found = cache.lookup(key, tiles)
                    assert found is None or found.key == key

        errors = run_threads([lambda s=s: churn(s) for s in range(6)])
        assert errors == []
        assert len(cache.prefetched_keys) <= 8


class GatedBackend:
    """Hold ``manager``'s backend queries at a gate the test opens."""

    def __init__(self, manager: CacheManager, fail: BaseException | None = None):
        self.calls: list[TileKey] = []
        self.entered = threading.Event()
        self.release = threading.Event()
        original = manager._query_backend

        def gated(key):
            self.calls.append(key)
            self.entered.set()
            assert self.release.wait(10)
            if fail is not None:
                raise fail
            return original(key)

        manager._query_backend = gated

    @staticmethod
    def fail(key):
        raise AssertionError(f"{key} queried while resident")


@pytest.fixture
def waiting_riders(monkeypatch):
    """A semaphore released each time a caller starts waiting on another
    caller's in-flight load — the gate that replaces "sleep until the
    riders have probably arrived"."""
    import repro.cache.tile_cache as tile_cache_module

    waiting = threading.Semaphore(0)

    class SignallingEvent(threading.Event):
        def wait(self, timeout=None):
            waiting.release()
            return super().wait(timeout)

    class SignallingThreading:
        """The cache module's ``threading``: the real one, but for
        ``Event``."""

        Event = SignallingEvent

        def __getattr__(self, name):
            return getattr(threading, name)

    monkeypatch.setattr(tile_cache_module, "threading", SignallingThreading())
    return waiting


class TestLoadProtocol:
    """The coalescing / publish protocol under the prefetch cycle, each
    interleaving forced by a gate rather than hoped for with a sleep."""

    RIDERS = 5

    def test_carried_tile_is_never_absent_mid_cycle(self, small_dataset):
        """A tile predicted two rounds running stays visible to other
        threads while the cycle that carries it waits on the backend
        (the refill dropped it first: a virtual miss and a second query
        for whoever asked in that window).  A request served from it
        in that window promotes it for good: the cycle's second visit
        does not put it back into the prefetch region."""
        manager = CacheManager(small_dataset.pyramid, TileCache(prefetch_capacity=3))
        carried, superseded, absent = (TileKey(3, x, 3) for x in range(3))
        manager.prefetch([(carried, "m"), (superseded, "m")])
        tile = manager.peek(carried)
        gate = GatedBackend(manager)
        cycle = threading.Thread(
            target=manager.prefetch, args=([(absent, "n"), (carried, "n")],)
        )
        cycle.start()
        try:
            assert gate.entered.wait(10)  # mid-cycle: loading `absent`
            assert manager.peek(carried) is tile
            assert carried in manager.cache
            assert manager.peek(superseded) is None
            outcome = manager.fetch(carried)
            assert outcome.hit and outcome.tile is tile
        finally:
            gate.release.set()
            cycle.join(timeout=10)
        assert not cycle.is_alive()
        assert gate.calls == [absent]
        assert manager.cache.prefetched_keys == [absent]
        assert manager.cache.recent_keys == [carried]
        assert manager.cache.attribution(carried) is None
        assert manager.peek(carried) is tile

    def ride(self, manager, gate, waiting_riders, call) -> list[BaseException]:
        """One owner held inside its query, RIDERS callers joining its
        in-flight load, the gate opened once every one of them waits."""

        def rider():
            assert gate.entered.wait(10)  # the owner is inside its query
            call()

        def conductor():
            for _ in range(self.RIDERS):
                assert waiting_riders.acquire(timeout=10)
            assert manager.inflight_count == 1
            gate.release.set()

        return run_threads([call] + [rider] * self.RIDERS + [conductor])

    def test_concurrent_misses_share_one_query(
        self, small_dataset, waiting_riders
    ):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        key = TileKey(3, 2, 2)
        gate = GatedBackend(manager)
        outcomes = []
        errors = self.ride(
            manager, gate, waiting_riders, lambda: outcomes.append(manager.fetch(key))
        )
        assert errors == []
        assert gate.calls == [key], "concurrent misses must trigger one query"
        assert len(outcomes) == self.RIDERS + 1
        assert all(o.tile is outcomes[0].tile for o in outcomes)
        assert all(o.backend_seconds == outcomes[0].backend_seconds for o in outcomes)
        assert sorted(o.coalesced for o in outcomes) == [False] + [True] * self.RIDERS
        assert manager.coalesced == self.RIDERS
        assert manager.inflight_count == 0 and manager.cache._inflight == [{}]

    @pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
    def test_owner_failure_reaches_every_waiter(
        self, small_dataset, waiting_riders, failure
    ):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        key = TileKey(3, 2, 1)
        raised = failure("backend down")
        gate = GatedBackend(manager, fail=raised)
        errors = self.ride(
            manager, gate, waiting_riders, lambda: manager.prefetch_one(key, "m")
        )
        # The owner and every rider raise the owner's exception itself.
        assert len(errors) == self.RIDERS + 1
        assert all(error is raised for error in errors)
        assert gate.calls == [key]
        assert manager.inflight_count == 0 and manager.cache._inflight == [{}]
        assert manager.peek(key) is None

    def test_a_cycle_riding_a_request_still_claims_its_slot(
        self, small_dataset, waiting_riders
    ):
        """The owner of the load a cycle waits on published for its own
        purpose (a fetch: the recent LRU); the prediction's slot is
        written by the cycle."""
        manager = CacheManager(small_dataset.pyramid, TileCache())
        key = TileKey(3, 0, 2)
        gate = GatedBackend(manager)
        queries: list[int] = []

        def cycle():
            assert gate.entered.wait(10)
            queries.append(manager.prefetch([(key, "m")]))

        def conductor():
            assert waiting_riders.acquire(timeout=10)
            gate.release.set()

        errors = run_threads([lambda: manager.fetch(key), cycle, conductor])
        assert errors == []
        assert gate.calls == [key] and queries == [0]
        assert manager.cache.recent_keys == [key]
        assert manager.cache.prefetched_keys == [key]
        assert manager.cache.attribution(key) == "m"

    def test_late_arrival_between_publish_and_unregister_sees_the_tile(
        self, small_dataset
    ):
        """The owner publishes before it unregisters, in one visit to
        the shard lock: a caller arriving in between — the owner's own
        thread, re-entering the lock right after the publish — finds the
        resident tile, not a gap to re-query."""
        manager = CacheManager(small_dataset.pyramid, TileCache())
        key = TileKey(3, 1, 2)
        gate = GatedBackend(manager)
        gate.release.set()
        publish = manager.cache._publish
        arrivals = []

        def publish_then_arrive(index, group, purpose):
            publish(index, group, purpose)
            manager.cache._publish = publish
            arrivals.append(
                (
                    manager.inflight_count,
                    manager.peek(key),
                    manager.cache.request(key, gate.fail, manager.pyramid.tiles(), "m"),
                    manager.prefetch_one(key, "m"),
                    manager.fetch(key).hit,
                )
            )

        manager.cache._publish = publish_then_arrive
        tile = manager.fetch(key).tile
        ((inflight, peeked, loaded, prefetched, hit),) = arrivals
        assert inflight == 1  # still registered
        assert peeked is tile
        assert loaded[0] is tile and loaded[1:] == (None, False)
        assert prefetched is tile
        assert hit
        assert gate.calls == [key]
        assert manager.inflight_count == 0

    def test_every_query_has_one_counted_owner(self, small_dataset):
        """Every entry point at once from six threads: every caller gets
        its own key's tile, nothing stays in flight, the region never
        outgrows its capacity, and each backend query is counted by
        exactly one owner."""
        manager = CacheManager(
            small_dataset.pyramid,
            TileCache(recent_capacity=3, prefetch_capacity=4, shards=2),
        )
        keys = [TileKey(3, x, y) for x in range(3) for y in range(3)]
        calls: list[TileKey] = []
        original = manager._query_backend

        def counted(key):
            calls.append(key)
            return original(key)

        manager._query_backend = counted

        def churn(seed):
            rng = random.Random(seed)
            for _ in range(300):
                key = rng.choice(keys)
                action = rng.randrange(3)
                if action == 0:
                    assert manager.fetch(key).tile.key == key
                elif action == 1:
                    assert manager.prefetch_one(key, "one").key == key
                else:
                    manager.prefetch([(k, "cycle") for k in rng.sample(keys, 5)])
                assert len(manager.cache.prefetched_keys) <= 4

        errors = run_threads([lambda s=s: churn(s) for s in range(6)])
        assert errors == []
        assert manager.inflight_count == 0
        fetch_owners = manager.requests - manager.hits - manager.coalesced
        assert len(calls) == fetch_owners + manager.prefetch_queries


class GatedPyramid:
    """A pyramid whose fetches of ``gated`` keys wait at a gate the test
    opens (and then raise ``fail``, when given); every fetch is noted."""

    def __init__(self, pyramid, gated, fail: BaseException | None = None):
        self.pyramid = pyramid
        self.gated = set(gated)
        self.fail = fail
        self.calls: list[TileKey] = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def tiles(self):
        return self.pyramid.tiles()

    def fetch_tile_timed(self, key):
        self.calls.append(key)
        if key in self.gated:
            self.entered.set()
            assert self.release.wait(10)
            if self.fail is not None:
                raise self.fail
        return self.pyramid.fetch_tile_timed(key)


class TestCycleWindow:
    """Requests landing between the prefetch cycle's two visits: the
    cycle has registered its loads and is inside a query."""

    RIDERS = 3

    def test_a_request_for_a_key_the_cycle_registered_rides_it(
        self, small_dataset, waiting_riders
    ):
        key = TileKey(3, 1, 3)
        pyramid = GatedPyramid(small_dataset.pyramid, [key])
        manager = CacheManager(pyramid, TileCache())
        outcomes = []

        def request():
            assert pyramid.entered.wait(10)  # the cycle is querying `key`
            outcomes.append(manager.fetch(key))

        def conductor():
            assert waiting_riders.acquire(timeout=10)
            assert manager.inflight_count == 1
            pyramid.release.set()

        errors = run_threads(
            [lambda: manager.prefetch([(key, "m")]), request, conductor]
        )
        assert errors == []
        assert pyramid.calls == [key], "the request must ride the cycle's query"
        (outcome,) = outcomes
        assert not outcome.hit and outcome.coalesced
        assert outcome.tile is manager.peek(key)
        assert (manager.coalesced, manager.prefetch_queries) == (1, 1)
        # The cycle slotted it, the request then promoted it.
        assert manager.cache.recent_keys == [key]
        assert manager.cache.prefetched_keys == []
        assert manager.inflight_count == 0

    def test_a_failed_query_abandons_the_cycles_loads_and_nothing_else(
        self, small_dataset, waiting_riders
    ):
        carried, failing, later = (TileKey(3, x, 2) for x in range(3))
        raised = RuntimeError("backend down")
        pyramid = GatedPyramid(small_dataset.pyramid, [failing], fail=raised)
        manager = CacheManager(pyramid, TileCache())
        manager.prefetch([(carried, "m")])
        tile = manager.peek(carried)

        def cycle():
            manager.prefetch([(carried, "n"), (failing, "n"), (later, "n")])

        def rider(key):
            assert pyramid.entered.wait(10)  # the cycle is querying `failing`
            manager.fetch(key)

        def conductor():
            for _ in range(2 * self.RIDERS):
                assert waiting_riders.acquire(timeout=10)
            assert manager.inflight_count == 2
            pyramid.release.set()

        errors = run_threads(
            [cycle, conductor]
            + [lambda: rider(failing)] * self.RIDERS
            + [lambda: rider(later)] * self.RIDERS
        )
        # The cycle and every rider of either abandoned load raise the
        # owner's exception itself; `later` was never queried.
        assert len(errors) == 1 + 2 * self.RIDERS
        assert all(error is raised for error in errors)
        assert pyramid.calls == [carried, failing]
        assert manager.cache.prefetched_keys == [carried]
        assert manager.cache.attribution(carried) == "n"
        assert manager.peek(carried) is tile
        assert manager.inflight_count == 0 and manager.cache._inflight == [{}]
        assert manager.peek(failing) is None and manager.peek(later) is None

        pyramid.fail = None
        assert manager.prefetch([(carried, "o"), (failing, "o"), (later, "o")]) == 2
        assert pyramid.calls == [carried, failing, failing, later]
        assert manager.cache.prefetched_keys == [carried, failing, later]
