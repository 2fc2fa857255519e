"""The asyncio front end: lifecycle, concurrency, cancellation, and
replay equivalence with the synchronous facade."""

import asyncio
import threading

import numpy as np
import pytest

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.arraydb.storage import DiskChunkStore, MemoryChunkStore
from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.aio import AsyncForeCacheService
from repro.middleware.client import AsyncBrowsingSession, BrowsingSession
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.net import (
    AsyncSocketTransport,
    ForeCacheSocketServer,
    SocketTransport,
    ThreadedSocketServer,
)
from repro.middleware.protocol import (
    DuplicateSessionError,
    SessionClosedError,
)
from repro.middleware.service import ForeCacheService
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.pyramid import TilePyramid


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def run(coro):
    return asyncio.run(coro)


def count_submits(service: AsyncForeCacheService) -> list[int]:
    """Count, in the returned ``[n]``, the jobs ``service`` hands its
    bridge pool from here on."""
    submits = [0]
    original = service._executor.submit

    def counting_submit(*args, **kwargs):
        submits[0] += 1
        return original(*args, **kwargs)

    service._executor.submit = counting_submit
    return submits


def build_pyramid(store) -> TilePyramid:
    """A three-level pyramid over ``store`` (the world of
    ``tests/test_disk_integration.py``)."""
    db = Database(store=store)
    db.create_array(
        ArraySchema(
            "S",
            attributes=(Attribute("v"),),
            dimensions=(Dimension("y", 0, 16, 16), Dimension("x", 0, 16, 16)),
        )
    )
    db.write("S", "v", np.random.default_rng(0).random((16, 16)))
    return TilePyramid.build(db, "S", tile_size=4)


def pan_walk(grid, steps: int):
    """``steps`` requests that both hit and miss: down one corner, then
    back and forth along the deepest level's first row."""
    walk = [(None, grid.root)]
    key = grid.root
    while key.level < grid.deepest_level:
        key = TileKey(key.level + 1, 2 * key.x, 2 * key.y)
        walk.append((Move.ZOOM_IN_NW, key))
    move = Move.PAN_RIGHT
    while len(walk) < steps:
        x = key.x + (1 if move is Move.PAN_RIGHT else -1)
        if not 0 <= x < grid.tiles_per_dim(key.level):
            move = Move.PAN_LEFT if move is Move.PAN_RIGHT else Move.PAN_RIGHT
            continue
        key = TileKey(key.level, x, key.y)
        walk.append((move, key))
    return walk


class TestAsyncLifecycle:
    def test_open_request_close(self, small_dataset):
        async def scenario():
            async with AsyncForeCacheService.build(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=5)),
            ) as service:
                session = await service.open_session(
                    make_engine(small_dataset.pyramid.grid)
                )
                response = await session.request(None, TileKey(0, 0, 0))
                assert response.tile.key == TileKey(0, 0, 0)
                info = await session.info()
                assert info.requests == 1
                await session.close()
                with pytest.raises(SessionClosedError):
                    await session.request(Move.ZOOM_IN_NW, TileKey(1, 0, 0))

        run(scenario())

    def test_duplicate_session_rejected(self, small_dataset):
        async def scenario():
            async with AsyncForeCacheService.build(
                small_dataset.pyramid
            ) as service:
                grid = small_dataset.pyramid.grid
                await service.open_session(make_engine(grid), "bob")
                with pytest.raises(DuplicateSessionError):
                    await service.open_session(make_engine(grid), "bob")

        run(scenario())

    def test_double_start_rejected(self, small_dataset):
        async def scenario():
            async with AsyncForeCacheService.build(
                small_dataset.pyramid
            ) as service:
                session = await service.open_session(
                    make_engine(small_dataset.pyramid.grid)
                )
                browser = AsyncBrowsingSession(session)
                await browser.start()
                with pytest.raises(RuntimeError):
                    await browser.start()

        run(scenario())

    def test_aclose_is_idempotent(self, small_dataset):
        async def scenario():
            service = AsyncForeCacheService.build(small_dataset.pyramid)
            await service.aclose()
            await service.aclose()

        run(scenario())

    def test_lifecycle_never_hops_to_the_bridge_pool(self, small_dataset):
        """open/close are served natively on the event loop.

        The cluster router re-opens sessions on every failover, making
        session lifecycle a hot path; it must stay pure loop-side
        bookkeeping.  A counting shim over the bridge pool's ``submit``
        proves no lifecycle call dispatches an executor job — while a
        cache miss (the one genuinely blocking operation) still does.
        """
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with AsyncForeCacheService.build(
                small_dataset.pyramid,
                ServiceConfig(
                    prefetch=PrefetchPolicy(k=4),
                    cache=CacheConfig(backend_delay_seconds=0.001),
                ),
            ) as service:
                submits = count_submits(service)
                session = await service.open_session(
                    make_engine(grid), "native-1"
                )
                await session.info()
                await session.close()
                await service.open_session(make_engine(grid), "native-2")
                await service.close_session("native-2")
                assert submits == [0]
                # Sanity: the shim does count — a cold-cache miss over
                # a backend that sleeps must travel to the bridge pool.
                probe = await service.open_session(make_engine(grid))
                await probe.request(None, TileKey(0, 0, 0))
                assert submits == [1]

        run(scenario())


class TestWhatLeavesTheLoop:
    """Work leaves the event loop iff the backend can block."""

    def test_blocking_is_derived_from_delay_and_stores(self, tmp_path):
        class PlainStore:
            """A complete chunk store that says nothing about itself."""

            def __init__(self):
                self.chunks = {}

            def put(self, key, chunk):
                self.chunks[key] = np.asarray(chunk)

            def get(self, key):
                return self.chunks[key]

            def __contains__(self, key):
                return key in self.chunks

            def delete(self, key):
                del self.chunks[key]

            def keys(self):
                return iter(list(self.chunks))

            def bytes_used(self):
                return sum(chunk.nbytes for chunk in self.chunks.values())

        memory = build_pyramid(MemoryChunkStore())
        assert not CacheManager(memory).backend_can_block
        assert CacheManager(
            memory, backend_delay_seconds=1e-6
        ).backend_can_block
        for store in (DiskChunkStore(tmp_path / "chunks"), PlainStore()):
            assert CacheManager(build_pyramid(store)).backend_can_block

    def test_in_memory_requests_never_leave_the_loop(self, small_dataset):
        """Sync-mode prefetch over an in-memory pyramid: hits, misses
        and their prefetch rounds are all served on the loop, and the
        bridge pool never starts a thread."""
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with AsyncForeCacheService.build(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4)),
            ) as service:
                submits = count_submits(service)
                session = await service.open_session(make_engine(grid))
                responses = [
                    await session.request(move, key)
                    for move, key in pan_walk(grid, 50)
                ]
                hits = sum(r.hit for r in responses)
                assert 0 < hits < 50
                assert submits == [0]
                assert not service._executor._threads

        run(scenario())

    def test_in_memory_socket_requests_create_no_tasks(self, small_dataset):
        """Over a real socket server, a served request costs neither an
        executor job nor an asyncio task (the read is one ``await``)."""
        pyramid = small_dataset.pyramid

        async def scenario():
            async with ForeCacheSocketServer.build(
                pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4)),
                engine_factory=lambda: make_engine(pyramid.grid),
            ) as server, await AsyncSocketTransport.open(
                *server.address, pyramid=pyramid, payload="binary"
            ) as transport:
                conn = await transport.connect()
                loop = asyncio.get_running_loop()
                tasks = []

                def counting_factory(loop, coro, **kwargs):
                    task = asyncio.Task(coro, loop=loop, **kwargs)
                    tasks.append(task)
                    return task

                loop.set_task_factory(counting_factory)
                try:
                    submits = count_submits(server.service)
                    responses = [
                        await conn.request(move, key)
                        for move, key in pan_walk(pyramid.grid, 50)
                    ]
                finally:
                    loop.set_task_factory(None)
                assert 0 < sum(r.hit for r in responses) < 50
                assert submits == [0]
                assert tasks == []

        run(scenario())

    def test_a_threaded_server_replay_starts_no_bridge_thread(self, small_dataset):
        """Why no caller sizes the bridge pool: over the in-memory
        pyramid a whole replay through a ``ThreadedSocketServer`` — sync
        prefetch, socket framing, session lifecycle — starts no
        ``forecache-aio`` thread, so the pool's size is never reached."""
        pyramid = small_dataset.pyramid

        def bridge_threads():
            return {
                thread
                for thread in threading.enumerate()
                if thread.name.startswith("forecache-aio")
            }

        before = bridge_threads()
        with ThreadedSocketServer(
            pyramid,
            ServiceConfig(prefetch=PrefetchPolicy(k=4)),
            engine_factory=lambda: make_engine(pyramid.grid),
        ) as server:
            with SocketTransport(*server.address) as transport:
                conn = transport.connect()
                responses = [
                    conn.request(move, key) for move, key in pan_walk(pyramid.grid, 30)
                ]
                conn.close()
            assert 0 < sum(r.hit for r in responses) < 30
            assert bridge_threads() == before
            assert not server.server.service._executor._threads

    @pytest.mark.parametrize("backend", ["delay", "disk"])
    def test_blocking_backend_submits_as_before(self, backend, tmp_path):
        """With a backend that can block the rule is the old one: a hit
        is probed on the loop, every miss and every sync prefetch round
        travels to the bridge pool."""
        if backend == "delay":
            pyramid = build_pyramid(MemoryChunkStore())
            cache = CacheConfig(backend_delay_seconds=1e-6)
        else:
            pyramid = build_pyramid(DiskChunkStore(tmp_path / "chunks"))
            cache = CacheConfig()
        walk = pan_walk(pyramid.grid, 24)

        async def drive(policy):
            async with AsyncForeCacheService.build(
                pyramid, ServiceConfig(prefetch=policy, cache=cache)
            ) as service:
                submits = count_submits(service)
                session = await service.open_session(
                    make_engine(pyramid.grid)
                )
                responses = [
                    await session.request(move, key) for move, key in walk
                ]
                return submits[0], sum(not r.hit for r in responses)

        # Sync mode: a miss is one job (fetch + round as a unit), a hit
        # is one job (its round).
        submits, misses = run(drive(PrefetchPolicy(k=4)))
        assert 0 < misses < len(walk)
        assert submits == len(walk)
        # No prefetch round to run: only the misses leave the loop.
        submits, misses = run(drive(PrefetchPolicy(enabled=False)))
        assert 0 < misses < len(walk)
        assert submits == misses

    def test_loop_served_equals_pool_served(self, small_dataset, small_study):
        """The same two-session stream, once served on the loop and once
        through the bridge pool (a 1 µs delay makes the backend
        "blocking"): equal replies, books and virtual latencies."""
        pyramid = small_dataset.pyramid
        traces = sorted(small_study.traces, key=len)[-2:]
        stream = [
            (index, request)
            for pair in zip(*(trace.requests for trace in traces))
            for index, request in enumerate(pair)
        ]
        repeats = -(-200 // len(stream))

        async def drive(cache):
            async with AsyncForeCacheService.build(
                pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=5), cache=cache),
            ) as service:
                submits = count_submits(service)
                sessions = [
                    await service.open_session(make_engine(pyramid.grid), name)
                    for name in ("a", "b")
                ]
                replies = []
                for index, request in (stream * repeats)[:200]:
                    r = await sessions[index].request(
                        request.move, request.tile
                    )
                    replies.append(
                        (
                            index,
                            r.tile.key,
                            r.hit,
                            r.latency_seconds,
                            r.phase,
                            r.prefetched,
                            r.tile.attribute(pyramid.attributes[0]).tobytes(),
                        )
                    )
                books = [await session.info() for session in sessions]
                return replies, books, submits[0]

        on_loop = run(drive(CacheConfig()))
        on_pool = run(drive(CacheConfig(backend_delay_seconds=1e-6)))
        assert len(on_loop[0]) == 200
        assert on_loop[:2] == on_pool[:2]
        assert (on_loop[2], on_pool[2]) == (0, 200)


class TestAsyncConcurrency:
    def test_many_concurrent_sessions(self, small_dataset):
        """Concurrent coroutine sessions share the cache race-free."""

        async def drive(service, session_id):
            session = await service.open_session(
                make_engine(small_dataset.pyramid.grid), session_id
            )
            browser = AsyncBrowsingSession(session)
            response = await browser.start()
            assert response.tile.key == small_dataset.pyramid.grid.root
            for _ in range(5):
                moves = browser.available_moves
                response = await browser.move(moves[session_id % len(moves)])
                assert response.tile.key == browser.current
            return session.recorder.count

        async def scenario():
            async with AsyncForeCacheService.build(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4)),
            ) as service:
                counts = await asyncio.gather(
                    *(drive(service, i) for i in range(6))
                )
                assert counts == [6] * 6
                assert service.service.cache_manager.requests == 36

        run(scenario())

    def test_cancelled_start_leaves_client_fresh(self, small_dataset):
        """A start() cancelled before the server saw it must not brick
        the client — position advances only on success."""

        async def scenario():
            async with AsyncForeCacheService.build(
                small_dataset.pyramid
            ) as service:
                session = await service.open_session(
                    make_engine(small_dataset.pyramid.grid)
                )
                browser = AsyncBrowsingSession(session)
                task = asyncio.create_task(browser.start())
                task.cancel()  # before the executor ever runs it
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert browser.current is None
                response = await browser.start()  # retry succeeds
                assert response.tile.key == small_dataset.pyramid.grid.root

        run(scenario())

    def test_cancellation_leaves_session_usable(self, small_dataset):
        """Cancelling an in-flight request must not wedge the session."""
        manager = CacheManager(
            small_dataset.pyramid,
            TileCache(),
            backend_delay_seconds=0.05,
        )

        async def scenario():
            async with AsyncForeCacheService.build(
                small_dataset.pyramid, cache_manager=manager
            ) as service:
                session = await service.open_session(
                    make_engine(small_dataset.pyramid.grid)
                )
                task = asyncio.create_task(
                    session.request(None, TileKey(2, 1, 1))
                )
                await asyncio.sleep(0.01)  # let it reach the slow backend
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                # Give the worker thread time to finish the fetch behind
                # the cancellation; the session serves on, now from cache.
                await asyncio.sleep(0.15)
                response = await session.request(None, TileKey(2, 1, 1))
                assert response.tile.key == TileKey(2, 1, 1)
                assert response.hit
                assert session.recorder.count == 2

        run(scenario())


class TestAsyncEquivalence:
    def test_async_replay_matches_sync_facade(self, small_dataset, small_study):
        """Same trace, same tiles, same hits, same virtual latencies as
        the sync facade (the reference)."""
        trace = max(small_study.traces, key=len)
        grid = small_dataset.pyramid.grid
        config = ServiceConfig(prefetch=PrefetchPolicy(k=5))

        with ForeCacheService(small_dataset.pyramid, config) as sync_service:
            handle = sync_service.open_session(make_engine(grid))
            sync_responses = BrowsingSession(handle).replay(trace)

        async def scenario():
            async with AsyncForeCacheService.build(
                small_dataset.pyramid, config
            ) as service:
                session = await service.open_session(make_engine(grid))
                return await AsyncBrowsingSession(session).replay(trace)

        async_responses = run(scenario())
        signature = [
            (r.tile.key, r.hit, r.latency_seconds, r.phase)
            for r in sync_responses
        ]
        assert [
            (r.tile.key, r.hit, r.latency_seconds, r.phase)
            for r in async_responses
        ] == signature
