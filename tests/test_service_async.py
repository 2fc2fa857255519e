"""The asyncio front end: lifecycle, concurrency, cancellation, and
replay equivalence with the synchronous facade."""

import asyncio
import threading
from contextlib import aclosing

import numpy as np
import pytest

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.aio import AsyncForeCacheService
from repro.middleware.client import BrowsingSession
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.net import (
    ForeCacheSocketServer,
    SocketTransport,
    ThreadedSocketServer,
)
from repro.middleware.protocol import (
    DuplicateSessionError,
    SessionClosedError,
    SessionNotFoundError,
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


def build_pyramid() -> TilePyramid:
    """A three-level pyramid over a 16 x 16 random array."""
    db = Database()
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
            async with aclosing(AsyncForeCacheService.build(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=5)),
            )) as service:
                session = await service.open_session(
                    make_engine(small_dataset.pyramid.grid)
                )
                response = await service.request(
                    session, None, TileKey(0, 0, 0)
                )
                assert response.tile.key == TileKey(0, 0, 0)
                info = await service.info(session)
                assert info.requests == 1
                await service.close_session(session)
                with pytest.raises(SessionNotFoundError):
                    await service.request(
                        session, Move.ZOOM_IN_NW, TileKey(1, 0, 0)
                    )

        run(scenario())

    def test_duplicate_session_rejected(self, small_dataset):
        async def scenario():
            async with aclosing(AsyncForeCacheService.build(
                small_dataset.pyramid
            )) as service:
                grid = small_dataset.pyramid.grid
                await service.open_session(make_engine(grid), "bob")
                with pytest.raises(DuplicateSessionError):
                    await service.open_session(make_engine(grid), "bob")

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
            async with aclosing(AsyncForeCacheService.build(
                small_dataset.pyramid,
                ServiceConfig(
                    prefetch=PrefetchPolicy(k=4),
                    cache=CacheConfig(backend_delay_seconds=0.001),
                ),
            )) as service:
                submits = count_submits(service)
                session = await service.open_session(
                    make_engine(grid), "native-1"
                )
                await service.info(session)
                await service.close_session(session)
                await service.open_session(make_engine(grid), "native-2")
                await service.close_session("native-2")
                assert submits == [0]
                # Sanity: the shim does count — a cold-cache miss over
                # a backend that sleeps must travel to the bridge pool.
                probe = await service.open_session(make_engine(grid))
                await service.request(probe, None, TileKey(0, 0, 0))
                assert submits == [1]

        run(scenario())


class TestBridgeCalls:
    """Every call the socket server makes of the bridge: sessions are
    addressed by the id ``open_session`` returns."""

    def test_open_session_returns_the_id_the_facade_registers(
        self, small_dataset
    ):
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with aclosing(
                AsyncForeCacheService.build(small_dataset.pyramid)
            ) as service:
                named = await service.open_session(make_engine(grid), "alice")
                first = await service.open_session(make_engine(grid))
                second = await service.open_session(make_engine(grid))
                assert named == "alice"
                assert len({named, first, second}) == 3
                for session_id in (named, first, second):
                    handle = service.service.session(session_id)
                    assert handle.session_id == session_id
                    info = await service.info(session_id)
                    assert (info.session_id, info.open) == (str(session_id), True)
                assert service.session_count == 3

        run(scenario())

    def test_each_id_keeps_its_own_books(self, small_dataset):
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with aclosing(
                AsyncForeCacheService.build(
                    small_dataset.pyramid,
                    ServiceConfig(prefetch=PrefetchPolicy(k=4)),
                )
            ) as service:
                walker = await service.open_session(make_engine(grid))
                idle = await service.open_session(make_engine(grid))
                responses = [
                    await service.request(walker, move, key)
                    for move, key in pan_walk(grid, 10)
                ]
                books = await service.info(walker)
                assert (books.requests, books.hits) == (
                    10, sum(r.hit for r in responses),
                )
                books = await service.info(idle)
                assert (books.requests, books.hits) == (0, 0)

        run(scenario())

    def test_a_closed_id_can_be_opened_again_from_scratch(self, small_dataset):
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with aclosing(
                AsyncForeCacheService.build(small_dataset.pyramid)
            ) as service:
                await service.open_session(make_engine(grid), "bob")
                await service.request("bob", None, grid.root)
                await service.close_session("bob")
                assert await service.open_session(make_engine(grid), "bob") == "bob"
                assert (await service.info("bob")).requests == 0

        run(scenario())

    def test_reset_engine_reaches_the_facade(self, small_dataset):
        """A refused reset would replay the last session's history into
        the next one's predictions."""
        grid = small_dataset.pyramid.grid
        engine = make_engine(grid)

        async def scenario():
            async with aclosing(
                AsyncForeCacheService.build(small_dataset.pyramid)
            ) as service:
                await service.open_session(engine, "first")
                for move, key in pan_walk(grid, 4):
                    await service.request("first", move, key)
                await service.close_session("first")
                assert len(engine.history) > 0
                await service.open_session(engine, "fresh", reset_engine=True)
                assert len(engine.history) == 0

        run(scenario())

    @pytest.mark.parametrize(
        "call",
        ["request", "local_hit", "info", "close_session", "pending_predictions"],
    )
    def test_an_unknown_id_is_typed(self, small_dataset, call):
        args = ("ghost", None, TileKey(0, 0, 0))
        if call not in ("request", "local_hit"):
            args = args[:1]

        async def scenario():
            async with aclosing(
                AsyncForeCacheService.build(small_dataset.pyramid)
            ) as service:
                with pytest.raises(SessionNotFoundError, match="ghost"):
                    await getattr(service, call)(*args)

        run(scenario())

    @pytest.mark.parametrize(
        "call",
        [
            "open_session",
            "request",
            "local_hit",
            "info",
            "close_session",
            "pending_predictions",
            "load_tile",
        ],
    )
    def test_a_closed_service_refuses_every_call_typed(self, small_dataset, call):
        """The socket server reports this over the wire instead of the
        executor's "cannot schedule new futures after shutdown"."""
        grid = small_dataset.pyramid.grid

        async def scenario():
            service = AsyncForeCacheService.build(small_dataset.pyramid)
            session = await service.open_session(make_engine(grid))
            await service.aclose()
            args = {
                "open_session": (make_engine(grid),),
                "request": (session, None, grid.root),
                "local_hit": (session, None, grid.root),
                "load_tile": (grid.root,),
            }.get(call, (session,))
            with pytest.raises(SessionClosedError, match="service is closed"):
                await getattr(service, call)(*args)

        run(scenario())

    def test_aclose_closes_every_session_and_joins_the_bridge_threads(self):
        pyramid = build_pyramid()

        async def scenario():
            service = AsyncForeCacheService.build(
                pyramid,
                ServiceConfig(cache=CacheConfig(backend_delay_seconds=1e-6)),
            )
            session = await service.open_session(make_engine(pyramid.grid))
            await service.request(session, None, pyramid.grid.root)
            threads = list(service._executor._threads)
            assert threads  # the miss ran on the bridge pool
            await service.aclose()
            assert not any(thread.is_alive() for thread in threads)
            assert service.service.session_count == 0
            with pytest.raises(SessionClosedError):
                service.service.open_session(make_engine(pyramid.grid))

        run(scenario())

    def test_load_tile_loads_once_then_returns_the_resident_tile(self):
        """Over a backend that can block, a cold load is one bridge job
        and a resident tile is handed back on the loop, itself."""
        pyramid = build_pyramid()
        key = TileKey(2, 1, 1)

        async def scenario():
            async with aclosing(
                AsyncForeCacheService.build(
                    pyramid,
                    ServiceConfig(cache=CacheConfig(backend_delay_seconds=1e-6)),
                )
            ) as service:
                submits = count_submits(service)
                cold = await service.load_tile(key)
                assert submits == [1]
                np.testing.assert_array_equal(
                    cold.attribute("v"),
                    pyramid.fetch_tile(key, charge=False).attribute("v"),
                )
                assert await service.load_tile(key) is cold
                assert submits == [1]

        run(scenario())

    def test_pending_predictions_match_the_sync_facades(
        self, small_dataset, small_study
    ):
        pyramid = small_dataset.pyramid
        trace = max(small_study.traces, key=len)
        config = ServiceConfig(prefetch=PrefetchPolicy(k=5))

        with ForeCacheService(pyramid, config) as sync_service:
            handle = sync_service.open_session(make_engine(pyramid.grid))
            expected = []
            for request in trace.requests:
                handle.request(request.move, request.tile)
                expected.append(
                    sync_service.pending_predictions(handle.session_id)
                )

        async def scenario():
            async with aclosing(
                AsyncForeCacheService.build(pyramid, config)
            ) as service:
                session = await service.open_session(make_engine(pyramid.grid))
                seen = []
                for request in trace.requests:
                    await service.request(session, request.move, request.tile)
                    seen.append(await service.pending_predictions(session))
                return seen

        seen = run(scenario())
        assert any(seen)
        assert seen == expected

    def test_a_local_hit_books_a_hit_without_touching_the_cache(
        self, small_dataset
    ):
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with aclosing(
                AsyncForeCacheService.build(
                    small_dataset.pyramid,
                    ServiceConfig(prefetch=PrefetchPolicy(k=4)),
                )
            ) as service:
                session = await service.open_session(make_engine(grid))
                await service.request(session, None, grid.root)
                before = await service.info(session)
                fetches = service.service.cache_manager.requests
                await service.local_hit(session, Move.ZOOM_IN_NW, TileKey(1, 0, 0))
                after = await service.info(session)
                assert (after.requests, after.hits) == (
                    before.requests + 1, before.hits + 1,
                )
                assert service.service.cache_manager.requests == fetches
                recorder = service.service.session(session).recorder
                assert recorder.average_seconds == before.average_latency_seconds / 2

        run(scenario())


class TestWhatLeavesTheLoop:
    """Work leaves the event loop iff the backend can block."""

    @pytest.mark.parametrize("delay, blocks", [(0.0, False), (1e-6, True)])
    def test_blocking_is_derived_from_the_delay(self, delay, blocks):
        """Every view sits in memory, so a query can wait outside the
        interpreter exactly when a backend delay is emulated."""
        manager = CacheManager(build_pyramid(), backend_delay_seconds=delay)
        assert manager.backend_can_block is blocks

    def test_in_memory_requests_never_leave_the_loop(self, small_dataset):
        """Sync-mode prefetch over an in-memory pyramid: hits, misses
        and their prefetch rounds are all served on the loop, and the
        bridge pool never starts a thread."""
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with aclosing(AsyncForeCacheService.build(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4)),
            )) as service:
                submits = count_submits(service)
                session = await service.open_session(make_engine(grid))
                responses = [
                    await service.request(session, move, key)
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
            ) as server:
                # The blocking client runs off the loop, which serves it.
                transport = await asyncio.to_thread(
                    SocketTransport, *server.address, payload="binary"
                )
                try:
                    conn = await asyncio.to_thread(transport.connect)
                    loop = asyncio.get_running_loop()
                    tasks = []

                    def counting_factory(loop, coro, **kwargs):
                        task = asyncio.Task(coro, loop=loop, **kwargs)
                        tasks.append(task)
                        return task

                    loop.set_task_factory(counting_factory)
                    try:
                        submits = count_submits(server.service)
                        responses = await asyncio.to_thread(
                            lambda: [
                                conn.request(move, key)
                                for move, key in pan_walk(pyramid.grid, 50)
                            ]
                        )
                    finally:
                        loop.set_task_factory(None)
                finally:
                    transport.close()
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

    def test_blocking_backend_submits_as_before(self):
        """With a backend that can block the rule is the old one: a hit
        is probed on the loop, every miss and every sync prefetch round
        travels to the bridge pool."""
        pyramid = build_pyramid()
        cache = CacheConfig(backend_delay_seconds=1e-6)
        walk = pan_walk(pyramid.grid, 24)

        async def drive(policy):
            async with aclosing(AsyncForeCacheService.build(
                pyramid, ServiceConfig(prefetch=policy, cache=cache)
            )) as service:
                submits = count_submits(service)
                session = await service.open_session(
                    make_engine(pyramid.grid)
                )
                responses = [
                    await service.request(session, move, key)
                    for move, key in walk
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
            async with aclosing(AsyncForeCacheService.build(
                pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=5), cache=cache),
            )) as service:
                submits = count_submits(service)
                sessions = [
                    await service.open_session(make_engine(pyramid.grid), name)
                    for name in ("a", "b")
                ]
                replies = []
                for index, request in (stream * repeats)[:200]:
                    r = await service.request(
                        sessions[index], request.move, request.tile
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
                books = [await service.info(session) for session in sessions]
                return replies, books, submits[0]

        on_loop = run(drive(CacheConfig()))
        on_pool = run(drive(CacheConfig(backend_delay_seconds=1e-6)))
        assert len(on_loop[0]) == 200
        assert on_loop[:2] == on_pool[:2]
        assert (on_loop[2], on_pool[2]) == (0, 200)


class TestAsyncConcurrency:
    def test_many_concurrent_sessions(self, small_dataset):
        """Concurrent coroutine sessions share the cache race-free."""

        grid = small_dataset.pyramid.grid

        async def drive(service, session_id):
            session = await service.open_session(make_engine(grid), session_id)
            key = grid.root
            response = await service.request(session, None, key)
            assert response.tile.key == key
            for _ in range(5):
                moves = grid.available_moves(key)
                move, key = moves[session_id % len(moves)]
                response = await service.request(session, move, key)
                assert response.tile.key == key
            return (await service.info(session)).requests

        async def scenario():
            async with aclosing(AsyncForeCacheService.build(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4)),
            )) as service:
                counts = await asyncio.gather(
                    *(drive(service, i) for i in range(6))
                )
                assert counts == [6] * 6
                assert service.service.cache_manager.requests == 36

        run(scenario())

    def test_cancellation_leaves_session_usable(self, small_dataset):
        """Cancelling an in-flight request must not wedge the session."""
        manager = CacheManager(
            small_dataset.pyramid,
            TileCache(),
            backend_delay_seconds=0.05,
        )

        async def scenario():
            async with aclosing(AsyncForeCacheService.build(
                small_dataset.pyramid, cache_manager=manager
            )) as service:
                session = await service.open_session(
                    make_engine(small_dataset.pyramid.grid)
                )
                task = asyncio.create_task(
                    service.request(session, None, TileKey(2, 1, 1))
                )
                await asyncio.sleep(0.01)  # let it reach the slow backend
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                # Give the worker thread time to finish the fetch behind
                # the cancellation; the session serves on, now from cache.
                await asyncio.sleep(0.15)
                response = await service.request(
                    session, None, TileKey(2, 1, 1)
                )
                assert response.tile.key == TileKey(2, 1, 1)
                assert response.hit
                assert (await service.info(session)).requests == 2

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
            async with aclosing(AsyncForeCacheService.build(
                small_dataset.pyramid, config
            )) as service:
                session = await service.open_session(make_engine(grid))
                return [
                    await service.request(session, request.move, request.tile)
                    for request in trace.requests
                ]

        async_responses = run(scenario())
        signature = [
            (r.tile.key, r.hit, r.latency_seconds, r.phase)
            for r in sync_responses
        ]
        assert [
            (r.tile.key, r.hit, r.latency_seconds, r.phase)
            for r in async_responses
        ] == signature
