"""The socket server in front of the facade: what it serves on its event
loop, what leaves it for the bridge pool, lifecycle, cancellation, and
replay equivalence with the facade served in process.

Most tests run the server's message handlers directly, the way its
serve loop runs them for each admitted message, over a
``ServerConnection`` and no socket; the rest go through loopback.
"""

import asyncio
import importlib.util
import threading
from contextlib import aclosing
from pathlib import Path

import numpy as np
import pytest

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.connection import ServerConnection
from repro.middleware.net import (
    ForeCacheSocketServer,
    SocketTransport,
    ThreadedSocketServer,
)
from repro.middleware.protocol import (
    CloseSession,
    DuplicateSessionError,
    FrameDecoder,
    OpenSession,
    PushAck,
    SessionClosedError,
    SessionNotFoundError,
    TileRef,
    TileRequest,
    decode_wire,
)
from repro.middleware.service import ForeCacheService
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.pyramid import TilePyramid

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "cycle_cost", ROOT / "experiments" / "cycle_cost.py"
)
cycle_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cycle_cost)

#: A backend that sleeps this long per query can block: the server
#: sends its work to the bridge pool.
BLOCKING = CacheConfig(backend_delay_seconds=1e-6)


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def run(coro):
    return asyncio.run(coro)


def make_server(pyramid, config=None, **service_kwargs) -> ForeCacheSocketServer:
    """An unstarted server over a fresh facade; its handlers need no
    bound socket."""
    return ForeCacheSocketServer(
        ForeCacheService(
            pyramid,
            config,
            engine_factory=lambda: make_engine(pyramid.grid),
            **service_kwargs,
        )
    )


def count_submits(server: ForeCacheSocketServer) -> list[int]:
    """Count, in the returned ``[n]``, the jobs ``server`` hands its
    bridge pool from here on."""
    submits = [0]
    original = server._executor.submit

    def counting_submit(*args, **kwargs):
        submits[0] += 1
        return original(*args, **kwargs)

    server._executor.submit = counting_submit
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


class Wire:
    """One client connection's messages, run through the server's
    handlers; replies come back decoded, as a client reads them."""

    def __init__(self, server: ForeCacheSocketServer, *, push: bool = False):
        self.server = server
        self.conn = ServerConnection()
        self.conn.push = push

    def _decode(self, reply):
        (frame,) = FrameDecoder(self.conn.wire).feed(self.conn.send(reply))
        return decode_wire(frame)

    async def open(self, session_id: str | None = None) -> str:
        (info,) = await self.server._serve_open(
            OpenSession(session_id=session_id), self.conn
        )
        return info.session_id

    async def close(self, session_id: str):
        (info,) = await self.server._serve_close(
            CloseSession(session_id=session_id), self.conn
        )
        return info

    async def request(self, session_id: str, move: Move | None, key: TileKey):
        """The decoded ``tile_response`` (push frames before it dropped)."""
        replies = await self.server._serve_request(
            TileRequest(
                session_id=session_id,
                tile=TileRef.from_key(key),
                move=move and move.value,
            ),
            self.conn,
        )
        return self._decode(replies[-1])

    async def local_hit(self, session_id: str, move: Move | None, key: TileKey):
        replies = await self.server._serve_ack(
            PushAck(
                session_id=session_id,
                move=move and move.value,
                tile=TileRef.from_key(key),
            ),
            self.conn,
        )
        return self._decode(replies[-1])

    async def digest(self, session_id: str):
        """A push-cache digest with no request: the session's books."""
        (info,) = await self.server._serve_ack(
            PushAck(session_id=session_id), self.conn
        )
        return info


def signature(reply) -> tuple:
    """What a reply says about the request, in process terms."""
    return (
        reply.tile.to_key(),
        reply.hit,
        reply.latency_seconds,
        reply.to_phase(),
        tuple(ref.to_key() for ref in reply.prefetched),
    )


class TestOneProbePerRequest:
    def test_a_wire_request_visits_the_shards_as_an_in_process_one(self):
        """Over a backend that cannot block the server makes one
        ``service.request(...)`` of a request: a hit takes one
        shard-lock visit and a miss two, over the wire as in process."""
        pyramid = build_pyramid()
        config = ServiceConfig(prefetch=PrefetchPolicy(enabled=False))
        walk = pan_walk(pyramid.grid, 16)

        def count(cache, serve) -> dict[bool, set[int]]:
            visits = [0]
            cache._locks[:] = [
                cycle_cost.CountedLock(lock, visits) for lock in cache._locks
            ]
            seen = {True: set(), False: set()}
            for move, key in walk:
                before = visits[0]
                seen[serve(move, key).hit].add(visits[0] - before)
            return seen

        with ForeCacheService(pyramid, config) as service:
            session = service.open_session(make_engine(pyramid.grid))
            in_process = count(service.cache_manager.cache, session.request)
        with ThreadedSocketServer(
            pyramid, config, engine_factory=lambda: make_engine(pyramid.grid)
        ) as server:
            with SocketTransport(*server.address) as transport:
                conn = transport.connect()
                over_wire = count(
                    server.server.service.cache_manager.cache, conn.request
                )
                conn.close()
        assert in_process == over_wire == {True: {1}, False: {2}}


class TestLifecycle:
    def test_open_request_close(self, small_dataset):
        async def scenario():
            async with aclosing(make_server(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=5)),
            )) as server:
                wire = Wire(server)
                session = await wire.open()
                response = await wire.request(session, None, TileKey(0, 0, 0))
                assert response.tile.to_key() == TileKey(0, 0, 0)
                assert server.service.info(session).requests == 1
                final = await wire.close(session)
                assert (final.requests, final.open) == (1, False)
                with pytest.raises(SessionNotFoundError):
                    await wire.request(session, Move.ZOOM_IN_NW, TileKey(1, 0, 0))
                assert server.service.session_count == 0

        run(scenario())

    def test_duplicate_session_rejected(self, small_dataset):
        async def scenario():
            async with aclosing(make_server(small_dataset.pyramid)) as server:
                await Wire(server).open("bob")
                with pytest.raises(DuplicateSessionError):
                    await Wire(server).open("bob")

        run(scenario())

    def test_open_returns_the_id_the_facade_registers(self, small_dataset):
        async def scenario():
            async with aclosing(make_server(small_dataset.pyramid)) as server:
                wire = Wire(server)
                named = await wire.open("alice")
                first = await wire.open()
                second = await wire.open()
                assert named == "alice"
                assert len({named, first, second}) == 3
                assert server.service.session_ids == sorted(wire.conn.sessions)

        run(scenario())

    def test_each_id_keeps_its_own_books(self, small_dataset):
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with aclosing(make_server(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4)),
            )) as server:
                wire = Wire(server)
                walker, idle = await wire.open(), await wire.open()
                replies = [
                    await wire.request(walker, move, key)
                    for move, key in pan_walk(grid, 10)
                ]
                books = server.service.info(walker)
                assert (books.requests, books.hits) == (
                    10, sum(r.hit for r in replies),
                )
                books = server.service.info(idle)
                assert (books.requests, books.hits) == (0, 0)

        run(scenario())

    def test_a_closed_id_can_be_opened_again_from_scratch(self, small_dataset):
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with aclosing(make_server(small_dataset.pyramid)) as server:
                wire = Wire(server)
                await wire.open("bob")
                await wire.request("bob", None, grid.root)
                await wire.close("bob")
                assert await wire.open("bob") == "bob"
                assert server.service.info("bob").requests == 0

        run(scenario())

    @pytest.mark.parametrize("call", ["request", "local_hit", "close", "digest"])
    def test_an_unknown_id_is_typed(self, small_dataset, call):
        args = ("ghost", None, TileKey(0, 0, 0))
        if call in ("close", "digest"):
            args = args[:1]

        async def scenario():
            async with aclosing(make_server(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4, push="on")),
            )) as server:
                wire = Wire(server, push=True)
                with pytest.raises(SessionNotFoundError, match="ghost"):
                    await getattr(wire, call)(*args)

        run(scenario())

    @pytest.mark.parametrize(
        "call", ["open", "request", "local_hit", "close", "digest"]
    )
    def test_a_closed_server_refuses_every_call_typed(self, small_dataset, call):
        """The wire reports this, not the bridge pool's "cannot schedule
        new futures after shutdown"."""
        grid = small_dataset.pyramid.grid

        async def scenario():
            server = make_server(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4, push="on")),
            )
            wire = Wire(server, push=True)
            session = await wire.open()
            await server.aclose()
            args = {
                "open": (),
                "request": (session, None, grid.root),
                "local_hit": (session, None, grid.root),
            }.get(call, (session,))
            with pytest.raises(SessionClosedError, match="service is closed"):
                await getattr(wire, call)(*args)

        run(scenario())

    def test_aclose_is_idempotent(self, small_dataset):
        async def scenario():
            server = make_server(small_dataset.pyramid)
            await server.aclose()
            await server.aclose()
            assert server.service.session_count == 0

        run(scenario())

    def test_aclose_closes_every_session_and_joins_the_bridge_threads(self):
        pyramid = build_pyramid()

        async def scenario():
            server = make_server(pyramid, ServiceConfig(cache=BLOCKING))
            wire = Wire(server)
            session = await wire.open()
            await wire.request(session, None, pyramid.grid.root)
            threads = list(server._executor._threads)
            assert threads  # the miss ran on the bridge pool
            await server.aclose()
            assert not any(thread.is_alive() for thread in threads)
            assert server.service.session_count == 0
            with pytest.raises(SessionClosedError):
                server.service.open_session(make_engine(pyramid.grid))

        run(scenario())

    def test_a_reopened_id_predicts_from_a_fresh_engine(self, small_dataset):
        """Each open builds its session's engine anew: a closed
        session's history never reaches the next one's predictions."""
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with aclosing(make_server(small_dataset.pyramid)) as server:
                wire = Wire(server)
                await wire.open("first")
                for move, key in pan_walk(grid, 4):
                    await wire.request("first", move, key)
                walked = server.service._record("first").engine
                await wire.close("first")
                assert len(walked.history) > 0
                await wire.open("first")
                fresh = server.service._record("first").engine
                assert fresh is not walked
                assert len(fresh.history) == 0

        run(scenario())

    def test_lifecycle_never_leaves_the_loop(self, small_dataset):
        """Opening and closing sessions is bookkeeping under the facade's
        locks, served on the loop even where a miss leaves it: a
        cluster router re-opens sessions on every failover."""

        async def scenario():
            async with aclosing(make_server(
                small_dataset.pyramid,
                ServiceConfig(
                    prefetch=PrefetchPolicy(k=4),
                    cache=CacheConfig(backend_delay_seconds=0.001),
                ),
            )) as server:
                submits = count_submits(server)
                wire = Wire(server)
                await wire.close(await wire.open("native-1"))
                await wire.close(await wire.open("native-2"))
                assert submits == [0]
                # The shim does count: a cold miss over a backend that
                # sleeps travels to the bridge pool.
                probe = await wire.open()
                await wire.request(probe, None, TileKey(0, 0, 0))
                assert submits == [1]

        run(scenario())


class TestPushHooks:
    def test_load_tile_loads_once_then_returns_the_resident_tile(self):
        """Over a backend that can block, a cold load is one bridge job
        and a resident tile is handed back on the loop, itself."""
        pyramid = build_pyramid()
        key = TileKey(2, 1, 1)

        async def scenario():
            async with aclosing(
                make_server(pyramid, ServiceConfig(cache=BLOCKING))
            ) as server:
                submits = count_submits(server)
                cold = await server._load_tile(key)
                assert submits == [1]
                np.testing.assert_array_equal(
                    cold.attribute("v"),
                    pyramid.fetch_tile(key, charge=False).attribute("v"),
                )
                assert await server._load_tile(key) is cold
                assert submits == [1]

        run(scenario())

    def test_push_rounds_read_the_facades_pending_predictions(
        self, small_dataset, small_study
    ):
        """Each request's push round starts from the prediction list the
        facade served in process holds after the same request."""
        pyramid = small_dataset.pyramid
        trace = max(small_study.traces, key=len)
        config = ServiceConfig(prefetch=PrefetchPolicy(k=5, push="on"))

        with ForeCacheService(pyramid, config) as service:
            handle = service.open_session(make_engine(pyramid.grid))
            expected = []
            for request in trace.requests:
                handle.request(request.move, request.tile)
                expected.append(service.pending_predictions(handle.session_id))

        async def scenario():
            async with aclosing(make_server(pyramid, config)) as server:
                scheduler = server.push_scheduler
                rounds = []
                begin_round = scheduler.begin_round

                def recording_begin_round(session_id, predictions):
                    rounds.append(predictions)
                    return begin_round(session_id, predictions)

                scheduler.begin_round = recording_begin_round
                wire = Wire(server, push=True)
                session = await wire.open()
                for request in trace.requests:
                    await wire.request(session, request.move, request.tile)
                return rounds

        seen = run(scenario())
        assert any(seen)
        assert seen == expected

    def test_a_local_hit_books_a_hit_without_touching_the_cache(
        self, small_dataset
    ):
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with aclosing(make_server(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4, push="on")),
            )) as server:
                wire = Wire(server, push=True)
                session = await wire.open()
                await wire.request(session, None, grid.root)
                before = server.service.info(session)
                fetches = server.service.cache_manager.requests
                reply = await wire.local_hit(
                    session, Move.ZOOM_IN_NW, TileKey(1, 0, 0)
                )
                assert (reply.hit, reply.latency_seconds, reply.payload) == (
                    True, 0.0, None,
                )
                after = server.service.info(session)
                assert (after.requests, after.hits) == (
                    before.requests + 1, before.hits + 1,
                )
                assert server.service.cache_manager.requests == fetches
                assert after.average_latency_seconds == (
                    before.average_latency_seconds / 2
                )

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
            async with aclosing(make_server(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4)),
            )) as server:
                submits = count_submits(server)
                wire = Wire(server)
                session = await wire.open()
                replies = [
                    await wire.request(session, move, key)
                    for move, key in pan_walk(grid, 50)
                ]
                assert 0 < sum(r.hit for r in replies) < 50
                assert submits == [0]
                assert not server._executor._threads

        run(scenario())

    def test_in_memory_socket_requests_create_no_tasks(self, small_dataset):
        """Over a real socket, a served request costs neither an
        executor job nor an asyncio task (the read is one ``await``)."""
        pyramid = small_dataset.pyramid

        async def scenario():
            async with make_server(
                pyramid, ServiceConfig(prefetch=PrefetchPolicy(k=4))
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
                        submits = count_submits(server)
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

    def test_in_memory_push_rounds_never_leave_the_loop(self, small_dataset):
        """With push on over an in-memory pyramid, the tiles a push
        round streams are loaded on the loop, as are the requests and
        local hits around them."""
        grid = small_dataset.pyramid.grid

        async def scenario():
            async with aclosing(make_server(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4, push="on")),
            )) as server:
                submits = count_submits(server)
                wire = Wire(server, push=True)
                session = await wire.open()
                pushed = 0
                for index, (move, key) in enumerate(pan_walk(grid, 30)):
                    if index % 3 == 2:
                        await wire.local_hit(session, move, key)
                        continue
                    replies = await server._serve_request(
                        TileRequest(
                            session_id=session,
                            tile=TileRef.from_key(key),
                            move=move and move.value,
                        ),
                        wire.conn,
                    )
                    pushed += len(replies) - 1
                assert pushed > 0
                assert submits == [0]
                assert not server._executor._threads

        run(scenario())

    def test_a_threaded_server_replay_starts_no_bridge_thread(self, small_dataset):
        """Why no caller sizes the bridge pool: over the in-memory
        pyramid a whole replay through a ``ThreadedSocketServer`` — sync
        prefetch, socket framing, session lifecycle — starts no
        ``forecache-bridge`` thread."""
        pyramid = small_dataset.pyramid

        def bridge_threads():
            return {
                thread
                for thread in threading.enumerate()
                if thread.name.startswith("forecache-bridge")
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
            assert not server.server._executor._threads

    def test_blocking_backend_submits_as_before(self):
        """With a backend that can block, a hit is probed on the loop;
        every miss and every sync prefetch round travels to the bridge
        pool."""
        pyramid = build_pyramid()
        walk = pan_walk(pyramid.grid, 24)

        async def drive(policy):
            async with aclosing(make_server(
                pyramid, ServiceConfig(prefetch=policy, cache=BLOCKING)
            )) as server:
                submits = count_submits(server)
                wire = Wire(server)
                session = await wire.open()
                replies = [
                    await wire.request(session, move, key) for move, key in walk
                ]
                return submits[0], sum(not r.hit for r in replies)

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
            async with aclosing(make_server(
                pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=5), cache=cache),
            )) as server:
                submits = count_submits(server)
                wire = Wire(server)
                sessions = [await wire.open(name) for name in ("a", "b")]
                replies = [
                    await wire.request(sessions[index], request.move, request.tile)
                    for index, request in (stream * repeats)[:200]
                ]
                books = [server.service.info(session) for session in sessions]
                return replies, books, submits[0]

        on_loop = run(drive(CacheConfig()))
        on_pool = run(drive(BLOCKING))
        assert len(on_loop[0]) == 200
        assert on_loop[:2] == on_pool[:2]
        assert (on_loop[2], on_pool[2]) == (0, 200)


class TestConcurrency:
    def test_many_concurrent_sessions(self, small_dataset):
        """Concurrent connections' sessions share the cache race-free."""
        grid = small_dataset.pyramid.grid

        async def drive(server, index):
            wire = Wire(server)
            session = await wire.open(f"user-{index}")
            key = grid.root
            assert (await wire.request(session, None, key)).tile.to_key() == key
            for _ in range(5):
                moves = grid.available_moves(key)
                move, key = moves[index % len(moves)]
                reply = await wire.request(session, move, key)
                assert reply.tile.to_key() == key
            return server.service.info(session).requests

        async def scenario():
            async with aclosing(make_server(
                small_dataset.pyramid,
                ServiceConfig(prefetch=PrefetchPolicy(k=4)),
            )) as server:
                counts = await asyncio.gather(
                    *(drive(server, i) for i in range(6))
                )
                assert counts == [6] * 6
                assert server.service.cache_manager.requests == 36

        run(scenario())

    def test_cancellation_leaves_session_usable(self, small_dataset):
        """Cancelling a request waiting on the bridge pool must not
        wedge the session: the fetch behind it runs to completion."""
        manager = CacheManager(
            small_dataset.pyramid, TileCache(), backend_delay_seconds=0.05
        )

        async def scenario():
            async with aclosing(make_server(
                small_dataset.pyramid, cache_manager=manager
            )) as server:
                wire = Wire(server)
                session = await wire.open()
                task = asyncio.create_task(
                    wire.request(session, None, TileKey(2, 1, 1))
                )
                await asyncio.sleep(0.01)  # let it reach the slow backend
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                # Give the worker thread time to finish the fetch behind
                # the cancellation; the session serves on, now from cache.
                await asyncio.sleep(0.15)
                reply = await wire.request(session, None, TileKey(2, 1, 1))
                assert (reply.tile.to_key(), reply.hit) == (TileKey(2, 1, 1), True)
                assert server.service.info(session).requests == 2

        run(scenario())


class TestEquivalence:
    def test_replay_matches_the_facade(self, small_dataset, small_study):
        """Same trace, same tiles, hits, virtual latencies, phases,
        predictions and pending prediction lists as the facade served
        in process (the reference)."""
        trace = max(small_study.traces, key=len)
        pyramid = small_dataset.pyramid
        config = ServiceConfig(prefetch=PrefetchPolicy(k=5))

        with ForeCacheService(pyramid, config) as service:
            handle = service.open_session(make_engine(pyramid.grid))
            expected = []
            for request in trace.requests:
                r = handle.request(request.move, request.tile)
                expected.append((
                    (r.tile.key, r.hit, r.latency_seconds, r.phase, r.prefetched),
                    service.pending_predictions(handle.session_id),
                ))

        async def scenario():
            async with aclosing(make_server(pyramid, config)) as server:
                wire = Wire(server)
                session = await wire.open()
                seen = []
                for request in trace.requests:
                    reply = await wire.request(session, request.move, request.tile)
                    seen.append(
                        (signature(reply), server.service.pending_predictions(session))
                    )
                return seen

        seen = run(scenario())
        assert any(pending for _, pending in seen)
        assert seen == expected
