"""The asyncio front end: lifecycle, concurrency, cancellation, and
replay equivalence with the synchronous facade."""

import asyncio

import pytest

from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.aio import AsyncForeCacheService
from repro.middleware.client import AsyncBrowsingSession, BrowsingSession
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.protocol import (
    DuplicateSessionError,
    SessionClosedError,
)
from repro.middleware.service import ForeCacheService
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def run(coro):
    return asyncio.run(coro)


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
                ServiceConfig(prefetch=PrefetchPolicy(k=4)),
            ) as service:
                submits = 0
                original = service._executor.submit

                def counting_submit(*args, **kwargs):
                    nonlocal submits
                    submits += 1
                    return original(*args, **kwargs)

                service._executor.submit = counting_submit
                try:
                    session = await service.open_session(
                        make_engine(grid), "native-1"
                    )
                    await session.info()
                    await session.close()
                    await service.open_session(make_engine(grid), "native-2")
                    await service.close_session("native-2")
                    assert submits == 0
                    # Sanity: the shim does count — a cold-cache miss
                    # must travel to the bridge pool.
                    probe = await service.open_session(make_engine(grid))
                    await probe.request(None, TileKey(0, 0, 0))
                    assert submits == 1
                finally:
                    service._executor.submit = original

        run(scenario())


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
