"""Asyncio front end over the serving facade — native where it counts.

The request path is asyncio-native: a cache **hit** is probed and
served on the event loop itself
(:meth:`~repro.cache.manager.CacheManager.try_fetch` — the cache's
striped locks are only held for dict operations, never across a
backend query), so the common case pays no thread hop at all.  Only
work that can block — wait outside the interpreter — leaves the loop
for the bridge pool: lifecycle joins, and, when the backend can block
(:attr:`~repro.cache.manager.CacheManager.backend_can_block`: a
configured delay — derived, not an option), a cache miss (the DBMS
query plus its observe/predict round as one unit) and a sync-mode
prefetch cycle.  Without a delay those are a few hundred microseconds
of pure Python that would hold the GIL on any thread, so they run on
the loop and the pool never starts a thread:

    service = AsyncForeCacheService.build(pyramid, config)
    session_id = await service.open_session(engine)
    response = await service.request(session_id, move, key)
    await service.aclose()

Sessions are addressed by the id :meth:`~AsyncForeCacheService.open_session`
returns, which is all the socket server
(:class:`~repro.middleware.net.ForeCacheSocketServer`), the one caller,
needs.  The threaded :class:`~repro.middleware.service.ForeCacheService`
stays the sync front end over the very same core — same cache, same
scheduler, same numerics — so the socket and cluster replays stay
bit-identical to the facade's.

Cancellation follows asyncio rules: cancelling a task blocked on
``await service.request(...)`` raises ``CancelledError`` in the task
immediately; underlying cache/DBMS work already started on the bridge
pool runs to completion on its worker thread (populating the cache
*and* feeding the prediction engine for later requests), and the
session remains usable.  A request served on the loop is atomic — it
cannot be interrupted mid-round.
"""

from __future__ import annotations

import asyncio
import functools
from collections.abc import Hashable
from concurrent.futures import ThreadPoolExecutor

from repro.core.engine import PredictionEngine
from repro.middleware.config import ServiceConfig
from repro.middleware.protocol import SessionClosedError, SessionInfo
from repro.middleware.service import (
    ForeCacheService,
    PushHitResult,
    TileResponse,
)
from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile
from repro.tiles.moves import Move
from repro.tiles.pyramid import TilePyramid


#: Threads the bridge pool may run.  A thread starts only when a job is
#: submitted, and over an in-memory backend none is, so no caller needs
#: a size of its own.
_BRIDGE_THREADS = 8


class AsyncForeCacheService:
    """``ForeCacheService`` for event-loop callers."""

    def __init__(self, service: ForeCacheService) -> None:
        self.service = service
        self._executor = ThreadPoolExecutor(
            max_workers=_BRIDGE_THREADS, thread_name_prefix="forecache-aio"
        )
        # Sync-mode prefetch runs the whole cycle inside the request's
        # post-fetch half — over a backend that can block, that half
        # must stay off the loop.  In background mode (or with prefetch
        # disabled) it is pure bookkeeping and runs inline.
        policy = service.config.prefetch
        self._backend_blocks = service.cache_manager.backend_can_block
        self._post_blocking = (
            self._backend_blocks and policy.enabled and not policy.background
        )
        # _closing gates new calls from the moment aclose begins;
        # _closed flips only once teardown fully completed (so a
        # cancelled aclose can be retried).
        self._closing = False
        self._closed = False

    @classmethod
    def build(
        cls,
        pyramid: TilePyramid,
        config: ServiceConfig | None = None,
        **service_kwargs,
    ) -> "AsyncForeCacheService":
        """Construct the facade and its async front end in one call."""
        return cls(ForeCacheService(pyramid, config, **service_kwargs))

    @property
    def pyramid(self) -> TilePyramid:
        return self.service.pyramid

    @property
    def config(self) -> ServiceConfig:
        return self.service.config

    @property
    def session_count(self) -> int:
        return self.service.session_count

    def _check_open(self) -> None:
        if self._closing or self._closed:
            # The bridge pool is down (or going down); surface the same
            # typed error the facade raises for its own lifecycle, so
            # transports report it over the wire instead of the opaque
            # "cannot schedule new futures after shutdown" RuntimeError
            # a request racing aclose() would otherwise hit.
            raise SessionClosedError("service is closed")

    async def _call(self, fn, *args):
        self._check_open()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args)
        )

    async def _request_record(self, record, move, key) -> TileResponse:
        """Serve one request for an already-resolved session record.

        The native path: the hit probe runs right here on the loop.  A
        miss that can block delegates the *whole* request — DBMS fetch
        plus the observe/predict round — to the bridge pool as one unit,
        so cancellation semantics match the threaded front end exactly
        (started work runs to completion; nothing half-observes).  The
        caller has checked that the service is open.
        """
        if record.closed:
            raise SessionClosedError(
                f"session {record.session_id!r} is closed",
                session_id=str(record.session_id),
            )
        outcome = self.service.cache_manager.try_fetch(key)
        if outcome is None:
            if self._backend_blocks:
                return await self._call(
                    self.service._request, record, move, key
                )
            return self.service._request(record, move, key)
        if self._post_blocking:
            return await self._call(
                self.service._complete_request, record, move, key, outcome
            )
        return self.service._complete_request(record, move, key, outcome)

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    async def open_session(
        self,
        engine: PredictionEngine | None = None,
        session_id: Hashable | None = None,
        *,
        reset_engine: bool = False,
    ) -> Hashable:
        """Register a session; returns its id (generated when
        ``session_id`` is None), the handle every other call takes."""
        # Native, no executor hop: registering a session is dict
        # bookkeeping under the facade's locks (never a backend query);
        # a cluster router sends each open to the session's owner only.
        self._check_open()
        return self.service.open_session(
            engine, session_id, reset_engine=reset_engine
        ).session_id

    async def close_session(self, session_id: Hashable) -> None:
        # Native for the same reason as open_session: deregistration +
        # scheduler cancel are inline bookkeeping.
        self._check_open()
        self.service.close_session(session_id)

    async def request(
        self, session_id: Hashable, move: Move | None, key: TileKey
    ) -> TileResponse:
        self._check_open()
        return await self._request_record(
            self.service._record(session_id), move, key
        )

    async def info(self, session_id: Hashable) -> SessionInfo:
        self._check_open()
        return self.service.info(session_id)

    # ------------------------------------------------------------------
    # push support (socket-server hooks)
    # ------------------------------------------------------------------
    async def local_hit(
        self, session_id: Hashable, move: Move | None, key: TileKey
    ) -> PushHitResult:
        """Absorb a client-side push-cache hit.

        No cache fetch is involved; the observe/predict round runs
        inline unless sync-mode prefetch makes it blocking.
        """
        if self._post_blocking:
            return await self._call(
                self.service.local_hit, session_id, move, key
            )
        self._check_open()
        return self.service.local_hit(session_id, move, key)

    async def pending_predictions(
        self, session_id: Hashable
    ) -> list[tuple[TileKey, str]]:
        """The session's latest attributed prediction list (ranked)."""
        self._check_open()
        return self.service.pending_predictions(session_id)

    async def load_tile(self, key: TileKey, model: str = "push") -> DataTile:
        """Materialize one tile for streaming (push path).

        Resident tiles return inline; a load leaves the loop if it can block.
        """
        self._check_open()
        manager = self.service.cache_manager
        if not self._backend_blocks:
            return manager.prefetch_one(key, model)
        resident = manager.cache.lookup(key)
        if resident is not None:
            return resident
        return await self._call(manager.prefetch_one, key, model)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Close the facade and stop the bridge thread pool.  Idempotent.

        The closed flag is only set once both the facade and the bridge
        pool are down, so a cancelled ``aclose`` (e.g. under
        ``asyncio.wait_for``) can be retried instead of silently leaking
        the worker threads.  Both steps run on the loop's *default*
        executor — idempotent, and safe to re-run even after the bridge
        pool itself is already shut — and off-loop, so joining worker
        threads never stalls the event loop behind a slow in-flight
        backend query.
        """
        if self._closed:
            return
        self._closing = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.service.close)
        await loop.run_in_executor(
            None, functools.partial(self._executor.shutdown, True)
        )
        self._closed = True
