"""The unified session-oriented serving facade.

:class:`ForeCacheService` is the single entry point the paper's Figure 5
puts between visualizer and DBMS.  One service owns one middleware cache
(and, in background mode, one prefetch worker pool); *sessions* are
first-class:

    service = ForeCacheService(pyramid, ServiceConfig(...))
    session = service.open_session(engine)
    response = session.request(move, key)     # -> TileResponse
    session.close()

Every session gets its own prediction engine (history, ROI, phase are
per user) and its own latency recorder, while all sessions share the
cache — a tile fetched for one user serves everyone.  With
``PrefetchPolicy(share_budget=True)`` the prefetch budget ``k`` is split
fairly across open sessions and, in sync mode, every request refills the
shared prefetch region with all sessions' predictions interleaved — the
multi-user scheme of Section 6.2.

Beyond shared *tiles*, sessions can share the *signal*:
``PrefetchPolicy(shared_hotspots="observe" | "boost")`` gives the
service one :class:`~repro.core.popularity.SharedHotspotRegistry` that
every session's requests feed; under ``"boost"`` live
:class:`~repro.recommenders.hotspot.HotspotRecommender` instances and
the background scheduler consult it, so one user's traffic steers
another user's prefetching (see README "Shared prediction").

:class:`~repro.middleware.net.ForeCacheSocketServer` serves this facade
over TCP, calling it on its event loop.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.cache.manager import CacheManager
from repro.core.engine import PredictionEngine
from repro.core.popularity import SharedHotspotRegistry
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.latency import LatencyRecorder, response_seconds
from repro.middleware.protocol import (
    DuplicateSessionError,
    SessionClosedError,
    SessionInfo,
    SessionNotFoundError,
)
from repro.middleware.scheduler import PrefetchScheduler
from repro.phases.model import AnalysisPhase
from repro.tiles.key import TileKey
from repro.tiles.reduce import (
    COARSE_REDUCTION,
    carve_fidelity,
    carve_from_ancestor,
)
from repro.tiles.moves import Move
from repro.tiles.pyramid import TilePyramid
from repro.tiles.tile import DataTile

#: Service-owned registries drop a counter once its decayed weight falls
#: below this, so decaying traffic cannot grow the key set without
#: bound.  Observations weigh 1.0, so nothing is ever dropped at
#: ``hotspot_decay=1.0``.
HOTSPOT_PRUNE_EPSILON = 1e-6


class TileResponse(NamedTuple):
    """What one request returns, in process.

    A read-only ``NamedTuple``, its fields read in C; it equals the
    plain tuple of its fields.
    """

    tile: DataTile
    latency_seconds: float
    hit: bool
    phase: AnalysisPhase | None
    prefetched: tuple[TileKey, ...] = ()
    #: Linear resolution fraction of the payload: 1.0 is the real tile;
    #: under overload (``PrefetchPolicy.fidelity="progressive"``) an
    #: ancestor-carved stand-in reports ``2**-depth``.
    fidelity: float = 1.0


class PushHitResult(NamedTuple):
    """Outcome of a client-side push-cache hit reported to the server.

    The client already holds the tile, so no tile (and no cache fetch)
    is involved — the server records the zero-latency hit, feeds the
    session's engine, and returns the new prediction round's metadata.

    A read-only ``NamedTuple``, its fields read in C; it equals the
    plain tuple of its fields.
    """

    phase: AnalysisPhase | None
    prefetched: tuple[TileKey, ...] = ()
    latency_seconds: float = 0.0
    hit: bool = True


@dataclass
class _SessionRecord:
    """Server-side state of one open session."""

    session_id: Hashable
    engine: PredictionEngine
    recorder: LatencyRecorder = field(default_factory=LatencyRecorder)
    pending: list[tuple[TileKey, str]] = field(default_factory=list)
    lock: threading.RLock = field(default_factory=threading.RLock)
    closed: bool = False


class SessionHandle:
    """The client-side face of one open session.

    Exposes ``request()`` plus the session's recorder and engine.  Also
    a context manager: leaving the ``with`` block closes the session.
    """

    def __init__(self, service: "ForeCacheService", record: _SessionRecord):
        self._service = service
        self._record = record

    @property
    def session_id(self) -> Hashable:
        return self._record.session_id

    @property
    def engine(self) -> PredictionEngine:
        return self._record.engine

    @property
    def recorder(self) -> LatencyRecorder:
        return self._record.recorder

    @property
    def closed(self) -> bool:
        return self._record.closed

    @property
    def pyramid(self) -> TilePyramid:
        return self._service.pyramid

    def request(self, move: Move | None, key: TileKey) -> TileResponse:
        """Serve one tile request for this session."""
        return self._service._request(self._record, move, key)

    def info(self) -> SessionInfo:
        """This session's wire-ready state snapshot."""
        recorder = self._record.recorder
        return SessionInfo(
            session_id=str(self._record.session_id),
            open=not self._record.closed,
            prefetch_mode=self._service.config.prefetch.mode,
            requests=recorder.count,
            hits=recorder.hits,
            hit_rate=recorder.hit_rate,
            average_latency_seconds=recorder.average_seconds,
        )

    def close(self) -> None:
        """Close this session.  Idempotent."""
        self._service._close_record(self._record)

    def __enter__(self) -> "SessionHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ForeCacheService:
    """Sessions, cache, prediction, and prefetch behind one facade."""

    def __init__(
        self,
        pyramid: TilePyramid,
        config: ServiceConfig | None = None,
        *,
        cache_manager: CacheManager | None = None,
        engine_factory: Callable[[], PredictionEngine] | None = None,
    ) -> None:
        self.pyramid = pyramid
        self.config = config if config is not None else ServiceConfig()
        policy = self.config.prefetch
        #: The registry every session's requests feed, present iff the
        #: policy shares hotspots.
        self.hotspot_registry: SharedHotspotRegistry | None = None
        if policy.shares_hotspots:
            # Shards match the cache striping: hot sessions observing
            # different tiles stop serializing on one registry mutex.
            self.hotspot_registry = SharedHotspotRegistry(
                shards=self.config.cache.shards,
                decay=policy.hotspot_decay,
                prune_epsilon=HOTSPOT_PRUNE_EPSILON,
            )
        if cache_manager is None:
            cache_manager = self.config.cache.build_cache_manager(pyramid)
        if policy.share_budget and (
            cache_manager.cache.prefetch_capacity < policy.k
        ):
            raise ValueError(
                f"cache prefetch capacity "
                f"{cache_manager.cache.prefetch_capacity} cannot hold the "
                f"prefetch budget k={policy.k}"
            )
        self.cache_manager = cache_manager
        self.engine_factory = engine_factory
        #: ``policy.fidelity_enabled``, read once: every request asks.
        self._fidelity = policy.fidelity_enabled
        #: The background worker pool, shared by every session: set
        #: exactly when ``policy.background``.
        self.scheduler: PrefetchScheduler | None = None
        if policy.background:
            self.scheduler = PrefetchScheduler(
                self.cache_manager,
                max_workers=policy.workers,
                # Only "boost" acts on the shared signal; "observe"
                # collects without changing any scheduling decision.
                hotspot_registry=(
                    self.hotspot_registry if policy.hotspots_live else None
                ),
                # Shedding only arms with progressive fidelity; off mode
                # keeps the scheduler bit-identical to earlier builds.
                shed_queue_depth=(
                    policy.shed_queue_depth if policy.fidelity_enabled else None
                ),
            )
        #: Request-count decay ticking (policy.hotspot_tick_every); its
        #: own lock so ticking never contends with the session table.
        self._hotspot_tick_lock = threading.Lock()
        self._hotspot_requests = 0
        self._lock = threading.Lock()
        self._sessions: dict[Hashable, _SessionRecord] = {}
        self._auto_session = 0
        self._closed = False
        #: Degraded-serving state (``fidelity="progressive"`` only):
        #: consecutive real misses across all sessions — the
        #: deterministic overload signal — plus a counter of requests
        #: answered from a cached ancestor instead of the backend.
        self._miss_lock = threading.Lock()
        self._miss_streak = 0
        self.degraded_served = 0

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def open_session(
        self,
        engine: PredictionEngine | None = None,
        session_id: Hashable | None = None,
        *,
        reset_engine: bool = False,
    ) -> SessionHandle:
        """Open a session and return its handle.

        ``session_id`` defaults to a fresh unique id.  A duplicate id is
        rejected with :class:`DuplicateSessionError` — two live sessions
        must never share prediction state.  ``engine`` may be omitted
        only when the service was built with an ``engine_factory``.
        """
        if engine is None:
            if self.engine_factory is None:
                raise ValueError(
                    "open_session needs an engine (or construct the "
                    "service with an engine_factory)"
                )
            engine = self.engine_factory()
        with self._lock:
            if self._closed:
                raise SessionClosedError("service is closed")
            if session_id is None:
                # Skip counter values a caller already claimed by name.
                while True:
                    self._auto_session += 1
                    session_id = f"session-{self._auto_session}"
                    if session_id not in self._sessions:
                        break
            if session_id in self._sessions:
                raise DuplicateSessionError(
                    f"session {session_id!r} is already open",
                    session_id=str(session_id),
                )
            # Reset only after every rejection path: a refused open must
            # not wipe the caller's engine state as a side effect.
            if reset_engine:
                engine.reset()
            record = _SessionRecord(session_id=session_id, engine=engine)
            self._sessions[session_id] = record
        # Only a successfully opened session joins the shared popularity
        # model (a refused open must not rebind the caller's engine).
        if self.hotspot_registry is not None:
            engine.bind_hotspot_registry(
                self.hotspot_registry,
                live=self.config.prefetch.hotspots_live,
            )
        return SessionHandle(self, record)

    def close_session(self, session_id: Hashable) -> None:
        """Close one session; its cache contributions stay shared."""
        with self._lock:
            record = self._sessions.get(session_id)
        if record is None:
            raise SessionNotFoundError(
                f"session {session_id!r} is not open",
                session_id=str(session_id),
            )
        self._close_record(record)

    def _close_record(self, record: _SessionRecord) -> None:
        # The session lock serializes closing against an in-flight
        # request: once we hold it, any request either already scheduled
        # its prefetch round (cancelled just below) or will observe
        # ``closed`` and raise.  Lock order (record -> service) matches
        # the request path.
        with record.lock:
            with self._lock:
                if record.closed:
                    return
                record.closed = True
                self._sessions.pop(record.session_id, None)
            self._unbind_engine(record.engine)
        if self.scheduler is not None:
            self.scheduler.cancel_session(record.session_id)

    def _unbind_engine(self, engine: PredictionEngine) -> None:
        """Detach a departing engine from *this service's* registry.

        An engine leaving its session must stop feeding (and, when live,
        predicting from) a registry it no longer belongs to — otherwise
        reusing it under a later ``shared_hotspots="off"`` service would
        silently keep the stale signal alive.  An engine the caller
        bound to some *other* registry is none of our business.
        """
        if (
            self.hotspot_registry is not None
            and engine.hotspot_registry is self.hotspot_registry
        ):
            engine.bind_hotspot_registry(
                None, live=self.config.prefetch.hotspots_live
            )

    @property
    def session_ids(self) -> list[Hashable]:
        """Ids of the open sessions (sorted when comparable)."""
        with self._lock:
            ids = list(self._sessions)
        try:
            return sorted(ids)
        except TypeError:
            return sorted(ids, key=str)

    @property
    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def session(self, session_id: Hashable) -> SessionHandle:
        """A handle for an open session (by id)."""
        return SessionHandle(self, self._record(session_id))

    def info(self, session_id: Hashable) -> SessionInfo:
        """One session's wire-ready snapshot."""
        return self.session(session_id).info()

    def _record(self, session_id: Hashable) -> _SessionRecord:
        with self._lock:
            record = self._sessions.get(session_id)
        if record is None:
            raise SessionNotFoundError(
                f"session {session_id!r} is not open",
                session_id=str(session_id),
            )
        return record

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def request(
        self, session_id: Hashable, move: Move | None, key: TileKey
    ) -> TileResponse:
        """Serve one request on behalf of an open session (by id)."""
        return self._request(self._record(session_id), move, key)

    def _request(
        self, record: _SessionRecord, move: Move | None, key: TileKey
    ) -> TileResponse:
        if record.closed:
            raise SessionClosedError(
                f"session {record.session_id!r} is closed",
                session_id=str(record.session_id),
            )
        if self._fidelity and self._overloaded():
            degraded = self._degraded_response(record, move, key)
            if degraded is not None:
                return degraded
        outcome = self.cache_manager.fetch(key)
        return self._complete_request(record, move, key, outcome)

    def _overloaded(self) -> bool:
        """Is the service past its shedding thresholds right now?

        Two signals, either trips it: the *physical* backlog (queued
        prefetch jobs plus in-flight backend loads, against
        ``shed_queue_depth``) and the *deterministic* miss streak
        (consecutive real misses against ``shed_miss_streak``, which a
        replay reproduces exactly — physical queue depths depend on
        worker timing).
        """
        policy = self.config.prefetch
        depth = self.cache_manager.inflight_count
        if self.scheduler is not None:
            depth += self.scheduler.queue_depth
        if depth >= policy.shed_queue_depth:
            return True
        if policy.shed_miss_streak > 0:
            with self._miss_lock:
                return self._miss_streak >= policy.shed_miss_streak
        return False

    def _degraded_response(
        self, record: _SessionRecord, move: Move | None, key: TileKey
    ) -> TileResponse | None:
        """Answer from a cached ancestor at reduced fidelity, if one is
        resident.

        The quadtree makes an ancestor's sub-block an exact (coarse)
        stand-in for the requested tile, so under overload the service
        trades resolution for latency instead of queueing on the
        backend.  Probes are pure (:meth:`CacheManager.peek`) — they
        never distort hit counters or LRU order.  Returns None when the
        real tile is already resident (serve it full-res) or no
        ancestor within the reduction budget is cached (the request
        must pay the backend either way, so degrading would only lose
        resolution without saving any time).
        """
        if self.cache_manager.peek(key) is not None:
            return None
        max_depth = COARSE_REDUCTION.bit_length() - 1
        for depth in range(1, max_depth + 1):
            level = key.level - depth
            if level < 0:
                break
            ancestor = self.cache_manager.peek(key.ancestor(level))
            if ancestor is None:
                continue
            tile = carve_from_ancestor(ancestor, key)
            with self._miss_lock:
                self.degraded_served += 1
            # Served from memory: charge the hit-path latency.  The
            # streak is left alone — only a *real* hit clears overload.
            latency = response_seconds(True, 0.0)
            phase, prefetched = self._observe_and_predict(
                record, move, key, latency, True
            )
            return TileResponse(
                tile, latency, True, phase, prefetched, carve_fidelity(level, key.level)
            )
        return None

    def _complete_request(
        self, record: _SessionRecord, move: Move | None, key: TileKey, outcome
    ) -> TileResponse:
        """The post-fetch half of :meth:`_request`.

        Split out so the socket server, over a backend that can block,
        can serve a cache hit it probed on the event loop (via
        :meth:`~repro.cache.manager.CacheManager.try_fetch`) and finish
        the round — latency accounting, observe/predict, prefetch
        scheduling — without re-entering the fetch path.
        """
        if self._fidelity:
            with self._miss_lock:
                if outcome.hit:
                    self._miss_streak = 0
                else:
                    self._miss_streak += 1
        latency = response_seconds(outcome.hit, outcome.backend_seconds)
        phase, prefetched = self._observe_and_predict(
            record, move, key, latency, outcome.hit
        )
        return TileResponse(outcome.tile, latency, outcome.hit, phase, prefetched)

    def _observe_and_predict(
        self,
        record: _SessionRecord,
        move: Move | None,
        key: TileKey,
        latency: float,
        hit: bool,
    ) -> tuple[AnalysisPhase | None, tuple[TileKey, ...]]:
        """The post-fetch half of a request: record, observe, predict,
        and run/schedule the prefetch round.  Shared by the normal
        request path and the push-hit path (which has no fetch)."""
        policy = self.config.prefetch
        phase: AnalysisPhase | None = None
        prefetched: tuple[TileKey, ...] = ()
        pending: list[tuple[TileKey, str]] = []
        with record.lock:
            # Re-check under the lock: a concurrent close may have won
            # the race since the entry check above, and scheduling a
            # prefetch round for it would resurrect the session in the
            # scheduler's generation table.
            if record.closed:
                raise SessionClosedError(
                    f"session {record.session_id!r} is closed",
                    session_id=str(record.session_id),
                )
            record.recorder.record(latency, hit)
            record.engine.observe(move, key)
            if policy.enabled:
                result = record.engine.predict(self._budget(policy))
                phase = result.phase
                prefetched = tuple(result.tiles)
                pending = result.attributed_tiles()
                record.pending = pending
                if self.scheduler is not None:
                    # Under the session lock so observe-order ==
                    # schedule-order: the round reflecting the latest
                    # observation is the one that supersedes.
                    try:
                        self.scheduler.schedule(
                            pending, session_id=record.session_id
                        )
                    except RuntimeError:
                        if not self.scheduler.closed:
                            raise  # not a lifecycle race — don't mask it
                        # The scheduler shut down under us (service
                        # close); the tile was served, so report the
                        # typed lifecycle error, named accurately.
                        raise SessionClosedError(
                            "prefetch scheduler is shut down; session"
                            f" {record.session_id!r} can no longer be"
                            " served",
                            session_id=str(record.session_id),
                        ) from None
        if (
            self.hotspot_registry is not None
            and policy.hotspot_tick_every > 0
        ):
            # Request-count decay ticking: one registry tick every N
            # served requests, whoever served them.
            with self._hotspot_tick_lock:
                self._hotspot_requests += 1
                if self._hotspot_requests % policy.hotspot_tick_every == 0:
                    self.hotspot_registry.advance()
        if policy.enabled and self.scheduler is None:
            # ``pending`` is the local computed under the lock — not a
            # re-read of record.pending, which a concurrent reset() may
            # have already replaced.
            self.cache_manager.prefetch(
                self._merged_predictions()
                if policy.share_budget
                else pending
            )
        return phase, prefetched

    # ------------------------------------------------------------------
    # push support (the socket server's continuous-prefetch hooks)
    # ------------------------------------------------------------------
    def local_hit(
        self, session_id: Hashable, move: Move | None, key: TileKey
    ) -> PushHitResult:
        """Absorb a client-side push-cache hit.

        The client answered the request locally from a pushed tile;
        the server still must see the move — engine history, the latency
        recorder (a zero-latency hit), the shared popularity signal, and
        the next prefetch/push round all flow from it.  No cache fetch
        happens (the tile never touches the middleware cache).
        """
        record = self._record(session_id)
        if record.closed:
            raise SessionClosedError(
                f"session {record.session_id!r} is closed",
                session_id=str(record.session_id),
            )
        phase, prefetched = self._observe_and_predict(
            record, move, key, 0.0, True
        )
        return PushHitResult(phase=phase, prefetched=prefetched)

    def pending_predictions(
        self, session_id: Hashable
    ) -> list[tuple[TileKey, str]]:
        """The session's latest attributed prediction list (ranked)."""
        record = self._record(session_id)
        with record.lock:
            return list(record.pending)

    def _budget(self, policy: PrefetchPolicy) -> int:
        """This round's per-session prediction budget."""
        if not policy.share_budget:
            return policy.k
        with self._lock:
            active = max(1, len(self._sessions))
        return max(1, policy.k // active)

    def _merged_predictions(self) -> list[tuple[TileKey, str]]:
        """Interleave all sessions' pending predictions, fairly.

        Round-robin by prediction rank: every session's best prediction
        first, then every session's second, and so on — deduplicated, so
        a tile two sessions both want claims a single slot.
        """
        with self._lock:
            records = list(self._sessions.items())
        try:
            records.sort()
        except TypeError:
            records.sort(key=lambda item: str(item[0]))
        queues = [
            list(record.pending) for _, record in records if record.pending
        ]
        budget = self.config.prefetch.k
        merged: list[tuple[TileKey, str]] = []
        seen: set[TileKey] = set()
        rank, ranks = 0, max(map(len, queues), default=0)
        while len(merged) < budget and rank < ranks:
            for queue in queues:
                if rank < len(queue):
                    tile, model = queue[rank]
                    if tile not in seen:
                        seen.add(tile)
                        merged.append((tile, model))
                        if len(merged) >= budget:
                            break
            rank += 1
        return merged

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Wait for outstanding background prefetch work (tests/benchmarks)."""
        if self.scheduler is None:
            return True
        return self.scheduler.wait_idle(timeout)

    def close(self) -> None:
        """Close every session and release the worker pool.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            records = list(self._sessions.values())
            self._sessions.clear()
        for record in records:
            # Per-session lock so an in-flight request finishes its
            # prefetch round before we mark the session closed and
            # cancel that round below.
            with record.lock:
                record.closed = True
                self._unbind_engine(record.engine)
        if self.scheduler is not None:
            self.scheduler.shutdown()

    def __enter__(self) -> "ForeCacheService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
