"""The cache manager: serves tile requests, executes prefetches.

On a request, the manager answers from the middleware cache when it can
(a *hit*, main-memory speed) and falls back to a real DBMS query
otherwise (a *miss*, ~50x slower on the paper's testbed).  After the
prediction engine produces its ordered prefetch list, the manager brings
the prefetch region in line with it — synchronously via :meth:`prefetch`
(the paper's single-user loop), which keeps every tile that is still
predicted and queries the DBMS only for the ones resident nowhere, or
one tile at a time via :meth:`prefetch_one` when a background scheduler
drives the work.

The manager is thread-safe and **coalesces** backend traffic: every
backend load is registered in an in-flight table, so concurrent
misses on the same :class:`~repro.tiles.key.TileKey` — two user sessions
landing on the same tile, or a request racing a prefetch job — trigger
exactly one DBMS query whose result all callers share.  The table (and
its lock) is **hash-striped** into ``shards`` independent segments, so
concurrent sessions working on different tiles never contend on one
mutex; coalescing still holds per key, because one key always maps to
one stripe.  Stats counters live under their own small lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.cache.tile_cache import TileCache
from repro.tiles.key import TileKey
from repro.tiles.pyramid import TilePyramid
from repro.tiles.tile import DataTile


@dataclass(frozen=True)
class FetchOutcome:
    """How one request was served."""

    tile: DataTile
    hit: bool
    #: Virtual seconds the backend query took (0.0 on a hit).
    backend_seconds: float
    #: True when this miss piggybacked on another caller's in-flight
    #: query instead of issuing its own.
    coalesced: bool = False


class _PendingLoad:
    """One backend load in flight: a plain record until somebody waits.

    ``done`` is created by the first rider, under the stripe lock, so a
    load no second caller joins constructs no event, condition or lock.
    """

    __slots__ = ("outcome", "done")

    def __init__(self) -> None:
        #: ``(tile, backend_seconds)``, or the exception the owner raised.
        self.outcome: tuple[DataTile, float] | BaseException | None = None
        self.done: threading.Event | None = None


class CacheManager:
    """Owns the tile cache and all traffic to the backend DBMS."""

    def __init__(
        self,
        pyramid: TilePyramid,
        cache: TileCache | None = None,
        backend_delay_seconds: float = 0.0,
        shards: int = 1,
    ) -> None:
        if backend_delay_seconds < 0:
            raise ValueError(
                f"backend delay must be >= 0, got {backend_delay_seconds}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.pyramid = pyramid
        self.cache = cache if cache is not None else TileCache()
        #: Real wall-clock seconds each backend query sleeps, emulating a
        #: slow DBMS in real time (the virtual clock charges cost either
        #: way; this knob makes throughput benchmarks physical).
        self.backend_delay_seconds = backend_delay_seconds
        self.shards = shards
        self._locks = [threading.Lock() for _ in range(shards)]
        self._inflight: list[dict[TileKey, _PendingLoad]] = [
            {} for _ in range(shards)
        ]
        self._stats_lock = threading.Lock()
        # Serializes whole synchronous prefetch cycles: without it, one
        # thread's plan drops the tiles another's is still carrying.
        self._cycle_lock = threading.Lock()
        self.requests = 0
        self.hits = 0
        self.coalesced = 0
        self.prefetch_queries = 0

    def _stripe(
        self, key: TileKey
    ) -> tuple[threading.Lock, dict[TileKey, _PendingLoad]]:
        index = hash(key) % self.shards
        return self._locks[index], self._inflight[index]

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def fetch(self, key: TileKey) -> FetchOutcome:
        """Serve one user request, from cache if possible.

        Safe to call from many threads: a miss that finds another
        caller's query already in flight for the same key waits on that
        query instead of issuing its own.  Either way the tile is
        recorded into the recent LRU exactly once per call — a hit from
        the prefetch region *promotes* the tile (its prefetch slot is
        freed), a miss records via the owner's publish callback, and a
        coalesced waiter records its own request after the shared load.
        """
        with self._stats_lock:
            self.requests += 1
        cached = self.cache.lookup(key)
        if cached is not None:
            with self._stats_lock:
                self.hits += 1
            self.cache.record_request(cached)
            return FetchOutcome(tile=cached, hit=True, backend_seconds=0.0)
        tile, backend_seconds, owner = self._load(
            key, self.cache.lookup, self.cache.record_request
        )
        if not owner:
            with self._stats_lock:
                self.coalesced += 1
            # The owner already recorded the tile via its publish
            # callback; only non-owners (riders, and callers that found
            # the tile resident inside _load) record here, so every
            # path touches the recent LRU exactly once.
            self.cache.record_request(tile)
        return FetchOutcome(
            tile=tile,
            hit=False,
            backend_seconds=backend_seconds,
            coalesced=not owner,
        )

    def try_fetch(self, key: TileKey) -> FetchOutcome | None:
        """Serve one request *only if it is a hit*; None on a miss.

        The non-blocking face of :meth:`fetch`: a hit is counted and
        recorded exactly as :meth:`fetch` would (requests+1, hits+1,
        recent-LRU promotion), so ``try_fetch(key) or fetch(key)``
        double-counts — a miss probe touches **no** counters and leaves
        the full accounting to the :meth:`fetch` that follows.  This is
        what lets an event loop answer cache hits inline without ever
        blocking on the backend.
        """
        cached = self.cache.lookup(key)
        if cached is None:
            return None
        with self._stats_lock:
            self.requests += 1
            self.hits += 1
        self.cache.record_request(cached)
        return FetchOutcome(tile=cached, hit=True, backend_seconds=0.0)

    def peek(self, key: TileKey) -> DataTile | None:
        """Pure residency probe: the cached tile or None, **no** side
        effects — no request/hit counters, no LRU promotion.  This is
        the probe for opportunistic paths (degraded-fidelity ancestor
        lookup) that must not distort the cache statistics or the
        recency order the real request stream produces.
        """
        return self.cache.lookup(key)

    @property
    def inflight_count(self) -> int:
        """Backend loads currently in flight (all coalescing stripes).

        Read lock-free — a load signal, not an invariant; the overload
        detector only needs a magnitude, not an exact synchronized
        count.
        """
        return sum(len(stripe) for stripe in self._inflight)

    # ------------------------------------------------------------------
    # prefetch path
    # ------------------------------------------------------------------
    def prefetch(self, predictions: list[tuple[TileKey, str]]) -> int:
        """Fill the prefetch region with (tile, predicting model) pairs.

        The synchronous cycle, atomic with respect to other cycles.  The
        region ends up as clearing it and refilling it in prediction
        order would leave it — the predictions that get a slot, in that
        order — but it is reached as a diff: tiles already resident
        (either region) only claim their slot, a tile predicted again
        never leaves the cache on the way, and only a planned key
        resident nowhere is queried.  Returns the number of backend
        queries issued.

        The plan is made once: if a concurrent ``prefetch_one`` fills a
        shard mid-cycle, the planned keys of that shard still to come
        are queried and their refused tiles discarded — a waste bounded
        by the shard's capacity per cycle, accepted rather than
        re-planned for.
        """
        with self._cycle_lock:
            return self._run_prefetch_cycle(predictions)

    def _run_prefetch_cycle(self, predictions: list[tuple[TileKey, str]]) -> int:
        claim = self.cache.claim_prefetched
        store = self.cache.store_prefetched
        queries = 0
        for key, model in self.cache.begin_prefetch_cycle(predictions).items():
            # Probe and publish inside _load, so a racing fetch() never
            # finds a gap between the in-flight entry and residency.
            tile, _, owner = self._load(
                key,
                lambda planned: claim(planned, model),
                lambda fetched: store(fetched, model),
            )
            if owner:
                queries += 1
            elif owner is False:
                # The load's owner published for its own purpose; this
                # prediction's slot is still to be written.
                store(tile, model)
        with self._stats_lock:
            self.prefetch_queries += queries
        return queries

    def prefetch_one(self, key: TileKey, model: str) -> DataTile:
        """Pull one predicted tile into the prefetch region (background path).

        Coalesces with any in-flight load of the same key; a tile
        already resident is returned without a query.  Unlike the
        synchronous cycle, a full prefetch shard evicts its oldest
        entry rather than dropping the new tile.
        """
        resident = self.cache.lookup(key)
        if resident is not None:
            return resident
        tile, _, owner = self._load(
            key,
            self.cache.lookup,
            lambda fetched: self.cache.admit_prefetched(fetched, model),
        )
        if owner:
            with self._stats_lock:
                self.prefetch_queries += 1
        elif self.cache.lookup(key) is None:
            # A rider only admits when the owner's publish left the tile
            # non-resident (e.g. a racing eviction).  If the owner was a
            # fetch(), the tile already sits in the recent LRU — admitting
            # it here too would recreate the double-residency that
            # promote-on-hit eliminates.
            self.cache.admit_prefetched(tile, model)
        return tile

    # ------------------------------------------------------------------
    # coalesced backend loads
    # ------------------------------------------------------------------
    def _load(
        self, key: TileKey, probe, publish
    ) -> tuple[DataTile, float, bool | None]:
        """Load ``key`` from the backend, coalescing concurrent callers.

        Returns ``(tile, backend_seconds, owner)``: ``owner`` is True
        for the single caller that actually ran the DBMS query, False
        for a rider that waited on that query, and None when
        ``probe(key)`` — the one residency check, made under the
        stripe lock — found the tile already cached.  The owner calls
        ``publish(tile)`` to make the tile cache-resident *before* the
        in-flight entry is removed, so a late arrival always sees
        either the in-flight entry or the cached tile — never a gap
        that would trigger a duplicate query.  A rider gets the owner's
        tile, or is raised the owner's exception.
        """
        lock, inflight = self._stripe(key)
        with lock:
            resident = probe(key)
            if resident is not None:
                return resident, 0.0, None
            pending = inflight.get(key)
            owner = pending is None
            if owner:
                pending = inflight[key] = _PendingLoad()
            elif pending.done is None:
                pending.done = threading.Event()
        if not owner:
            pending.done.wait()
            if isinstance(pending.outcome, BaseException):
                raise pending.outcome
            return (*pending.outcome, False)
        try:
            outcome = self._query_backend(key)
            publish(outcome[0])
        except BaseException as exc:
            outcome = exc
            raise
        finally:
            with lock:
                pending.outcome = outcome
                del inflight[key]
            if pending.done is not None:
                pending.done.set()
        return (*outcome, True)

    def _query_backend(self, key: TileKey) -> tuple[DataTile, float]:
        """A real (charged) DBMS query for one tile."""
        if self.backend_delay_seconds > 0:
            time.sleep(self.backend_delay_seconds)
        return self.pyramid.fetch_tile_timed(key)

    @property
    def backend_can_block(self) -> bool:
        """Whether a backend query may wait outside the interpreter.

        Derived, not configured: every view sits in memory, so a query
        can wait only when a real delay is emulated
        (``backend_delay_seconds > 0``).  An event loop may run a query
        of a backend that cannot block inline; one that can must leave
        the loop.
        """
        return self.backend_delay_seconds > 0

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of user requests served from the middleware cache."""
        with self._stats_lock:
            return self.hits / self.requests if self.requests else 0.0

    def reset_stats(self) -> None:
        """Zero the counters (cache contents are untouched)."""
        with self._stats_lock:
            self.requests = 0
            self.hits = 0
            self.coalesced = 0
            self.prefetch_queries = 0

