"""The cache manager: serves tile requests, executes prefetches.

On a request, the manager answers from the middleware cache when it can
(a *hit*, main-memory speed: the pyramid's live tile table holds the
tile) and falls back to a real DBMS query otherwise (a *miss*, ~50x
slower on the paper's testbed), as for a key written since it was
loaded: its new bytes are the DBMS's to give.  After the
prediction engine produces its ordered prefetch list, the manager brings
the prefetch region in line with it — synchronously via :meth:`prefetch`
(the paper's single-user loop), which keeps every tile that is still
predicted and queries the DBMS only for the ones resident nowhere, or
one tile at a time via :meth:`prefetch_one` when a background scheduler
drives the work.

The manager is thread-safe.  Its loads are the cache's coalesced
loads, so concurrent misses on one :class:`~repro.tiles.key.TileKey` —
two sessions on one tile, a request racing a prefetch job — run one
DBMS query; a :meth:`CacheManager.fetch` or :meth:`prefetch_one` hit
takes one shard-lock visit and a miss two.  Stats counters live under
their own small lock.
"""

from __future__ import annotations

import threading
import time
from typing import NamedTuple

from repro.cache.tile_cache import TileCache
from repro.tiles.key import TileKey
from repro.tiles.pyramid import TilePyramid
from repro.tiles.tile import DataTile


class FetchOutcome(NamedTuple):
    """How one request was served.

    A read-only ``NamedTuple``, its fields read in C; it equals the
    plain tuple of its fields.
    """

    tile: DataTile
    hit: bool
    #: Virtual seconds the backend query took (0.0 on a hit).
    backend_seconds: float
    #: True when this miss piggybacked on another caller's in-flight
    #: query instead of issuing its own.
    coalesced: bool = False


class CacheManager:
    """Owns the tile cache and all traffic to the backend DBMS."""

    def __init__(
        self,
        pyramid: TilePyramid,
        cache: TileCache | None = None,
        backend_delay_seconds: float = 0.0,
    ) -> None:
        if backend_delay_seconds < 0:
            raise ValueError(
                f"backend delay must be >= 0, got {backend_delay_seconds}"
            )
        self.pyramid = pyramid
        self.cache = cache if cache is not None else TileCache()
        #: Real wall-clock seconds each backend query sleeps, emulating a
        #: slow DBMS in real time (the virtual clock charges cost either
        #: way; this knob makes throughput benchmarks physical).
        self.backend_delay_seconds = backend_delay_seconds
        self._stats_lock = threading.Lock()
        # Serializes whole synchronous prefetch cycles: without it, one
        # thread's plan drops the tiles another's is still carrying.
        self._cycle_lock = threading.Lock()
        self.requests = 0
        self.hits = 0
        self.coalesced = 0
        self.prefetch_queries = 0

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def fetch(self, key: TileKey) -> FetchOutcome:
        """Serve one user request, from cache if possible.

        Safe to call from many threads.  The probe that finds the key
        absent (or written since it was loaded) registers its load, or
        rides the one in flight; one more visit publishes it.  The tile is recorded into the
        recent LRU exactly once per call — a hit from the prefetch
        region *promotes* it (its slot is freed), a miss records at its
        load's publish, owner and rider alike.
        """
        try:
            tile, pending, owner = self.cache.request(key, self._query_backend, self.pyramid.tiles())
        except BaseException:
            with self._stats_lock:
                self.requests += 1
            raise
        with self._stats_lock:
            self.requests += 1
            if pending is None:
                self.hits += 1
            elif not owner:
                self.coalesced += 1
        if pending is None:
            return FetchOutcome(tile, True, 0.0)
        return FetchOutcome(tile, False, pending.outcome[1], not owner)

    def try_fetch(self, key: TileKey) -> FetchOutcome | None:
        """Serve one request *only if it is a hit*; None on a miss.

        A hit is counted and recorded exactly as :meth:`fetch` would; a
        miss is a pure probe — no counters, no load registered — so
        ``try_fetch(key) or fetch(key)`` counts one request either way.
        Its one caller is the socket server over a backend that can
        block: it answers a hit on its event loop and sends only a miss
        to its bridge pool.  Over a backend that cannot block the server
        calls :meth:`fetch` alone, so a miss probes the cache once.
        """
        cached = self.cache.promote(key, self.pyramid.tiles())
        if cached is None:
            return None
        with self._stats_lock:
            self.requests += 1
            self.hits += 1
        return FetchOutcome(cached, True, 0.0)

    def peek(self, key: TileKey) -> DataTile | None:
        """Pure residency probe: the cached tile or None — no
        request/hit counters, no LRU promotion; a key written since it
        was loaded is None, and loses its slots.  This is the probe for
        opportunistic paths (degraded-fidelity ancestor lookup) that
        must not distort the cache statistics or the recency order the
        real request stream produces.
        """
        return self.cache.lookup(key, self.pyramid.tiles())

    @property
    def inflight_count(self) -> int:
        """Backend loads currently in flight (a lock-free load signal)."""
        return self.cache.inflight_count

    # ------------------------------------------------------------------
    # prefetch path
    # ------------------------------------------------------------------
    def prefetch(self, predictions: list[tuple[TileKey, str]]) -> int:
        """Fill the prefetch region with (tile, predicting model) pairs.

        The synchronous cycle, atomic with respect to other cycles.  The
        region ends up as clearing it and refilling it in prediction
        order would leave it, but reached as a diff: resident tiles
        (either region) keep or claim their slot, a tile predicted again
        never leaves the cache on the way, and only a planned key
        resident nowhere is queried.  Returns the number of queries.
        The plan is made once: tiles a concurrent ``prefetch_one``
        leaves no room for are discarded, not re-planned for.
        """
        with self._cycle_lock:
            queries = self.cache.load(predictions, self._query_backend, self.pyramid.tiles)
        with self._stats_lock:
            self.prefetch_queries += queries
        return queries

    def prefetch_one(self, key: TileKey, model: str) -> DataTile:
        """Pull one predicted tile into the prefetch region (background path).

        Coalesces with any in-flight load of the same key; a tile
        already resident is returned without a query, in one shard-lock
        visit (a miss takes two).  Unlike the synchronous cycle, a full
        prefetch shard evicts its oldest entry rather than dropping the
        new tile.
        """
        tile, _, owner = self.cache.request(key, self._query_backend, self.pyramid.tiles(), model)
        if owner:
            with self._stats_lock:
                self.prefetch_queries += 1
        return tile

    # ------------------------------------------------------------------
    # backend
    # ------------------------------------------------------------------
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

