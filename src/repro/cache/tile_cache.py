"""The partitioned main-memory tile cache.

Two regions (Section 3, "Tile Cache Manager"):

- a **recent** region keeping the last ``n`` tiles the interface
  actually requested (plain LRU), and
- a **prefetch** region brought in line with the prediction engine's
  list after every request — a tile predicted again keeps its slot,
  only the superseded ones are dropped — tracked per recommendation
  model so the allocation strategy's quotas are observable.

When the user actually requests a prefetched tile, it is *promoted* —
moved into the recent LRU and its prefetch slot freed — so serving a
hit no longer leaves a dead slot that crowds out the next round's
predictions.  One deliberate exception remains: the synchronous cycle
*claims a slot* for a tile already in the recent LRU (the allocation
strategy's per-model quotas must stay observable, as in the paper), so
a key can sit in both regions at once.

``nbytes()`` is the payload the cache keeps reachable, each resident
key counted once.  It is not memory the cache owns: a tile's arrays
are the chunk store's own read-only blocks, shared with every other
holder of that tile.  Under concurrency it is a best-effort snapshot:
it reads one shard at a time, so a tile admitted or dropped while it
reads may or may not be in that reading (a racing promotion is still
counted once — the recent region takes the tile before its prefetch
slot lets go).

The cache is thread-safe, and **both regions are hash-striped** into
``shards`` independently locked segments: the prefetch region's shards
each own an equal slice of ``prefetch_capacity``, and the recent region
is a :class:`~repro.cache.lru.ShardedLRUCache` whose segments split
``recent_capacity`` the same way — so concurrent sessions' lookups,
admissions, and recency promotions stop serializing on one mutex.
``shards=1`` (the default) preserves the exact single-region semantics
the synchronous figure benchmarks replay.
Synchronous prefetching uses the cycle API (beginning a cycle plans
the slots and drops what the plan supersedes,
:meth:`claim_prefetched` carries a resident tile into its slot,
:meth:`store_prefetched` fills a slot from the backend); background
prefetching uses :meth:`admit_prefetched`, which evicts the oldest
prefetched tile in the key's shard instead of rejecting new work,
because background jobs from several sessions interleave rather than
arriving in clean per-request cycles.
"""

from __future__ import annotations

import threading

from repro.cache.lru import ShardedLRUCache
from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile


class TileCache:
    """Recent-LRU plus hash-striped per-model prefetch slots."""

    def __init__(
        self,
        recent_capacity: int = 10,
        prefetch_capacity: int = 9,
        shards: int = 1,
    ) -> None:
        if prefetch_capacity < 1:
            raise ValueError(
                f"prefetch capacity must be >= 1, got {prefetch_capacity}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.prefetch_capacity = prefetch_capacity
        # Every shard needs at least one slot to be useful.  Each region
        # clamps independently against its own capacity.
        self.shards = min(shards, prefetch_capacity)
        self._recent: ShardedLRUCache[TileKey, DataTile] = ShardedLRUCache(
            recent_capacity, shards=shards
        )
        self._locks = [threading.RLock() for _ in range(self.shards)]
        #: Per shard, in slot order: key -> (tile, predicting model).
        self._prefetched: list[dict[TileKey, tuple[DataTile, str]]] = [
            {} for _ in range(self.shards)
        ]
        # Capacity split as evenly as possible; early shards absorb the
        # remainder, so the slices always sum to prefetch_capacity.
        base, extra = divmod(prefetch_capacity, self.shards)
        self._capacities = [
            base + (1 if i < extra else 0) for i in range(self.shards)
        ]

    def _shard(self, key: TileKey) -> int:
        return hash(key) % self.shards

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup(self, key: TileKey) -> DataTile | None:
        """Find a tile in either region (None on full miss)."""
        index = self._shard(key)
        with self._locks[index]:
            slot = self._prefetched[index].get(key)
        if slot is not None:
            return slot[0]
        return self._recent.peek(key)

    def __contains__(self, key: TileKey) -> bool:
        index = self._shard(key)
        with self._locks[index]:
            if key in self._prefetched[index]:
                return True
        return key in self._recent

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def record_request(self, tile: DataTile) -> None:
        """A tile the user actually requested enters the recent region.

        If the tile sat in the prefetch region, it is promoted: the
        recent LRU takes ownership and the prefetch slot is freed for
        the next round's predictions (recent-first, so a concurrent
        lookup sees the tile resident throughout, never a gap).
        """
        self._recent.put(tile.key, tile)
        index = self._shard(tile.key)
        with self._locks[index]:
            self._prefetched[index].pop(tile.key, None)

    def begin_prefetch_cycle(
        self, predictions: list[tuple[TileKey, str]]
    ) -> dict[TileKey, str]:
        """Plan the next round's slots and drop the tiles it supersedes.

        The paper re-evaluates allocations after every request.  The
        plan is what refilling an empty region in prediction order
        would hold: a key claims a slot while its shard has one, a
        repeated key keeps its slot under the later model, and a key
        whose shard is full is skipped — or ends the plan, when every
        slot of the whole region is taken.  Resident tiles the plan
        names stay where they are (the cycle moves each into slot order
        with :meth:`claim_prefetched`); the rest are dropped.  Returns
        ``{key: model}`` in slot order."""
        plan: dict[TileKey, str] = {}
        taken = [0] * self.shards
        for key, model in predictions:
            if key not in plan:
                index = self._shard(key)
                if taken[index] >= self._capacities[index]:
                    if len(plan) >= self.prefetch_capacity:
                        break
                    continue
                taken[index] += 1
            plan[key] = model
        for index in range(self.shards):
            with self._locks[index]:
                region = self._prefetched[index]
                for key in [key for key in region if key not in plan]:
                    del region[key]
        return plan

    def claim_prefetched(self, key: TileKey, model: str) -> DataTile | None:
        """Carry a resident tile into the next slot of its shard.

        The cycle's one probe and one slot write for a planned key: a
        tile found in the prefetch region is re-inserted last under
        ``model`` without leaving its shard lock, so a concurrent
        lookup never misses it; one found only in the recent LRU also
        claims a slot (if its shard has one).  None when the key is
        resident nowhere."""
        index = self._shard(key)
        with self._locks[index]:
            region = self._prefetched[index]
            slot = region.pop(key, None)
            tile = slot[0] if slot is not None else self._recent.peek(key)
            if tile is not None and len(region) < self._capacities[index]:
                region[key] = (tile, model)
            return tile

    def store_prefetched(self, tile: DataTile, model: str) -> bool:
        """Add a predicted tile on behalf of ``model``.

        Idempotent for tiles already in the region (their slot is
        re-claimed); returns False (and stores nothing) once the key's
        shard is full.
        """
        index = self._shard(tile.key)
        with self._locks[index]:
            region = self._prefetched[index]
            if tile.key not in region and (
                len(region) >= self._capacities[index]
            ):
                return False
            region[tile.key] = (tile, model)
            return True

    def admit_prefetched(self, tile: DataTile, model: str) -> TileKey | None:
        """Add a predicted tile, evicting the shard's oldest if full.

        The background scheduler's admission path: unlike the cycle API,
        a full shard makes room rather than rejecting the tile, since
        concurrent sessions' jobs arrive continuously.  Returns the
        evicted key, if any.
        """
        index = self._shard(tile.key)
        with self._locks[index]:
            region = self._prefetched[index]
            evicted: TileKey | None = None
            if tile.key in region:
                # Refresh FIFO position: a re-predicted tile is fresh again.
                del region[tile.key]
            elif len(region) >= self._capacities[index]:
                evicted = next(iter(region))
                del region[evicted]
            region[tile.key] = (tile, model)
            return evicted

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def prefetched_keys(self) -> list[TileKey]:
        """Keys currently in the prefetch region (insertion order,
        concatenated shard by shard)."""
        keys: list[TileKey] = []
        for index in range(self.shards):
            with self._locks[index]:
                keys.extend(self._prefetched[index])
        return keys

    @property
    def recent_keys(self) -> list[TileKey]:
        """Keys in the recent region — least recent first within each
        LRU segment, concatenated segment by segment (global recency
        order only when ``shards == 1``, the figure-replay default)."""
        return self._recent.keys()

    def attribution(self, key: TileKey) -> str | None:
        """Which model's allocation paid for a prefetched tile."""
        index = self._shard(key)
        with self._locks[index]:
            slot = self._prefetched[index].get(key)
        return slot[1] if slot is not None else None

    def model_usage(self) -> dict[str, int]:
        """Prefetched-tile counts per model."""
        usage: dict[str, int] = {}
        for index in range(self.shards):
            with self._locks[index]:
                for _, model in self._prefetched[index].values():
                    usage[model] = usage.get(model, 0) + 1
        return usage

    def nbytes(self) -> int:
        """Payload bytes of the tiles resident in either region, each
        key counted once (see the module notes)."""
        sizes: dict[TileKey, int] = {}
        for index in range(self.shards):
            with self._locks[index]:
                for key, (tile, _) in self._prefetched[index].items():
                    sizes[key] = tile.nbytes
        for key in self._recent.keys():
            if key not in sizes and (tile := self._recent.peek(key)) is not None:
                sizes[key] = tile.nbytes
        return sum(sizes.values())

    def clear(self) -> None:
        """Drop everything."""
        self._recent.clear()
        for index in range(self.shards):
            with self._locks[index]:
                self._prefetched[index].clear()
