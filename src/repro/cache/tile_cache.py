"""The partitioned main-memory tile cache and its in-flight loads.

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
key counted once — a best-effort snapshot under concurrency, read one
shard at a time.  It is not memory the cache owns: a tile's arrays are
the chunk store's own read-only blocks.

The cache is thread-safe and **hash-striped** into ``shards`` segments,
each owning an equal slice of ``prefetch_capacity``.  A shard's one
lock holds its prefetch slots, the backend loads in flight for its keys
and every probe and update of the recent region for its keys (a
:class:`~repro.cache.lru.ShardedLRUCache`, entered under the shard
lock: shard, then segment, never the reverse).  ``shards=1`` (the
default) keeps the single-region semantics the figure benchmarks
replay.  Every backend load goes through :meth:`TileCache.load`, which
**coalesces** concurrent loads of one key into one query.
"""

from __future__ import annotations

import threading
from collections.abc import ValuesView

from repro.cache.lru import ShardedLRUCache
from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile

#: What :meth:`TileCache.load` loads for.  A user request promotes a
#: resident tile and records a loaded one into the recent region; a
#: background prefetch admits a loaded tile that is still absent; the
#: synchronous cycle replaces the prefetch region with its plan.
REQUEST, ADMIT, CYCLE = "request", "admit", "cycle"


class _PendingLoad:
    """One backend load in flight: a plain record until somebody waits.

    ``done`` is created by the first rider, under the shard lock, so a
    load no second caller joins constructs no event, condition or lock.
    """

    __slots__ = ("outcome", "done")

    def __init__(self) -> None:
        #: ``(tile, backend_seconds)``, or the exception the owner raised.
        self.outcome: tuple[DataTile, float] | BaseException | None = None
        self.done: threading.Event | None = None


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
        #: Per shard: the backend loads in flight for its keys.
        self._inflight: list[dict[TileKey, _PendingLoad]] = [
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
            return slot[0] if slot is not None else self._recent.peek(key)

    def __contains__(self, key: TileKey) -> bool:
        return self.lookup(key) is not None

    @property
    def inflight_count(self) -> int:
        """Backend loads currently in flight, all shards.

        Read lock-free — a load signal, not an invariant; the overload
        detector only needs a magnitude, not an exact synchronized
        count.
        """
        return sum(len(loads) for loads in self._inflight)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def promote(self, key: TileKey) -> DataTile | None:
        """Serve a request from memory: the resident tile, or None.

        A tile found is recorded into the recent region; one that sat
        in the prefetch region is promoted, its slot freed for the next
        round's predictions.
        """
        index = hash(key) % self.shards
        with self._locks[index]:
            slot = self._prefetched[index].pop(key, None)
            if slot is None:
                return self._recent.get(key)
            self._recent.put(key, slot[0])
            return slot[0]

    def record_request(self, tile: DataTile) -> None:
        """A tile the user actually requested enters the recent region.

        If the tile sat in the prefetch region, it is promoted: the
        recent LRU takes ownership and the prefetch slot is freed for
        the next round's predictions.
        """
        index = self._shard(tile.key)
        with self._locks[index]:
            self._recent.put(tile.key, tile)
            self._prefetched[index].pop(tile.key, None)

    def admit_prefetched(self, tile: DataTile, model: str) -> TileKey | None:
        """Add a predicted tile, evicting the shard's oldest if full.

        The background scheduler's admission rule: unlike the cycle, a
        full shard makes room rather than rejecting the tile, since
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
    # coalesced backend loads
    # ------------------------------------------------------------------
    def load(self, predictions, purpose: str, query) -> tuple[ValuesView[list], int]:
        """Bring the keys of ``predictions``, ``(key, model)`` pairs, in.

        ``CYCLE`` first plans the slots as refilling an empty region in
        prediction order would: a key claims a slot while its shard has
        one, a repeated key keeps its slot under the later model, a key
        whose shard is full is skipped — or ends the plan, once every
        slot of the region is taken.  Then two visits per shard holding
        a planned key.  The first probes each key: a resident tile is
        served (``REQUEST`` promotes it, ``CYCLE`` carries it); an
        absent one is registered as a load this call owns, or ridden if
        one is in flight.  ``CYCLE`` visits every shard and replaces its
        region with the carried tiles, in plan order.  Then
        ``query(key)`` runs per owned key, outside any lock, in plan
        order, and the ridden loads are waited on.  The second visit
        publishes the loaded tiles, then unregisters the owned loads:
        a late arrival finds the load or the tile, never a gap.
        ``CYCLE`` slots each loaded tile at its plan position while the
        shard has room, and never brings back a carried tile a request
        promoted in between.

        Returns each planned key, in plan order, as ``[shard, key,
        model, pending, owner, tile]`` (``pending`` None: ``tile`` was
        resident; else the load, its ``outcome`` ``(tile,
        backend_seconds)``), and the number of queries run.  When a
        query raises, the owned loads not yet run are abandoned: every
        owned load is unregistered with that exception, which each of
        its riders raises too, the loaded tiles are still published,
        and the exception propagates — as does a ridden load's.
        """
        cycle = purpose == CYCLE
        shards = self.shards
        plan: dict[TileKey, list] = {}
        groups: list[list[list]] = [[] for _ in range(shards)]
        for key, model in predictions:
            entry = plan.get(key)
            if entry is not None:
                entry[2] = model
                continue
            index = hash(key) % shards if shards > 1 else 0
            group = groups[index]
            if cycle and len(group) >= self._capacities[index]:
                if len(plan) >= self.prefetch_capacity:
                    break
                continue
            plan[key] = entry = [index, key, model, None, False, None]
            group.append(entry)
        owned: list[list] = []
        ridden: list[list] = []
        touched: list[int] = []
        for index, group in enumerate(groups):
            if not (group or cycle):
                continue
            with self._locks[index]:
                region = self._prefetched[index]
                inflight = self._inflight[index]
                if cycle:
                    carried = self._prefetched[index] = {}
                loads = len(owned) + len(ridden)
                found = self._recent.peek_many([entry[1] for entry in group])
                for entry, tile in zip(group, found):
                    key = entry[1]
                    slot = region.get(key)
                    if slot is not None:
                        tile = slot[0]
                    if tile is not None:
                        entry[5] = tile
                        if cycle:
                            carried[key] = (tile, entry[2])
                        elif purpose == REQUEST:
                            self.record_request(tile)
                        continue
                    pending = entry[3] = inflight.get(key)
                    if pending is None:
                        entry[3] = inflight[key] = _PendingLoad()
                        entry[4] = True
                        owned.append(entry)
                        continue
                    if pending.done is None:
                        pending.done = threading.Event()
                    ridden.append(entry)
                if len(owned) + len(ridden) > loads:
                    touched.append(index)
        if not touched:
            return plan.values(), 0
        if len(touched) > 1:
            owned = [entry for entry in plan.values() if entry[4]]  # plan order
        error: BaseException | None = None
        try:
            for entry in owned:
                entry[3].outcome = query(entry[1])
            for _, _, _, pending, _, _ in ridden:
                pending.done.wait()
                if isinstance(pending.outcome, BaseException):
                    raise pending.outcome
        except BaseException as exc:
            error = exc
        for index in touched:
            with self._locks[index]:
                try:
                    self._publish(index, groups[index], purpose)
                except BaseException as exc:
                    error = error or exc
                inflight = self._inflight[index]
                for shard, key, _, pending, _, _ in owned:
                    if shard == index:
                        if not isinstance(pending.outcome, tuple):
                            pending.outcome = error
                        del inflight[key]
                        if pending.done is not None:
                            pending.done.set()
        if error is not None:
            raise error
        return plan.values(), len(owned)

    def _publish(self, index: int, group: list[list], purpose: str) -> None:
        """The second visit's writes to shard ``index`` (lock held)."""
        region = self._prefetched[index]
        if purpose == CYCLE:
            room = self._capacities[index] - len(region)
            slots: dict[TileKey, tuple[DataTile, str]] = {}
            for _, key, model, pending, _, _ in group:
                slot = region.pop(key, None)
                outcome = pending and pending.outcome
                if isinstance(outcome, tuple) and (slot or room > 0):
                    room -= slot is None
                    slot = (outcome[0], model)
                if slot is not None:
                    slots[key] = slot
            # Whatever a background admission slotted in between goes last.
            slots.update(region)
            self._prefetched[index] = slots
            return
        for _, key, model, pending, _, _ in group:
            if pending is None or not isinstance(pending.outcome, tuple):
                continue
            tile = pending.outcome[0]
            if purpose == REQUEST:
                self.record_request(tile)
            elif key not in region and self._recent.peek(key) is None:
                # A rider admits only what its owner's publish left
                # absent: a tile a request recorded stays in one region.
                self.admit_prefetched(tile, model)

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
        """Drop every resident tile (loads in flight are left alone)."""
        self._recent.clear()
        for index in range(self.shards):
            with self._locks[index]:
                self._prefetched[index].clear()
