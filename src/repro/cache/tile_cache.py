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

The cache is thread-safe and **hash-striped**: a key lives in shard
``hash(key) % shards``, whose one lock holds the key's recent entry,
prefetch slot and in-flight backend load, so every probe takes one
lock.  There are ``min(shards, prefetch_capacity, recent_capacity)``
shards, so each has a slot in both regions; each region's capacity is
split over them, early shards absorbing the remainder, and evicts
within the key's shard.  ``shards=1`` (the default) keeps the
single-region semantics the figure benchmarks replay.  Concurrent
backend loads of one key are **coalesced** into one query.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile

#: What a load is for.  A user request records a loaded tile into the
#: recent region; a background prefetch admits a loaded tile that is
#: still absent; the synchronous cycle replaces the prefetch region.
REQUEST, ADMIT, CYCLE = "request", "admit", "cycle"


class _PendingLoad:
    """One backend load in flight: a plain record until somebody waits.

    Its fields start as class defaults, so registering a load runs no
    Python ``__init__``.  ``done`` is created by the first rider, under
    the shard lock, so a load no second caller joins constructs no
    event, condition or lock.
    """

    #: ``(tile, backend_seconds)``, or the exception the owner raised.
    outcome: tuple[DataTile, float] | BaseException | None = None
    done: threading.Event | None = None


class TileCache:
    """Recent-LRU plus hash-striped per-model prefetch slots."""

    def __init__(
        self, recent_capacity: int = 10, prefetch_capacity: int = 9, shards: int = 1
    ) -> None:
        for name, value in (
            ("recent capacity", recent_capacity),
            ("prefetch capacity", prefetch_capacity),
            ("shards", shards),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.prefetch_capacity = prefetch_capacity
        self.shards = shards = min(shards, prefetch_capacity, recent_capacity)
        self._locks = [threading.RLock() for _ in range(shards)]
        #: Per shard, least recently requested first: key -> tile.
        self._recent = [OrderedDict() for _ in range(shards)]
        #: Per shard, in slot order: key -> (tile, predicting model).
        self._prefetched = [{} for _ in range(shards)]
        #: Per shard: the backend loads in flight for its keys.
        self._inflight: list[dict[TileKey, _PendingLoad]] = [{} for _ in range(shards)]
        self._recent_capacities, self._capacities = (
            [total // shards + (i < total % shards) for i in range(shards)]
            for total in (recent_capacity, prefetch_capacity)
        )

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
            return slot[0] if slot is not None else self._recent[index].get(key)

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
    # the request path
    # ------------------------------------------------------------------
    def promote(self, key: TileKey) -> DataTile | None:
        """Serve a request from memory: the resident tile, recorded
        into the recent region (promoted out of the prefetch region if
        it sat there), or None, an absent key left alone."""
        index = hash(key) % self.shards
        with self._locks[index]:
            slot = self._prefetched[index].get(key)
            tile = slot[0] if slot is not None else self._recent[index].get(key)
            if tile is not None:
                self._record(index, tile)
            return tile

    def request(self, key: TileKey, query) -> tuple[DataTile, _PendingLoad | None, bool]:
        """Serve a request, from memory or from ``query(key)``.

        One visit to the key's shard lock serves a resident tile as
        :meth:`promote` does, or registers the load of an absent one (or
        rides the one in flight).  The query runs outside the lock, and
        one more visit records the loaded tile into the recent region
        and unregisters the load.  Returns ``(tile, pending, owner)``:
        ``pending`` is None on a hit, else the load (its ``outcome``
        ``(tile, backend_seconds)``); ``owner``: this call queried.
        """
        return self._one(key, None, REQUEST, query)

    def _one(self, key: TileKey, model: str | None, purpose: str, query):
        """:meth:`request` or :meth:`admit`, as ``purpose`` says."""
        index = hash(key) % self.shards
        group = [[index, key, model, None, False]]
        owned, ridden = [], []
        with self._locks[index]:
            tile = self._probe(index, group, purpose, owned, ridden)
        if tile is not None:
            return tile, None, False
        self._complete({index: group}, [index], owned, ridden, purpose, query)
        pending = group[0][3]
        return pending.outcome[0], pending, bool(owned)

    def _probe(self, index: int, group: list[list], purpose: str, owned, ridden):
        """The first visit to shard ``index`` (lock held), one path for
        request, admit and cycle.  A resident key is served — a request
        records it (:meth:`_record`), an admission leaves it be — or, in
        a cycle, carried into the shard's new prefetch region.  An absent
        key's load is registered into ``owned``, or the one in flight
        ridden into ``ridden`` (its first rider creates ``done``).
        Returns the tile served, or None.
        """
        region = self._prefetched[index]
        recent = self._recent[index]
        inflight = self._inflight[index]
        if purpose == CYCLE:
            carried = self._prefetched[index] = {}
        for entry in group:
            key = entry[1]
            slot = region.get(key)
            tile = slot[0] if slot is not None else recent.get(key)
            if tile is not None:
                if purpose == CYCLE:
                    carried[key] = (tile, entry[2])
                    continue
                if purpose == REQUEST:
                    self._record(index, tile)
                return tile
            pending = inflight.get(key)
            if pending is None:
                entry[3] = inflight[key] = _PendingLoad()
                entry[4] = True
                owned.append(entry)
            else:
                if pending.done is None:
                    pending.done = threading.Event()
                entry[3] = pending
                ridden.append(entry)
        return None

    def record_request(self, tile: DataTile) -> None:
        """A tile the user actually requested enters the recent region,
        promoted out of the prefetch region if it sat there."""
        index = self._shard(tile.key)
        with self._locks[index]:
            self._record(index, tile)

    def _record(self, index: int, tile: DataTile) -> None:
        """:meth:`record_request`'s work, shard ``index``'s lock held."""
        key = tile.key
        recent = self._recent[index]
        recent[key] = tile
        recent.move_to_end(key)
        if len(recent) > self._recent_capacities[index]:
            recent.popitem(last=False)
        self._prefetched[index].pop(key, None)

    # ------------------------------------------------------------------
    # the prefetch path
    # ------------------------------------------------------------------
    def admit(self, key: TileKey, model: str, query) -> tuple[DataTile, _PendingLoad | None, bool]:
        """Bring one predicted key into the prefetch region (the
        background and push path), from memory or from ``query(key)``.

        Shaped like :meth:`request`: one visit returns a tile resident
        in either region, left where it is, or registers (or rides) the
        load of an absent one.  The second admits the loaded tile and
        unregisters the load.  Unlike the cycle, a full shard makes
        room — its oldest slot goes — since concurrent sessions' jobs
        arrive continuously; a rider admits only what its owner's
        publish left absent.  Returns what :meth:`request` returns.
        """
        return self._one(key, model, ADMIT, query)

    def load(self, predictions, query) -> int:
        """The synchronous cycle: bring the prefetch region in line with
        ``predictions``, ``(key, model)`` pairs.

        It first plans the slots as refilling an empty region in
        prediction order would: a key claims a slot while its shard has
        one, a repeated key keeps its slot under the later model, a key
        whose shard is full is skipped — or ends the plan, once every
        slot of the region is taken.  Then two visits per shard.  The
        first probes each planned key: a resident tile is carried; an
        absent one is registered as a load this call owns, or ridden if
        one is in flight.  It replaces every shard's region with the
        carried tiles, in plan order.  Then ``query(key)`` runs per
        owned key, outside any lock, in plan order, and the ridden loads
        are waited on.  The second visit, to the shards with a load,
        publishes the loaded tiles, then unregisters the owned loads: a
        late arrival finds the load or the tile, never a gap.  Each
        loaded tile is slotted at its plan position while the shard has
        room, and a carried tile a request promoted in between never
        comes back.

        Returns the number of queries run.  A query's error propagates
        as :meth:`_complete` says.
        """
        shards = self.shards
        plan: dict[TileKey, list] = {}
        # One empty group per shard, built in C (a 3.11 comprehension is a frame).
        groups: list[list[list]] = list(map(list, [()] * shards))
        for key, model in predictions:
            entry = plan.get(key)
            if entry is not None:
                entry[2] = model
                continue
            index = hash(key) % shards if shards > 1 else 0
            group = groups[index]
            if len(group) >= self._capacities[index]:
                if len(plan) >= self.prefetch_capacity:
                    break
                continue
            plan[key] = entry = [index, key, model, None, False]
            group.append(entry)
        owned: list[list] = []
        ridden: list[list] = []
        touched: list[int] = []
        for index, group in enumerate(groups):
            with self._locks[index]:
                loads = len(owned) + len(ridden)
                self._probe(index, group, CYCLE, owned, ridden)
                if len(owned) + len(ridden) > loads:
                    touched.append(index)
        if not touched:
            return 0
        if len(touched) > 1:
            owned = [entry for entry in plan.values() if entry[4]]  # plan order
        self._complete(groups, touched, owned, ridden, CYCLE, query)
        return len(owned)

    def _complete(self, groups, touched, owned, ridden, purpose, query) -> None:
        """Run the ``owned`` loads and wait on the ``ridden`` ones, then
        publish to each ``touched`` shard and unregister, in one visit.

        When a query raises, the owned loads not yet run are abandoned:
        every owned load is unregistered with that exception, which each
        of its riders raises too, the loaded tiles are still published,
        and the exception propagates — as does a ridden load's.
        """
        error: BaseException | None = None
        try:
            for entry in owned:
                entry[3].outcome = query(entry[1])
            for _, _, _, pending, _ in ridden:
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
                for shard, key, _, pending, _ in owned:
                    if shard == index:
                        if not isinstance(pending.outcome, tuple):
                            pending.outcome = error
                        del inflight[key]
                        if pending.done is not None:
                            pending.done.set()
        if error is not None:
            raise error

    def _publish(self, index: int, group: list[list], purpose: str) -> None:
        """The second visit's writes to shard ``index`` (lock held)."""
        region = self._prefetched[index]
        if purpose == CYCLE:
            room = self._capacities[index] - len(region)
            slots: dict[TileKey, tuple[DataTile, str]] = {}
            for _, key, model, pending, _ in group:
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
        ((_, key, model, pending, _),) = group  # request or admit: one key
        if not isinstance(pending.outcome, tuple):
            return
        if purpose == REQUEST:
            self._record(index, pending.outcome[0])
        elif key not in region and key not in self._recent[index]:
            # A rider admits only what its owner's publish left absent:
            # a tile a request recorded stays in one region.
            if len(region) >= self._capacities[index]:
                del region[next(iter(region))]
            region[key] = (pending.outcome[0], model)

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
        shard, concatenated shard by shard (global recency order only
        when ``shards == 1``, the figure-replay default)."""
        keys: list[TileKey] = []
        for index in range(self.shards):
            with self._locks[index]:
                keys.extend(self._recent[index])
        return keys

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
        total = 0
        for index in range(self.shards):
            with self._locks[index]:
                sizes = {key: t.nbytes for key, t in self._recent[index].items()}
                sizes.update((key, s[0].nbytes) for key, s in self._prefetched[index].items())
            total += sum(sizes.values())
        return total

    def clear(self) -> None:
        """Drop every resident tile (loads in flight are left alone)."""
        for index in range(self.shards):
            with self._locks[index]:
                self._recent[index].clear()
                self._prefetched[index].clear()
