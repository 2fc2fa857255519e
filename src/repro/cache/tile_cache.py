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

The cache holds residency, not tiles: a slot is a key and the model
that predicted it.  The bytes are the DBMS's — a tile handed out is
the entry of the pyramid's live tile table
(:meth:`~repro.tiles.pyramid.TilePyramid.tiles`), the very object a
miss loads.  A resident key the table no longer holds was written
since it was loaded: where a tile is handed out it loses its slots and
loads as a miss, since the new bytes are the DBMS's to give.

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

#: What a load is for.  A user request records a loaded key into the
#: recent region; a background prefetch admits a loaded key that is
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
    """Recent-LRU plus hash-striped per-model prefetch slots, of keys."""

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
        #: Per shard, least recently requested first: an ordered set of keys.
        self._recent: list[OrderedDict[TileKey, None]] = [OrderedDict() for _ in range(shards)]
        #: Per shard, in slot order: key -> predicting model.
        self._prefetched: list[dict[TileKey, str]] = [{} for _ in range(shards)]
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
    def lookup(self, key: TileKey, tiles: dict) -> DataTile | None:
        """A resident key's tile from ``tiles``, the pyramid's live tile
        table, the key left where it is; or None (see :meth:`_fresh`)."""
        index = self._shard(key)
        with self._locks[index]:
            return self._fresh(index, key, tiles)

    def __contains__(self, key: TileKey) -> bool:
        index = self._shard(key)
        with self._locks[index]:
            return key in self._prefetched[index] or key in self._recent[index]

    @property
    def inflight_count(self) -> int:
        """Backend loads currently in flight, all shards.

        Read lock-free — a load signal, not an invariant; the overload
        detector only needs a magnitude, not an exact synchronized
        count.
        """
        return sum(len(loads) for loads in self._inflight)

    def _fresh(self, index: int, key: TileKey, tiles: dict) -> DataTile | None:
        """``key``'s tile if it is resident and in ``tiles`` (lock held).
        A resident key not in ``tiles`` was written since it was loaded
        and loses its slots."""
        if key in self._prefetched[index] or key in self._recent[index]:
            entry = tiles.get(key)
            if entry is not None:
                return entry[0]
            self._prefetched[index].pop(key, None)
            self._recent[index].pop(key, None)
        return None

    # ------------------------------------------------------------------
    # the request and admission path
    # ------------------------------------------------------------------
    def promote(self, key: TileKey, tiles: dict) -> DataTile | None:
        """Serve a request from memory: :meth:`lookup`'s tile, its key
        recorded into the recent region (:meth:`_record`), or None."""
        index = hash(key) % self.shards
        with self._locks[index]:
            tile = self._fresh(index, key, tiles)
            if tile is not None:
                self._record(index, key)
            return tile

    def request(
        self, key: TileKey, query, tiles: dict, model: str | None = None
    ) -> tuple[DataTile, _PendingLoad | None, bool]:
        """Serve a request from memory or from ``query(key)`` — or, given
        the predicting ``model``, admit a predicted key into the prefetch
        region (the background and push path).

        One visit to the key's shard lock serves a resident key (see
        :meth:`_probe`) or registers the load of an absent one (or rides
        the one in flight).  The query runs outside the lock, and one
        more visit publishes and unregisters the load: a request records
        the key; an admission slots it, unlike the cycle making room in a
        full shard — its oldest slot goes — since concurrent sessions'
        jobs arrive continuously.  Returns ``(tile, pending, owner)``:
        ``pending`` is None on a hit, else the load (its ``outcome``
        ``(tile, backend_seconds)``); ``owner``: this call queried.
        """
        index = hash(key) % self.shards
        group = [[index, key, model, None, False]]
        purpose = REQUEST if model is None else ADMIT
        owned, ridden = [], []
        with self._locks[index]:
            tile = self._probe(index, group, purpose, owned, ridden, tiles)
        if tile is not None:
            return tile, None, False
        self._complete({index: group}, [index], owned, ridden, purpose, query)
        pending = group[0][3]
        return pending.outcome[0], pending, bool(owned)

    def _probe(self, index: int, group: list[list], purpose: str, owned, ridden, tiles=None):
        """The first visit to shard ``index`` (lock held), one path for
        request, admit and cycle.  A cycle carries a resident key into
        the shard's new prefetch region, its tile unread.  Otherwise a
        resident key is served as :meth:`_fresh` says — a request records
        it (:meth:`_record`), an admission leaves it be — or, dropped,
        loads as an absent key: its load is registered into ``owned``,
        or the one in flight ridden into ``ridden`` (its first rider
        creates ``done``).  Returns the tile served, or None.
        """
        region = self._prefetched[index]
        recent = self._recent[index]
        inflight = self._inflight[index]
        if purpose == CYCLE:
            carried = self._prefetched[index] = {}
        for entry in group:
            key = entry[1]
            if key in region or key in recent:
                if purpose == CYCLE:
                    carried[key] = entry[2]
                    continue
                # _fresh, inlined: a hit runs no frame of its own.
                served = tiles.get(key)
                if served is not None:
                    if purpose == REQUEST:
                        self._record(index, key)
                    return served[0]
                region.pop(key, None)
                recent.pop(key, None)
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

    def _record(self, index: int, key: TileKey) -> None:
        """A key the user actually requested enters shard ``index``'s
        recent region (lock held), promoted out of its prefetch region
        if it sat there."""
        recent = self._recent[index]
        recent[key] = None
        recent.move_to_end(key)
        if len(recent) > self._recent_capacities[index]:
            recent.popitem(last=False)
        self._prefetched[index].pop(key, None)

    # ------------------------------------------------------------------
    # the prefetch cycle
    # ------------------------------------------------------------------
    def load(self, predictions, query) -> int:
        """The synchronous cycle: bring the prefetch region in line with
        ``predictions``, ``(key, model)`` pairs.

        It first plans the slots as refilling an empty region in
        prediction order would: a key claims a slot while its shard has
        one, a repeated key keeps its slot under the later model, a key
        whose shard is full is skipped — or ends the plan, once every
        slot of the region is taken.  Then two visits per shard.  The
        first probes each planned key: a resident key is carried, its
        tile unread; an absent one is registered as a load this call
        owns, or ridden if one is in flight.  It replaces every shard's
        region with the carried keys, in plan order.  Then
        ``query(key)`` runs per owned key, outside any lock, in plan
        order, and the ridden loads are waited on.  The second visit, to the shards with a load,
        publishes the loaded keys, then unregisters the owned loads: a
        late arrival finds the load or the key, never a gap.  Each
        loaded key is slotted at its plan position while the shard has
        room, and a carried key a request promoted in between never
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
        of its riders raises too, the loaded keys are still published,
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
            slots: dict[TileKey, str] = {}
            for _, key, model, pending, _ in group:
                slot = region.pop(key, None)
                outcome = pending and pending.outcome
                if isinstance(outcome, tuple) and (slot is not None or room > 0):
                    room -= slot is None
                    slot = model
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
            self._record(index, key)
        elif key not in region and key not in self._recent[index]:
            # A rider admits only what its owner's publish left absent:
            # a key a request recorded stays in one region.
            if len(region) >= self._capacities[index]:
                del region[next(iter(region))]
            region[key] = model

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
            return self._prefetched[index].get(key)

    def model_usage(self) -> dict[str, int]:
        """Prefetched-tile counts per model."""
        usage: dict[str, int] = {}
        for index in range(self.shards):
            with self._locks[index]:
                for model in self._prefetched[index].values():
                    usage[model] = usage.get(model, 0) + 1
        return usage

    def clear(self) -> None:
        """Drop every resident key (loads in flight are left alone)."""
        for index in range(self.shards):
            with self._locks[index]:
                self._recent[index].clear()
                self._prefetched[index].clear()
