"""Live cross-session tile popularity (the shared hotspot model).

The paper's multi-user scheme (Section 6.2) shares *tiles* across
sessions; this module shares the *signal*: every session's request
stream feeds one :class:`SharedHotspotRegistry`, a thread-safe
popularity model over :class:`~repro.tiles.key.TileKey` that prediction
(live :class:`~repro.recommenders.hotspot.HotspotRecommender`) and
prefetch scheduling (rank boost for globally hot tiles) consult in real
time.  User A exploring a region teaches the system what user B is
likely to want next — the cross-client coordination Khameleon-style
continuous prefetching and Kyrix's shared backend exploit.

Design constraints, in order:

- **Determinism.**  ``snapshot(top_n)`` orders entries by
  ``(count desc, key asc)``; with no decay (the default) the snapshot
  is a pure function of the *multiset* of observations — any
  interleaving of concurrent observers yields the same top-N, and the
  shard count never changes the result (per-key arithmetic is
  independent of shard membership).
- **Current, not cumulative.**  Counts decay exponentially on a
  *virtual monotonic tick*, never wall time: each ``advance()`` by the
  owner multiplies every count by ``decay`` (applied lazily, per key),
  so hotspots track current traffic and a burst from last epoch fades.
  Tests and replays drive the tick explicitly; a live deployment can
  advance it from a timer or a request counter.
- **Concurrency.**  Counters are hash-sharded: each shard owns an
  independent lock, so concurrent sessions observing different tiles do
  not serialize on one mutex (the same striping discipline as the
  middleware cache).
"""

from __future__ import annotations

import heapq
import threading
from collections.abc import Iterable

from repro.tiles.key import TileKey

#: How many of the registry's hottest tiles the prefetch and push
#: schedulers treat as globally hot.
HOT_SET_SIZE = 8


def _hotness(item: tuple[TileKey, float]) -> tuple[float, TileKey]:
    """Snapshot sort key: count descending, key ascending."""
    return (-item[1], item[0])


class SharedHotspotRegistry:
    """Decaying, sharded request-popularity counters keyed by tile.

    All public methods are thread-safe.  ``decay`` is the factor every
    count is multiplied by per elapsed tick (1.0 = never forget, the
    default — and the only setting whose snapshots are exactly
    interleaving-independent under concurrent ``advance()``).

    ``prune_epsilon`` bounds memory under decaying traffic: a counter
    whose decayed weight falls below it is *dropped* instead of being
    carried forever.  Pruning happens during the same lazy-decay
    arithmetic reads already perform (``observe``/``count``/snapshots),
    so it adds no extra pass; snapshots therefore sweep dead entries as
    a side effect, which keeps long adversarial random-walk sweeps from
    growing the key set without bound.  Determinism is preserved: a
    pruned entry is exactly one whose decayed weight would have been
    below ``prune_epsilon`` anyway, so ``snapshot(top_n)`` equals the
    unpruned registry's snapshot with sub-epsilon tails dropped (pass
    ``prune_epsilon=0.0``, the default, for bit-identical legacy
    behavior).
    """

    def __init__(
        self, shards: int = 1, decay: float = 1.0, prune_epsilon: float = 0.0
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        if prune_epsilon < 0.0:
            raise ValueError(
                f"prune_epsilon must be >= 0, got {prune_epsilon}"
            )
        self.shards = shards
        self.decay = decay
        self.prune_epsilon = prune_epsilon
        #: Per-shard ``{key: [weight, tick_of_weight]}``.
        self._entries: list[dict[TileKey, list]] = [{} for _ in range(shards)]
        self._locks = [threading.Lock() for _ in range(shards)]
        #: Per-shard observation tallies (each guarded by its shard lock,
        #: so concurrent observers never race on one shared counter).
        self._observed = [0] * shards
        self._tick_lock = threading.Lock()
        self._tick = 0

    # ------------------------------------------------------------------
    # virtual time
    # ------------------------------------------------------------------
    @property
    def tick(self) -> int:
        """The current virtual time (monotonic, caller-advanced)."""
        with self._tick_lock:
            return self._tick

    def advance(self, ticks: int = 1) -> int:
        """Advance virtual time; every count decays by ``decay**ticks``.

        Decay is applied lazily (per key, on next touch), so advancing
        is O(1) regardless of how many tiles are tracked.  Returns the
        new tick.
        """
        if ticks < 0:
            raise ValueError(f"ticks must be >= 0, got {ticks}")
        with self._tick_lock:
            self._tick += ticks
            return self._tick

    def _decayed(self, weight: float, elapsed: int) -> float:
        if elapsed == 0 or self.decay == 1.0:
            return weight
        return weight * self.decay**elapsed

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def _shard(self, key: TileKey) -> int:
        return hash(key) % self.shards

    def observe(self, key: TileKey, weight: float = 1.0) -> float:
        """Record one request for ``key``; returns its updated count."""
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        with self._tick_lock:
            tick = self._tick
        index = self._shard(key)
        with self._locks[index]:
            entry = self._entries[index].get(key)
            if entry is None:
                self._entries[index][key] = [float(weight), tick]
                new_weight = float(weight)
            else:
                # Lazy decay: bring the stored count to the current
                # tick, then add.  The arithmetic per key is identical
                # whatever the shard count.  A concurrent advance() may
                # have stamped the entry with a tick newer than the one
                # we captured; never "un-decay" in that case.
                elapsed = tick - entry[1]
                if elapsed > 0:
                    decayed = self._decayed(entry[0], elapsed)
                    # Sub-epsilon pruning: a count that decayed to dust
                    # restarts from scratch, exactly as if the key had
                    # been dropped between requests.
                    entry[0] = (
                        0.0 if decayed < self.prune_epsilon else decayed
                    )
                    entry[1] = tick
                entry[0] += weight
                new_weight = entry[0]
            self._observed[index] += 1
        return new_weight

    def observe_many(self, keys: Iterable[TileKey], weight: float = 1.0) -> None:
        """Record one request per key (convenience for replays)."""
        for key in keys:
            self.observe(key, weight)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def count(self, key: TileKey) -> float:
        """The decayed count of ``key`` at the current tick (0 if unseen)."""
        with self._tick_lock:
            tick = self._tick
        index = self._shard(key)
        with self._locks[index]:
            entry = self._entries[index].get(key)
            if entry is None:
                return 0.0
            weight = self._decayed(entry[0], max(0, tick - entry[1]))
            if weight < self.prune_epsilon:
                del self._entries[index][key]
                return 0.0
            return weight

    def snapshot(self, top_n: int | None = None) -> list[tuple[TileKey, float]]:
        """The hottest tiles, deterministically ordered.

        Entries are sorted by ``(count desc, key asc)`` — the tie-break
        makes the top-N a pure function of the counter state, never of
        insertion or shard order.  ``top_n=None`` returns everything.
        """
        if top_n is not None and top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        with self._tick_lock:
            tick = self._tick
        entries: list[tuple[TileKey, float]] = []
        for index in range(self.shards):
            with self._locks[index]:
                shard = self._entries[index]
                dead: list[TileKey] = []
                for key, (weight, seen_tick) in shard.items():
                    decayed = self._decayed(weight, max(0, tick - seen_tick))
                    if decayed < self.prune_epsilon:
                        # Snapshots walk every entry anyway; sweeping the
                        # sub-epsilon dead here is what bounds memory
                        # for keys that are never touched again.
                        dead.append(key)
                        continue
                    entries.append((key, decayed))
                for key in dead:
                    del shard[key]
        if top_n is None:
            entries.sort(key=_hotness)
        else:
            # O(T log top_n), not a full sort: this runs per prediction
            # round on the request path.
            entries = heapq.nsmallest(top_n, entries, key=_hotness)
        return entries

    def hot_keys(self, top_n: int) -> list[TileKey]:
        """Just the keys of :meth:`snapshot`, hottest first."""
        return [key for key, _ in self.snapshot(top_n)]

    @property
    def total_observations(self) -> int:
        """Observations absorbed so far (undecayed)."""
        total = 0
        for index in range(self.shards):
            with self._locks[index]:
                total += self._observed[index]
        return total

    def __len__(self) -> int:
        """Number of distinct tiles tracked."""
        return sum(
            len(self._entries[index]) for index in range(self.shards)
        )

    def __repr__(self) -> str:
        return (
            f"<SharedHotspotRegistry shards={self.shards} "
            f"decay={self.decay} tiles={len(self)} tick={self.tick}>"
        )
