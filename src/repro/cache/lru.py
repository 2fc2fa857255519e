"""Least-recently-used caches with hit/miss accounting.

:class:`LRUCache` is lock-guarded: every operation holds an internal
:class:`threading.RLock`, so one instance may be shared by the request
path and the background prefetch workers without external coordination.
:class:`ShardedLRUCache` hash-stripes keys over several independently
locked :class:`LRUCache` segments, so concurrent sessions' recency
updates stop serializing on one mutex; with one shard it *is* a plain
LRU (bit-identical semantics, one extra indirection).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Generic, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")
_ABSENT = object()


class LRUCache(Generic[K, V]):
    """Fixed-capacity LRU: reads refresh recency, inserts evict the
    least recently used entry.  Thread-safe."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._entries: OrderedDict[K, V] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: K) -> V | None:
        """Fetch and refresh an entry; None (and a counted miss) if absent."""
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: K) -> V | None:
        """Fetch without touching recency or counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: K, value: V) -> K | None:
        """Insert/overwrite; returns the evicted key, if any."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                return evicted
            return None

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[K]:
        """Keys from least to most recently used."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop all entries (counters persist)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of ``get`` calls served from cache."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0


class ShardedLRUCache(Generic[K, V]):
    """``shards`` independently locked LRU segments behind one face.

    Each key hashes to one segment, which owns an equal slice of the
    total capacity (early segments absorb the remainder), so capacity
    is still bounded globally while unrelated keys never contend on a
    lock.  The trade-off is recency scope: eviction picks the least
    recently used entry *of the full segment*, not of the whole cache —
    with ``shards=1`` (the default) the two notions coincide and the
    behavior is exactly :class:`LRUCache`'s.
    """

    def __init__(self, capacity: int, shards: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.capacity = capacity
        # Every segment needs at least one slot to be useful.
        self.shards = min(shards, capacity)
        base, extra = divmod(capacity, self.shards)
        self._segments: list[LRUCache[K, V]] = [
            LRUCache(base + (1 if i < extra else 0))
            for i in range(self.shards)
        ]

    def _segment(self, key: K) -> LRUCache[K, V]:
        return self._segments[hash(key) % self.shards]

    def get(self, key: K) -> V | None:
        """Fetch and refresh an entry; None (and a counted miss) if absent."""
        return self._segment(key).get(key)

    def peek(self, key: K) -> V | None:
        """Fetch without touching recency or counters."""
        return self._segment(key).peek(key)

    def peek_many(self, keys: list[K]) -> list[V | None]:
        """:meth:`peek` of each key; one lock visit with one segment."""
        if self.shards > 1:
            return [self.peek(key) for key in keys]
        segment = self._segments[0]
        with segment._lock:
            return list(map(segment._entries.get, keys))

    def put(self, key: K, value: V) -> K | None:
        """Insert/overwrite; returns the key's segment's evictee, if any."""
        return self._segment(key).put(key, value)

    def __contains__(self, key: K) -> bool:
        return key in self._segment(key)

    def __len__(self) -> int:
        return sum(len(segment) for segment in self._segments)

    def keys(self) -> list[K]:
        """Keys, least to most recently used *within each segment*,
        concatenated segment by segment."""
        keys: list[K] = []
        for segment in self._segments:
            keys.extend(segment.keys())
        return keys

    def clear(self) -> None:
        """Drop all entries (counters persist)."""
        for segment in self._segments:
            segment.clear()

    @property
    def hits(self) -> int:
        return sum(segment.hits for segment in self._segments)

    @property
    def misses(self) -> int:
        return sum(segment.misses for segment in self._segments)

    @property
    def hit_rate(self) -> float:
        """Fraction of ``get`` calls served from cache, all segments."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
