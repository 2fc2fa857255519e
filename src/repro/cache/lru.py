"""A sharded least-recently-used map, kept only for one benchmark.

Its one importer, ``benchmarks/perf/tracing.py::lru_microbench``, times
:meth:`ShardedLRUCache.get` and :meth:`ShardedLRUCache.put`; ROADMAP
item 1a-i retires it, and this module with it.  The tile cache keeps its
recent region inside each ``TileCache`` shard.
"""

import threading
from collections import OrderedDict


class ShardedLRUCache:
    """``capacity`` entries over ``min(shards, capacity)`` locked LRU
    segments (early ones absorb the remainder); a key lives in segment
    ``hash(key) % shards``, which evicts its least recently used entry."""

    def __init__(self, capacity: int, shards: int = 1) -> None:
        if capacity < 1 or shards < 1:
            raise ValueError(f"capacity and shards must be >= 1, got {capacity}, {shards}")
        self.shards = min(shards, capacity)
        base, extra = divmod(capacity, self.shards)
        self._segments = [
            (threading.RLock(), OrderedDict(), base + (i < extra)) for i in range(self.shards)
        ]

    def get(self, key):
        """The entry's value, refreshed; None if absent."""
        lock, entries, _ = self._segments[hash(key) % self.shards]
        with lock:
            if key not in entries:
                return None
            entries.move_to_end(key)
            return entries[key]

    def put(self, key, value):
        """Insert/overwrite; returns the key its segment evicted, if any."""
        lock, entries, capacity = self._segments[hash(key) % self.shards]
        with lock:
            entries[key] = value
            entries.move_to_end(key)
            return entries.popitem(last=False)[0] if len(entries) > capacity else None
