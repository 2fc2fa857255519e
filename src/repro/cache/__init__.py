"""The middleware tile cache (Section 3).

A main-memory cache in front of the DBMS that says which tiles are in
memory, in two regions of keys: the last ``n`` tiles the user actually
requested (LRU), and per-model allocations that the cache manager
refills with each recommender's predictions after every request.  Their
bytes are the pyramid's live tile table's.  One lock per shard guards
both regions' keys, so every probe takes one lock.
"""

from repro.cache.manager import CacheManager, FetchOutcome
from repro.cache.tile_cache import TileCache

__all__ = [
    "CacheManager",
    "FetchOutcome",
    "TileCache",
]
