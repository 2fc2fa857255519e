"""The middleware tile cache (Section 3).

A main-memory cache in front of the DBMS that says which tiles are in
memory, in two regions: the last ``n`` tiles the user actually
requested (LRU), and per-model allocations that the cache manager
refills with each recommender's predictions after every request.  A
slot holds the pyramid's tile-table entry its key was loaded as, and
serves it only while the live table still holds that entry.  One lock
per shard guards both regions, so every probe takes one lock.
"""

from repro.cache.manager import CacheManager, FetchOutcome
from repro.cache.tile_cache import TileCache

__all__ = [
    "CacheManager",
    "FetchOutcome",
    "TileCache",
]
