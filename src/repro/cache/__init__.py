"""The middleware tile cache (Section 3).

A main-memory cache in front of the DBMS with two regions: space for the
last ``n`` tiles the user actually requested (LRU), and per-model
allocations that the cache manager refills with each recommender's
predictions after every request.  One lock per shard guards both
regions' entries for its keys, so every probe takes one lock.
"""

from repro.cache.manager import CacheManager, FetchOutcome
from repro.cache.tile_cache import TileCache

__all__ = [
    "CacheManager",
    "FetchOutcome",
    "TileCache",
]
