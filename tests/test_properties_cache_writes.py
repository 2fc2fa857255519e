"""The tile cache under store writes: a stateful model.

A ``CacheManager`` over a small real pyramid takes requests, prefetch
cycles, background admissions and peeks, interleaved with writes of
single tiles' view regions.  Whatever the interleaving, a tile handed
out is the store's current tile, and the first request for a key
written since the cache last loaded it is a charged miss: the cache
keeps keys, not bytes, so the new bytes must come from the DBMS.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.arraydb.cost import CostModel
from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.tiles.key import TileKey
from repro.tiles.pyramid import TilePyramid

TILE_SIZE, LEVELS = 8, 3
SIDE = TILE_SIZE << (LEVELS - 1)
KEYS = [
    TileKey(level, x, y)
    for level in range(LEVELS)
    for x in range(1 << level)
    for y in range(1 << level)
]
MODELS = ("markov", "sb")

keys = st.sampled_from(KEYS)
models = st.sampled_from(MODELS)


def build_pyramid(seed: int) -> TilePyramid:
    """A three-level pyramid over a 32 x 32 two-attribute source."""
    db = Database(cost_model=CostModel(per_query_overhead=0.05, per_cell_scanned=1e-5))
    db.create_array(
        ArraySchema(
            "S",
            attributes=(Attribute("v", "float64"), Attribute("n", "int32")),
            dimensions=(Dimension("y", 0, SIDE, SIDE), Dimension("x", 0, SIDE, SIDE)),
        )
    )
    rng = np.random.default_rng(seed)
    db.write("S", "v", rng.random((SIDE, SIDE)))
    db.write("S", "n", rng.integers(0, 200, (SIDE, SIDE)))
    return TilePyramid.build(db, "S", tile_size=TILE_SIZE)


class CacheUnderWrites(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 2**16),
        shards=st.sampled_from([1, 3]),
        recent_capacity=st.integers(1, 5),
        prefetch_capacity=st.integers(1, 5),
    )
    def build(self, seed, shards, recent_capacity, prefetch_capacity):
        self.pyramid = build_pyramid(seed)
        self.cache = TileCache(recent_capacity, prefetch_capacity, shards)
        self.manager = CacheManager(self.pyramid, self.cache)
        self.recent_capacity = recent_capacity
        self.prefetch_capacity = prefetch_capacity
        #: Keys written since the cache last queried them.
        self.written: set[TileKey] = set()
        self.queries: list[TileKey] = []
        fetch_tile_timed = self.pyramid.fetch_tile_timed

        def counted(key):
            self.queries.append(key)
            self.written.discard(key)
            return fetch_tile_timed(key)

        self.pyramid.fetch_tile_timed = counted

    def assert_current(self, tile, key: TileKey) -> None:
        assert tile.key == key
        assert tile == self.pyramid.fetch_tile(key, charge=False)

    @rule(key=keys)
    def fetch(self, key):
        written, before = key in self.written, len(self.queries)
        outcome = self.manager.fetch(key)
        self.assert_current(outcome.tile, key)
        if written:
            assert not outcome.hit
            assert self.queries[before:] == [key]
            assert outcome.backend_seconds > 0

    @rule(predictions=st.lists(st.tuples(keys, models), max_size=6))
    def prefetch(self, predictions):
        before = len(self.queries)
        assert self.manager.prefetch(predictions) == len(self.queries) - before

    @rule(key=keys, model=models)
    def prefetch_one(self, key, model):
        self.assert_current(self.manager.prefetch_one(key, model), key)

    @rule(key=keys)
    def peek(self, key):
        tile = self.manager.peek(key)
        if tile is not None:
            self.assert_current(tile, key)

    @rule(key=keys)
    def write(self, key):
        view = self.pyramid.view_name(key.level)
        region = self.pyramid.tile_region(key)
        for name in self.pyramid.attributes:
            block, _ = self.pyramid.db.array(view).read(name, region)
            self.pyramid.db.write(view, name, block + 1, region)
        self.written.add(key)

    @invariant()
    def regions_within_capacity(self):
        assert len(self.cache.recent_keys) <= self.recent_capacity
        assert len(self.cache.prefetched_keys) <= self.prefetch_capacity

    @invariant()
    def nothing_in_flight(self):
        assert self.manager.inflight_count == 0
        assert all(not loads for loads in self.cache._inflight)


CacheUnderWrites.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestCacheUnderWrites = CacheUnderWrites.TestCase
