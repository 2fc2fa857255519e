"""The tile cache under store writes: a stateful model.

A ``CacheManager`` over a small real pyramid takes requests, prefetch
cycles, background admissions and peeks, interleaved with writes of
single tiles' view regions and with the requests of a second manager
reading the same pyramid.  Whatever the interleaving, a tile handed out
is the store's current tile, and the first request for a key written
since a cache last loaded it is a charged miss of that cache: the cache
keeps keys, not bytes, so the new bytes must come from the DBMS — even
when the other reader has loaded them already.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

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
        #: A second reader of the same pyramid, as another cluster worker is.
        self.other = CacheManager(
            self.pyramid, TileCache(recent_capacity, prefetch_capacity, shards)
        )
        self.recent_capacity = recent_capacity
        self.prefetch_capacity = prefetch_capacity
        #: Per manager: keys written since it last queried them, and its queries.
        self.written = {self.manager: set(), self.other: set()}
        self.queries = {self.manager: [], self.other: []}
        for manager in self.written:
            manager._query_backend = self.counted(manager, manager._query_backend)

    def counted(self, manager, query):
        """``query``, each call noted against ``manager``."""

        def counted(key):
            self.queries[manager].append(key)
            self.written[manager].discard(key)
            return query(key)

        return counted

    def assert_current(self, tile, key: TileKey) -> None:
        assert tile.key == key
        assert tile == self.pyramid.fetch_tile(key, charge=False)

    def fetch_by(self, manager, key):
        queries = self.queries[manager]
        written, before = key in self.written[manager], len(queries)
        outcome = manager.fetch(key)
        self.assert_current(outcome.tile, key)
        if written:
            assert not outcome.hit
            assert queries[before:] == [key]
            assert outcome.backend_seconds > 0

    #: Keys the manager held when a write changed them and the other
    #: reader then loaded them again: its next request must miss.
    reloaded_keys = Bundle("reloaded_keys")

    @rule(key=keys | reloaded_keys)
    def fetch(self, key):
        self.fetch_by(self.manager, key)

    @rule(target=reloaded_keys)
    def other_reader_fetches_the_written_keys(self):
        """The other reader loads every key written since the manager
        last did: the live table holds their new tiles again."""
        written = sorted(self.written[self.manager])
        for key in written:
            self.fetch_by(self.other, key)
        return multiple(*(key for key in written if key in self.cache))

    @rule(predictions=st.lists(st.tuples(keys, models), max_size=6))
    def prefetch(self, predictions):
        before = len(self.queries[self.manager])
        assert self.manager.prefetch(predictions) == len(self.queries[self.manager]) - before

    @rule(key=keys, model=models)
    def prefetch_one(self, key, model):
        self.assert_current(self.manager.prefetch_one(key, model), key)

    @rule(key=keys)
    def peek(self, key):
        tile = self.manager.peek(key)
        if tile is not None:
            self.assert_current(tile, key)

    @rule(data=st.data())
    def write(self, data):
        # As often as not a key the manager holds: the case to get right.
        held = sorted(set(self.cache.recent_keys) | set(self.cache.prefetched_keys))
        key = data.draw(keys | st.sampled_from(held) if held else keys)
        view = self.pyramid.view_name(key.level)
        region = self.pyramid.tile_region(key)
        for name in self.pyramid.attributes:
            block, _ = self.pyramid.db.array(view).read(name, region)
            self.pyramid.db.write(view, name, block + 1, region)
        for written in self.written.values():
            written.add(key)

    @invariant()
    def regions_within_capacity(self):
        assert len(self.cache.recent_keys) <= self.recent_capacity
        assert len(self.cache.prefetched_keys) <= self.prefetch_capacity

    @invariant()
    def nothing_in_flight(self):
        for manager in self.written:
            assert manager.inflight_count == 0
            assert all(not loads for loads in manager.cache._inflight)


CacheUnderWrites.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
TestCacheUnderWrites = CacheUnderWrites.TestCase
