"""A tile fetch is a table look-up — and nothing but its speed may show.

``TilePyramid.fetch_tile_timed`` / ``fetch_tile`` read a tile's one chunk
per attribute once, into the pyramid's tile table, and charge every
fetch.  The reference every fetch must match, the first and each repeat,
byte for byte and virtual second for virtual second, is the region read
over the tile's bounds: ``ChunkedArray.read`` of each attribute, priced
by the cost model as one query over the summed ``ReadStats``.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.arraydb.cost import CostModel, VirtualClock
from repro.tiles.key import TileKey
from repro.tiles.pyramid import TilePyramid

#: Every term of the cost formula is live, so a miscounted chunk or cell shows.
COST = CostModel(
    per_query_overhead=0.05,
    per_chunk_overhead=0.002,
    per_cell_scanned=1e-5,
    per_cell_computed=1e-5,
)

DTYPES = ("float64", "float32", "int32", "uint8")


def build_pyramid(tile_size: int, levels: int, dtypes, seed: int) -> TilePyramid:
    side = tile_size << (levels - 1)
    names = tuple(f"a{i}" for i in range(len(dtypes)))
    db = Database(cost_model=COST)
    db.create_array(
        ArraySchema(
            "S",
            attributes=tuple(Attribute(n, d) for n, d in zip(names, dtypes)),
            dimensions=(Dimension("y", 0, side, side), Dimension("x", 0, side, side)),
        )
    )
    rng = np.random.default_rng(seed)
    for name in names:
        db.write("S", name, rng.integers(0, 200, (side, side)))
    return TilePyramid.build(db, "S", tile_size=tile_size)


def region_read(pyramid: TilePyramid, key: TileKey) -> tuple[dict, float]:
    """Each attribute's region read over ``key``'s bounds, and the virtual
    seconds those reads cost as one query."""
    array = pyramid.db.array(pyramid.view_name(key.level))
    blocks, chunks_read, cells_scanned = {}, 0, 0
    for attr in array.schema.attributes:
        blocks[attr.name], stats = array.read(attr.name, pyramid.tile_region(key))
        chunks_read += stats.chunks_read
        cells_scanned += stats.cells_scanned
    return blocks, pyramid.db.cost_model.query_cost(chunks_read, cells_scanned, 0)


def assert_tile_matches(tile, key: TileKey, reference: dict) -> None:
    assert tile.key == key
    assert list(tile.attributes) == list(reference)
    for name, expected in reference.items():
        block = tile.attribute(name)
        assert block.dtype == expected.dtype
        assert block.shape == expected.shape
        assert block.tobytes() == expected.tobytes()


def assert_fetches_match_reference(pyramid: TilePyramid) -> None:
    """Every key, fetched twice: the first fetch reads the store, the
    second is served from the tile table, and both match the reference
    in bytes, dtype, charge and clock."""
    db = pyramid.db
    for key in pyramid.grid.all_keys():
        reference, reference_seconds = region_read(pyramid, key)
        reference_clock = VirtualClock().advance(reference_seconds)

        for _ in range(2):
            db.clock = VirtualClock()
            charged, seconds = pyramid.fetch_tile_timed(key)
            assert seconds == reference_seconds
            assert db.clock.now() == reference_clock

            free = pyramid.fetch_tile(key, charge=False)
            assert db.clock.now() == reference_clock  # untouched by the free read

            for tile in (charged, free):
                assert_tile_matches(tile, key, reference)


@st.composite
def worlds(draw):
    return dict(
        tile_size=draw(st.sampled_from([2, 4, 8])),
        levels=draw(st.integers(1, 4)),
        dtypes=draw(st.lists(st.sampled_from(DTYPES), min_size=1, max_size=3)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestFetchEqualsRegionRead:
    @settings(max_examples=25, deadline=None)
    @given(worlds(), st.data())
    def test_every_tile_of_any_pyramid(self, world, data):
        pyramid = build_pyramid(**world)
        if data.draw(st.booleans(), label="delete one chunk"):
            # An absent chunk reads back as zeros and is not charged.
            key = data.draw(st.sampled_from(list(pyramid.grid.all_keys())))
            name = data.draw(st.sampled_from(pyramid.attributes))
            pyramid.db._store.delete((pyramid.view_name(key.level), name, (key.y, key.x)))
        assert_fetches_match_reference(pyramid)


def count_lookups(store, monkeypatch) -> dict[str, int]:
    """Count, from here on, the ``get`` and ``keys`` calls on ``store``."""
    counts = {"get": 0, "keys": 0}
    for name in counts:

        def counted(*args, _name=name, _method=getattr(store, name)):
            counts[_name] += 1
            return _method(*args)

        monkeypatch.setattr(store, name, counted)
    return counts


class TestFetchIsALookup:
    @pytest.mark.parametrize("charge", [True, False])
    def test_one_get_per_attribute_and_no_plan(self, charge, monkeypatch):
        pyramid = build_pyramid(4, 3, ("float64", "uint8", "int32"), seed=1)
        executed = []
        monkeypatch.setattr(pyramid.db, "execute", executed.append)
        counts = count_lookups(pyramid.db._store, monkeypatch)
        pyramid.fetch_tile(TileKey(2, 3, 1), charge=charge)
        assert (counts["get"], counts["keys"], executed) == (3, 0, [])

    @pytest.mark.parametrize("charge", [True, False])
    def test_a_repeat_fetch_makes_no_store_get(self, charge, monkeypatch):
        pyramid = build_pyramid(4, 3, ("float64", "uint8", "int32"), seed=1)
        key = TileKey(2, 3, 1)
        first = pyramid.fetch_tile(key, charge=charge)
        counts = count_lookups(pyramid.db._store, monkeypatch)
        pyramid.db.clock = VirtualClock()
        again, seconds = pyramid.fetch_tile_timed(key)
        assert pyramid.fetch_tile(key, charge=charge) is again is first
        assert (counts["get"], counts["keys"]) == (0, 0)
        assert seconds == region_read(pyramid, key)[1] > 0
        assert pyramid.db.clock.now() == VirtualClock().advance(seconds) * (1 + charge)

    def test_fetched_payloads_cannot_be_written(self):
        """A payload is the stored chunk itself, refuses writes, and keeps
        its bytes after a write replaces that chunk."""
        pyramid = build_pyramid(4, 2, ("float64", "uint8"), seed=2)
        store = pyramid.db._store
        key = TileKey(1, 1, 0)
        tile, _ = pyramid.fetch_tile_timed(key)
        before = {name: tile.attribute(name).copy() for name in pyramid.attributes}
        for name in pyramid.attributes:
            block = tile.attribute(name)
            with pytest.raises(ValueError):
                block[0, 0] = 1
            chunk = store.get((pyramid.view_name(1), name, (0, 1)))
            assert np.shares_memory(block, chunk)
        for name in pyramid.attributes:
            pyramid.db.write(pyramid.view_name(1), name, np.full((8, 8), 99))
        refetched = pyramid.fetch_tile(key, charge=False)
        for name in pyramid.attributes:
            np.testing.assert_array_equal(tile.attribute(name), before[name])
            assert (refetched.attribute(name) == 99).all()

    def test_absent_chunk_is_one_shared_zero_block(self):
        """Two fetches of a tile whose chunk is absent get the same
        read-only zero block, equal to the region read, and the same
        charge as that read."""
        pyramid = build_pyramid(4, 2, ("float64", "int32"), seed=4)
        key = TileKey(1, 0, 1)
        view = pyramid.view_name(1)
        pyramid.db._store.delete((view, "a1", (1, 0)))
        pyramid.db.clock = VirtualClock()
        first, first_seconds = pyramid.fetch_tile_timed(key)
        second, second_seconds = pyramid.fetch_tile_timed(key)
        zeros = first.attribute("a1")
        assert second.attribute("a1") is zeros
        assert not zeros.flags.writeable and not zeros.any()
        expected = pyramid.db.read(view, "a1", pyramid.tile_region(key))
        assert zeros.dtype == expected.dtype
        assert zeros.tobytes() == expected.tobytes()
        _, reference_seconds = region_read(pyramid, key)
        assert first_seconds == second_seconds == reference_seconds

    def test_key_outside_the_pyramid(self):
        pyramid = build_pyramid(4, 2, ("float64",), seed=3)
        for key in (TileKey(2, 0, 0), TileKey(1, 2, 0)):
            with pytest.raises(ValueError):
                pyramid.fetch_tile_timed(key)
            with pytest.raises(ValueError):
                pyramid.fetch_tile(key, charge=False)


class TestTableFollowsTheStore:
    """A tile fetched before the store changes never hides the change."""

    def test_a_write_to_a_view_is_seen_by_the_next_fetch(self):
        pyramid = build_pyramid(4, 2, ("float64", "uint8"), seed=5)
        key = TileKey(1, 1, 1)
        before = pyramid.fetch_tile(key)
        view = pyramid.view_name(1)
        pyramid.db.write(view, "a1", np.full((4, 4), 7), pyramid.tile_region(key))
        after = pyramid.fetch_tile(key)
        assert before is not after
        assert (after.attribute("a1") == 7).all()
        assert before.attribute("a0") is after.attribute("a0")
        assert_fetches_match_reference(pyramid)

    def test_a_delete_is_seen_by_the_next_fetch(self):
        pyramid = build_pyramid(4, 2, ("float64", "int32"), seed=6)
        key = TileKey(1, 0, 1)
        pyramid.db.clock = VirtualClock()
        _, before_seconds = pyramid.fetch_tile_timed(key)
        pyramid.db._store.delete((pyramid.view_name(1), "a1", (1, 0)))
        after, after_seconds = pyramid.fetch_tile_timed(key)
        assert not after.attribute("a1").any()
        assert after_seconds == region_read(pyramid, key)[1] < before_seconds
        assert_fetches_match_reference(pyramid)

    def test_a_write_to_another_array_drops_the_table(self, monkeypatch):
        """The table follows the whole store: any change re-reads."""
        pyramid = build_pyramid(4, 2, ("float64",), seed=7)
        key = TileKey(1, 0, 0)
        pyramid.fetch_tile(key)
        pyramid.db.write("S", "a0", np.zeros((8, 8)))
        counts = count_lookups(pyramid.db._store, monkeypatch)
        pyramid.fetch_tile(key)
        assert counts["get"] == 1


#: Every term a power of two, so sums of charges are exact in any order.
DYADIC = CostModel(
    per_query_overhead=0.5,
    per_chunk_overhead=0.25,
    per_cell_scanned=2**-10,
    per_cell_computed=2**-10,
)


class TestConcurrentFetches:
    def test_threads_on_a_fresh_pyramid_charge_every_fetch(self):
        """8 threads fetch overlapping keys from an empty table: the clock
        is the exact sum of every charge returned, and every tile equals
        the reference."""
        pyramid = build_pyramid(4, 3, ("float64", "uint8", "int32"), seed=8)
        pyramid.db.cost_model = DYADIC
        keys = list(pyramid.grid.all_keys())
        pyramid.db.clock = VirtualClock()
        start = threading.Barrier(8, timeout=10)
        fetched: list[list] = [[] for _ in range(8)]

        def fetch(i: int) -> None:
            start.wait()
            for round_ in range(3):
                for key in keys[i % 3 :: 2] + keys[round_::5]:
                    fetched[i].append(pyramid.fetch_tile_timed(key))

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [len(per_thread) for per_thread in fetched] == [
            3 * len(keys[i % 3 :: 2]) + sum(len(keys[r::5]) for r in range(3))
            for i in range(8)
        ]
        results = [pair for per_thread in fetched for pair in per_thread]
        assert pyramid.db.clock.now() == sum(seconds for _, seconds in results)
        references = {key: region_read(pyramid, key) for key in keys}
        for tile, seconds in results:
            reference, reference_seconds = references[tile.key]
            assert seconds == reference_seconds
            assert_tile_matches(tile, tile.key, reference)


def test_serving_a_study_replay_never_changes_the_store():
    """After the context is built nothing writes the chunk store, so the
    tile table is never dropped while a hybrid session serves."""
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import hybrid_factory
    from repro.middleware import ForeCacheService, PrefetchPolicy, ServiceConfig

    context = ExperimentContext.build(size=256, num_users=4)
    store = context.pyramid.db._store
    version = store.version
    traces = context.study.traces
    engine = hybrid_factory(context)(traces[2:])
    served = 0
    with ForeCacheService(
        context.pyramid, ServiceConfig(prefetch=PrefetchPolicy(k=5))
    ) as service:
        session = service.open_session(engine)
        while served < 2000:
            for trace in traces[:2]:
                engine.reset()
                previous = None
                for key in trace.tiles():
                    move = previous.move_to(key) if previous is not None else None
                    session.request(move, key)
                    previous = key
                    served += 1
    assert store.version == version
    assert context.pyramid._table[0] == version


class TestMisalignedViews:
    """A pyramid over views that are not tile-aligned refuses to serve."""

    @pytest.mark.parametrize(
        "attributes, dimensions",
        [
            pytest.param(
                ("v", "m"),
                (Dimension("y", 0, 4, 2), Dimension("x", 0, 4, 4)),
                id="other-chunk-size",
            ),
            pytest.param(
                ("v", "m"),
                (Dimension("y", 4, 8, 4), Dimension("x", 0, 4, 4)),
                id="shifted-origin",
            ),
            pytest.param(
                ("m", "v"),
                (Dimension("y", 0, 4, 4), Dimension("x", 0, 4, 4)),
                id="attribute-order",
            ),
        ],
    )
    def test_raises_before_serving_any_tile(self, db, attributes, dimensions):
        db.create_array(
            ArraySchema(
                "S__z0",
                attributes=tuple(Attribute(name) for name in attributes),
                dimensions=dimensions,
            )
        )
        pyramid = TilePyramid(
            db, "S", tile_size=4, num_levels=1, attributes=("v", "m")
        )
        with pytest.raises(ValueError, match="not tile-aligned"):
            pyramid.fetch_tile_timed(TileKey(0, 0, 0))
        with pytest.raises(ValueError, match="not tile-aligned"):
            pyramid.fetch_tile(TileKey(0, 0, 0), charge=False)

    def test_aligned_hand_built_views_are_served(self, db):
        db.create_array(
            ArraySchema(
                "S__z0",
                attributes=(Attribute("v"),),
                dimensions=(Dimension("y", 0, 4, 4), Dimension("x", 0, 4, 4)),
            )
        )
        db.write("S__z0", "v", np.arange(16.0).reshape(4, 4))
        pyramid = TilePyramid(db, "S", tile_size=4, num_levels=1, attributes=("v",))
        tile = pyramid.fetch_tile(TileKey(0, 0, 0))
        np.testing.assert_array_equal(tile.attribute("v"), np.arange(16.0).reshape(4, 4))
