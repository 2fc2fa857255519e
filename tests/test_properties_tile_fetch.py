"""A tile fetch is a chunk look-up — and nothing but its speed may show.

``TilePyramid.fetch_tile_timed`` / ``fetch_tile`` read a tile's one chunk
per attribute directly.  The reference they must match, byte for byte and
virtual second for virtual second, is the region read over the tile's
bounds: ``ChunkedArray.read`` of each attribute, priced by the cost
model as one query over the summed ``ReadStats``.
"""

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


def assert_fetches_match_reference(pyramid: TilePyramid) -> None:
    db = pyramid.db
    for key in pyramid.grid.all_keys():
        reference, reference_seconds = region_read(pyramid, key)
        reference_clock = VirtualClock().advance(reference_seconds)

        db.clock = VirtualClock()
        charged, seconds = pyramid.fetch_tile_timed(key)
        assert seconds == reference_seconds
        assert db.clock.now() == reference_clock

        free = pyramid.fetch_tile(key, charge=False)
        assert db.clock.now() == reference_clock  # untouched by the free read

        for tile in (charged, free):
            assert tile.key == key
            assert list(tile.attributes) == list(reference)
            for name in pyramid.attributes:
                block, expected = tile.attribute(name), reference[name]
                assert block.dtype == expected.dtype
                assert block.shape == expected.shape
                assert block.tobytes() == expected.tobytes()


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
