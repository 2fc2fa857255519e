"""Unit tests for pyramid construction and tile fetching."""

import numpy as np
import pytest

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.tiles.key import TileKey
from repro.tiles.pyramid import TilePyramid
from repro.tiles.tile import DataTile


def make_source(db: Database, side: int = 16, name: str = "S") -> str:
    schema = ArraySchema(
        name,
        attributes=(Attribute("v"), Attribute("m")),
        dimensions=(
            Dimension("y", 0, side, side),
            Dimension("x", 0, side, side),
        ),
    )
    db.create_array(schema)
    rng = np.random.default_rng(0)
    db.write(name, "v", rng.random((side, side)))
    db.write(name, "m", (rng.random((side, side)) > 0.5).astype("float64"))
    return name


class TestBuild:
    def test_level_count(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        assert pyramid.num_levels == 3

    def test_single_level_when_tile_equals_side(self, db):
        make_source(db, side=8)
        pyramid = TilePyramid.build(db, "S", tile_size=8)
        assert pyramid.num_levels == 1

    def test_views_materialized(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        for level in range(3):
            assert db.array(pyramid.view_name(level)).schema.name == pyramid.view_name(level)

    def test_views_chunked_by_tile(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        assert db.schema(pyramid.view_name(1)).chunk_shape == (4, 4)

    def test_deepest_level_is_raw(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        raw = db.read("S", "v")
        view = db.read(pyramid.view_name(2), "v")
        np.testing.assert_array_equal(view, raw)

    def test_coarser_levels_average(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        raw = db.read("S", "v")
        level1 = db.read(pyramid.view_name(1), "v")
        expected = raw.reshape(8, 2, 8, 2).mean(axis=(1, 3))
        np.testing.assert_allclose(level1, expected)

    def test_per_attribute_aggregates(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4, aggregates={"m": "max"})
        raw = db.read("S", "m")
        level1 = db.read(pyramid.view_name(1), "m")
        expected = raw.reshape(8, 2, 8, 2).max(axis=(1, 3))
        np.testing.assert_allclose(level1, expected)

    def test_attribute_subset(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4, attributes=("v",))
        assert pyramid.attributes == ("v",)
        tile = pyramid.fetch_tile(TileKey(0, 0, 0), charge=False)
        assert list(tile.attributes) == ["v"]

    def test_rejects_non_square(self, db):
        schema = ArraySchema(
            "R",
            attributes=(Attribute("v"),),
            dimensions=(Dimension("y", 0, 8, 8), Dimension("x", 0, 16, 16)),
        )
        db.create_array(schema)
        db.write("R", "v", np.zeros((8, 16)))
        with pytest.raises(ValueError):
            TilePyramid.build(db, "R", tile_size=4)

    def test_rejects_non_power_of_two_factor(self, db):
        schema = ArraySchema(
            "R",
            attributes=(Attribute("v"),),
            dimensions=(Dimension("y", 0, 12, 12), Dimension("x", 0, 12, 12)),
        )
        db.create_array(schema)
        db.write("R", "v", np.zeros((12, 12)))
        with pytest.raises(ValueError):
            TilePyramid.build(db, "R", tile_size=4)

    def test_rejects_non_2d(self, db):
        schema = ArraySchema(
            "T",
            attributes=(Attribute("v"),),
            dimensions=(
                Dimension("t", 0, 2, 1),
                Dimension("y", 0, 8, 8),
                Dimension("x", 0, 8, 8),
            ),
        )
        db.create_array(schema)
        with pytest.raises(ValueError, match="2-D arrays"):
            TilePyramid.build(db, "T", tile_size=4)

    def test_rejects_shifted_origin(self, db):
        schema = ArraySchema(
            "O",
            attributes=(Attribute("v"),),
            dimensions=(Dimension("y", 4, 12, 8), Dimension("x", 4, 12, 8)),
        )
        db.create_array(schema)
        with pytest.raises(ValueError, match=r"\(0, 0\) origin"):
            TilePyramid.build(db, "O", tile_size=4)

    def test_rejects_indivisible_tile_size(self, db):
        make_source(db, side=16)
        with pytest.raises(ValueError):
            TilePyramid.build(db, "S", tile_size=5)


class TestFetch:
    def test_tile_shape(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        tile = pyramid.fetch_tile(TileKey(2, 3, 0))
        assert isinstance(tile, DataTile)
        assert tile.shape == (4, 4)

    def test_tile_content_matches_view(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        key = TileKey(2, 1, 2)
        tile = pyramid.fetch_tile(key)
        raw = db.read("S", "v")
        np.testing.assert_array_equal(tile.attribute("v"), raw[8:12, 4:8])

    def test_tile_region(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        assert pyramid.tile_region(TileKey(1, 1, 0)) == ((0, 4), (4, 8))

    @pytest.mark.parametrize("level", [-1, 3])
    def test_view_name_outside_the_pyramid(self, db, level):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        assert pyramid.view_name(2) == "S__z2"
        with pytest.raises(ValueError, match="outside pyramid"):
            pyramid.view_name(level)

    @pytest.mark.parametrize("key", [TileKey(1, 2, 0), TileKey(3, 0, 0)])
    def test_tile_region_of_a_foreign_key(self, db, key):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        with pytest.raises(ValueError, match="not in this pyramid"):
            pyramid.tile_region(key)

    def test_every_tile_reads_its_view_region(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        for level in range(pyramid.num_levels):
            view = db.read(pyramid.view_name(level), "v")
            for key in pyramid.grid.keys_at_level(level):
                (y0, y1), (x0, x1) = pyramid.tile_region(key)
                tile = pyramid.fetch_tile(key, charge=False)
                np.testing.assert_array_equal(tile.attribute("v"), view[y0:y1, x0:x1])

    def test_invalid_key_raises(self, db):
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        with pytest.raises(ValueError):
            pyramid.fetch_tile(TileKey(5, 0, 0))

    def test_charged_fetch_advances_clock(self):
        from repro.arraydb import CostModel, VirtualClock

        clock = VirtualClock()
        db = Database(cost_model=CostModel(per_query_overhead=0.5), clock=clock)
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        before = clock.now()
        pyramid.fetch_tile(TileKey(0, 0, 0), charge=True)
        assert clock.now() > before

    def test_uncharged_fetch_leaves_clock(self):
        from repro.arraydb import CostModel, VirtualClock

        clock = VirtualClock()
        db = Database(cost_model=CostModel(per_query_overhead=0.5), clock=clock)
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        before = clock.now()
        pyramid.fetch_tile(TileKey(0, 0, 0), charge=False)
        assert clock.now() == before

    def test_parent_covers_children_averages(self, db):
        """One tile at level i covers the four child tiles at i+1."""
        make_source(db, side=16)
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        parent = pyramid.fetch_tile(TileKey(1, 0, 0), charge=False)
        children = [
            pyramid.fetch_tile(k, charge=False)
            for k in TileKey(1, 0, 0).children()
        ]
        parent_mean = parent.attribute("v").mean()
        child_mean = np.mean([c.attribute("v").mean() for c in children])
        assert parent_mean == pytest.approx(child_mean)


class TestDataTile:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DataTile(key=TileKey(0, 0, 0), attributes={})

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            DataTile(
                key=TileKey(0, 0, 0),
                attributes={"a": np.zeros((2, 2)), "b": np.zeros((3, 3))},
            )

    def test_nbytes(self):
        tile = DataTile(
            key=TileKey(0, 0, 0),
            attributes={"a": np.zeros((4, 4)), "b": np.zeros((4, 4))},
        )
        assert tile.nbytes == 2 * 16 * 8

    def test_missing_attribute_raises(self):
        tile = DataTile(key=TileKey(0, 0, 0), attributes={"a": np.zeros((2, 2))})
        with pytest.raises(KeyError):
            tile.attribute("b")

    def test_equality_by_content(self):
        a = DataTile(key=TileKey(1, 0, 0), attributes={"v": np.ones((2, 2))})
        b = DataTile(key=TileKey(1, 0, 0), attributes={"v": np.ones((2, 2))})
        c = DataTile(key=TileKey(1, 0, 0), attributes={"v": np.zeros((2, 2))})
        assert a == b
        assert a != c

    def test_equality_needs_the_same_key(self):
        a = DataTile(key=TileKey(1, 0, 0), attributes={"v": np.ones((2, 2))})
        b = DataTile(key=TileKey(1, 1, 0), attributes={"v": np.ones((2, 2))})
        assert a != b

    def test_equality_needs_the_same_attributes(self):
        a = DataTile(key=TileKey(1, 0, 0), attributes={"v": np.ones((2, 2))})
        b = DataTile(
            key=TileKey(1, 0, 0),
            attributes={"v": np.ones((2, 2)), "m": np.ones((2, 2))},
        )
        assert a != b
        assert b != a

    def test_a_tile_is_not_equal_to_its_array(self):
        a = DataTile(key=TileKey(1, 0, 0), attributes={"v": np.ones((2, 2))})
        assert a.__eq__(a.attribute("v")) is NotImplemented
        assert a != "tile"
