"""Tile reduction units: downsample, upsample, ancestor carving.

The progressive-fidelity machinery rests on these pure helpers; the
invariants pinned here are what the push and degraded-serving paths
assume — exact block means, shape round-trips, quadtree-exact carve
footprints, and strict input validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tiles.key import TileKey
from repro.tiles.reduce import (
    carve_fidelity,
    carve_from_ancestor,
    downsample_tile,
    upsample_tile,
)
from repro.tiles.tile import DataTile


def tile(key: TileKey, size: int = 8, base: float = 0.0) -> DataTile:
    grid = np.arange(size * size, dtype=np.float64).reshape(size, size) + base
    return DataTile(key=key, attributes={"a": grid, "b": grid * 2.0})


class TestFactors:
    @pytest.mark.parametrize("bad", [1, 0, -2, 3, 6, 2.0, "4"])
    @pytest.mark.parametrize("reduce", [downsample_tile, upsample_tile])
    def test_bad_factor_rejected(self, reduce, bad):
        with pytest.raises(ValueError, match="power of two"):
            reduce(tile(TileKey(0, 0, 0)), bad)


class TestDownsample:
    def test_block_means_and_shape(self):
        source = tile(TileKey(0, 0, 0), size=4)
        coarse = downsample_tile(source, 2)
        assert coarse.key == source.key
        assert coarse.shape == (2, 2)
        expected = source.attributes["a"].reshape(2, 2, 2, 2).mean(axis=(1, 3))
        np.testing.assert_allclose(coarse.attributes["a"], expected)
        np.testing.assert_allclose(
            coarse.attributes["b"], expected * 2.0
        )

    def test_dtype_preserved(self):
        grid = np.arange(16, dtype=np.float32).reshape(4, 4)
        coarse = downsample_tile(
            DataTile(key=TileKey(0, 0, 0), attributes={"a": grid}), 2
        )
        assert coarse.attributes["a"].dtype == np.float32

    def test_source_is_untouched(self):
        source = tile(TileKey(0, 0, 0), size=4)
        before = source.attributes["a"].copy()
        downsample_tile(source, 2)
        np.testing.assert_array_equal(source.attributes["a"], before)

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            downsample_tile(tile(TileKey(0, 0, 0), size=4), 8)


class TestUpsample:
    def test_round_trips_shape(self):
        source = tile(TileKey(0, 0, 0), size=8)
        coarse = downsample_tile(source, 4)
        restored = upsample_tile(coarse, 4)
        assert restored.shape == source.shape
        assert restored.key == source.key

    def test_nearest_neighbor_blocks(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        up = upsample_tile(
            DataTile(key=TileKey(0, 0, 0), attributes={"a": grid}), 2
        )
        np.testing.assert_array_equal(
            up.attributes["a"][:2, :2], np.full((2, 2), 1.0)
        )
        np.testing.assert_array_equal(
            up.attributes["a"][2:, 2:], np.full((2, 2), 4.0)
        )


class TestCarve:
    def test_child_quadrants_are_exact(self):
        parent = tile(TileKey(1, 0, 1), size=8)
        for child in parent.key.children():
            carved = carve_from_ancestor(parent, child)
            assert carved.key == child
            assert carved.shape == parent.shape
            # The carved stand-in is the parent's sub-block, upsampled:
            # downsampling it back by the same factor recovers that
            # sub-block exactly (np.repeat blocks are constant).
            rx = child.x - (parent.key.x << 1)
            ry = child.y - (parent.key.y << 1)
            sub = parent.attributes["a"][
                ry * 4 : ry * 4 + 4, rx * 4 : rx * 4 + 4
            ]
            np.testing.assert_array_equal(
                downsample_tile(carved, 2).attributes["a"], sub
            )

    def test_depth_two_carve(self):
        ancestor = tile(TileKey(0, 0, 0), size=8)
        key = TileKey(2, 3, 1)
        carved = carve_from_ancestor(ancestor, key)
        assert carved.key == key
        assert carved.shape == ancestor.shape
        sub = ancestor.attributes["a"][2:4, 6:8]
        np.testing.assert_array_equal(
            downsample_tile(carved, 4).attributes["a"], sub
        )

    def test_non_ancestor_rejected(self):
        stranger = tile(TileKey(1, 1, 0), size=8)
        with pytest.raises(ValueError, match="does not contain"):
            carve_from_ancestor(stranger, TileKey(2, 0, 0))

    def test_same_level_rejected(self):
        peer = tile(TileKey(2, 0, 0), size=8)
        with pytest.raises(ValueError, match="not a proper ancestor"):
            carve_from_ancestor(peer, TileKey(2, 0, 0))

    def test_too_deep_for_shape_rejected(self):
        shallow = tile(TileKey(0, 0, 0), size=2)
        with pytest.raises(ValueError, match="cannot be split"):
            carve_from_ancestor(shallow, TileKey(3, 0, 0))

    def test_carve_fidelity(self):
        assert carve_fidelity(1, 2) == 0.5
        assert carve_fidelity(0, 2) == 0.25
        with pytest.raises(ValueError):
            carve_fidelity(2, 2)
