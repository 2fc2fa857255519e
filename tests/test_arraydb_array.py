"""Unit tests for chunked arrays: region reads/writes across chunks."""

import numpy as np
import pytest

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.arraydb import query as Q
from repro.arraydb.array import ChunkedArray, full_region, region_cells
from repro.arraydb.cost import CostModel, VirtualClock
from repro.arraydb.errors import ArrayNotFoundError
from repro.arraydb.storage import MemoryChunkStore


def make_array(chunk: int = 4, side: int = 8) -> ChunkedArray:
    schema = ArraySchema(
        "A",
        attributes=(Attribute("v"),),
        dimensions=(
            Dimension("y", 0, side, chunk),
            Dimension("x", 0, side, chunk),
        ),
    )
    return ChunkedArray(schema, MemoryChunkStore())


class TestWriteRead:
    def test_full_roundtrip(self):
        array = make_array()
        data = np.arange(64.0).reshape(8, 8)
        array.write("v", data)
        out, stats = array.read("v")
        np.testing.assert_array_equal(out, data)
        assert stats.chunks_read == 4

    def test_empty_array_reads_zeros(self):
        array = make_array()
        out, stats = array.read("v")
        np.testing.assert_array_equal(out, np.zeros((8, 8)))
        assert stats.chunks_read == 0

    def test_region_read_within_one_chunk(self):
        array = make_array()
        data = np.arange(64.0).reshape(8, 8)
        array.write("v", data)
        out, stats = array.read("v", ((0, 4), (4, 8)))
        np.testing.assert_array_equal(out, data[0:4, 4:8])
        assert stats.chunks_read == 1

    def test_region_read_spanning_chunks(self):
        array = make_array()
        data = np.arange(64.0).reshape(8, 8)
        array.write("v", data)
        out, stats = array.read("v", ((2, 6), (2, 6)))
        np.testing.assert_array_equal(out, data[2:6, 2:6])
        assert stats.chunks_read == 4

    def test_partial_write_preserves_other_cells(self):
        array = make_array()
        array.write("v", np.ones((8, 8)))
        array.write("v", np.full((2, 2), 5.0), ((0, 2), (0, 2)))
        out, _ = array.read("v")
        assert out[0, 0] == 5.0
        assert out[3, 3] == 1.0

    def test_write_then_read_unaligned_region(self):
        array = make_array()
        block = np.arange(15.0).reshape(3, 5)
        array.write("v", block, ((1, 4), (2, 7)))
        out, _ = array.read("v", ((1, 4), (2, 7)))
        np.testing.assert_array_equal(out, block)

    def test_write_shape_mismatch_raises(self):
        array = make_array()
        with pytest.raises(ValueError):
            array.write("v", np.zeros((2, 3)), ((0, 2), (0, 2)))

    def test_region_outside_bounds_raises(self):
        array = make_array()
        with pytest.raises(ValueError):
            array.read("v", ((0, 9), (0, 8)))

    def test_empty_region_raises(self):
        array = make_array()
        with pytest.raises(ValueError):
            array.read("v", ((4, 4), (0, 8)))

    def test_wrong_dimensionality_raises(self):
        array = make_array()
        with pytest.raises(ValueError):
            array.read("v", ((0, 8),))

    def test_unknown_attribute_raises(self):
        array = make_array()
        with pytest.raises(Exception):
            array.read("nope")

    def test_dtype_coercion_on_write(self):
        array = make_array()
        array.write("v", np.arange(64, dtype="int32").reshape(8, 8))
        out, _ = array.read("v")
        assert out.dtype == np.dtype("float64")


class TestBookkeeping:
    def test_stored_chunks_counts_only_written(self):
        array = make_array()
        array.write("v", np.ones((4, 4)), ((0, 4), (0, 4)))
        assert array.stored_chunks("v") == 1

    def test_drop_removes_all_chunks(self):
        array = make_array()
        array.write("v", np.ones((8, 8)))
        array.drop()
        assert array.stored_chunks("v") == 0

    def test_cells_scanned_counts_chunk_cells(self):
        array = make_array()
        array.write("v", np.ones((8, 8)))
        _, stats = array.read("v", ((0, 1), (0, 1)))
        # One chunk read in full, even for a 1-cell region.
        assert stats.cells_scanned == 16


class TestHelpers:
    def test_full_region(self):
        array = make_array()
        assert full_region(array.schema) == ((0, 8), (0, 8))

    def test_region_cells(self):
        assert region_cells(((0, 4), (2, 8))) == 24


class TestViaDatabase:
    def test_database_write_read(self, db: Database):
        schema = ArraySchema(
            "B",
            attributes=(Attribute("v"),),
            dimensions=(Dimension("y", 0, 4, 2), Dimension("x", 0, 4, 2)),
        )
        db.create_array(schema)
        db.write("B", "v", np.eye(4))
        np.testing.assert_array_equal(db.read("B", "v"), np.eye(4))


def edge_array(db: Database | None = None, y_start: int = 0) -> ChunkedArray:
    """A two-attribute 10x10 array chunked by 4: the last chunk of each
    dimension is partial."""
    schema = ArraySchema(
        "E",
        attributes=(Attribute("v"), Attribute("n", "int16")),
        dimensions=(
            Dimension("y", y_start, y_start + 10, 4),
            Dimension("x", 0, 10, 4),
        ),
    )
    if db is None:
        array = ChunkedArray(schema, MemoryChunkStore())
    else:
        array = db.create_array(schema)
    array.write("v", np.arange(100.0).reshape(10, 10))
    array.write("n", np.arange(100).reshape(10, 10))
    return array


def chunk_region(array: ChunkedArray, coords) -> tuple[tuple[int, int], ...]:
    return tuple(
        dim.chunk_bounds(c) for dim, c in zip(array.schema.dimensions, coords)
    )


class TestReadChunk:
    """A whole-chunk read equals the region read over that chunk's bounds."""

    @pytest.mark.parametrize("coords", [(0, 0), (1, 2), (2, 0), (2, 2)])
    @pytest.mark.parametrize("absent", [None, "v", "n"])
    def test_matches_region_read(self, coords, absent):
        array = edge_array(y_start=3)
        if absent is not None:
            array._store.delete(("E", absent, coords))
        bounds = chunk_region(array, coords)
        blocks, stats = array.read_chunk(coords)
        assert list(blocks) == ["v", "n"]
        chunks_read = cells_scanned = 0
        for name, block in blocks.items():
            expected, read_stats = array.read(name, bounds)
            assert block.dtype == expected.dtype
            assert block.shape == expected.shape
            assert block.tobytes() == expected.tobytes()
            chunks_read += read_stats.chunks_read
            cells_scanned += read_stats.cells_scanned
        assert (stats.chunks_read, stats.cells_scanned) == (chunks_read, cells_scanned)
        assert stats.chunks_read == (2 if absent is None else 1)

    @pytest.mark.parametrize("coords", [(3, 0), (0, 3), (-1, 0)])
    def test_index_outside_the_chunk_grid(self, coords):
        with pytest.raises(IndexError):
            edge_array().read_chunk(coords)

    def test_wrong_dimensionality(self):
        with pytest.raises(ValueError):
            edge_array().read_chunk((0,))

    def test_blocks_are_read_only_copies(self):
        array = edge_array()
        blocks, _ = array.read_chunk((0, 0))
        for name, block in blocks.items():
            assert not np.shares_memory(block, array._store.get(("E", name, (0, 0))))
            with pytest.raises(ValueError):
                block[0, 0] = 1


class TestFetchChunk:
    """The charged chunk read bills what the fused region query bills."""

    @pytest.mark.parametrize("coords", [(0, 0), (2, 2)])
    @pytest.mark.parametrize("absent", [False, True])
    def test_matches_executed_subarray(self, coords, absent):
        def world() -> Database:
            cost = CostModel(0.05, 0.002, 1e-5, 1e-5)
            db = Database(cost_model=cost, clock=VirtualClock())
            array = edge_array(db)
            if absent:
                array._store.delete(("E", "n", coords))
            return db

        direct, reference = world(), world()
        bounds = chunk_region(direct.array("E"), coords)
        blocks, stats = direct.fetch_chunk("E", coords)
        result = reference.execute(Q.subarray(Q.scan("E"), bounds))
        assert stats == result.stats
        assert stats.elapsed_seconds > 0
        assert direct.clock.now() == reference.clock.now() == stats.elapsed_seconds
        for name in ("v", "n"):
            np.testing.assert_array_equal(blocks[name], result.attribute(name))

    def test_unknown_array(self, db):
        with pytest.raises(ArrayNotFoundError):
            db.fetch_chunk("nope", (0, 0))
