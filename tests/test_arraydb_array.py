"""Unit tests for chunked arrays: region reads/writes across chunks."""

import numpy as np
import pytest

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.arraydb.array import ChunkedArray, ReadStats, full_region
from repro.arraydb.cost import CostModel, QueryStats, VirtualClock
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
    def test_a_write_stores_only_the_chunks_it_covers(self):
        array = make_array()
        array.write("v", np.ones((4, 4)), ((0, 4), (0, 4)))
        _, stats = array.read("v")
        assert stats.chunks_read == 1

    def test_drop_removes_all_chunks(self):
        array = make_array()
        array.write("v", np.ones((8, 8)))
        array.drop()
        out, stats = array.read("v")
        assert stats.chunks_read == 0
        assert not out.any()

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

    def test_drop_array(self, db: Database, small_array):
        db.drop_array("A")
        with pytest.raises(ArrayNotFoundError):
            db.array("A")
        with pytest.raises(ArrayNotFoundError):
            db.drop_array("A")


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

    def test_blocks_are_the_stored_read_only_chunks(self):
        """A block is the stored chunk itself, refuses writes, and keeps
        its bytes after a write replaces that chunk."""
        array = edge_array()
        blocks, _ = array.read_chunk((0, 0))
        before = {name: block.copy() for name, block in blocks.items()}
        for name, block in blocks.items():
            assert np.shares_memory(block, array._store.get(("E", name, (0, 0))))
            with pytest.raises(ValueError):
                block[0, 0] = 1
        array.write("v", np.full((2, 2), -1.0), ((1, 3), (1, 3)))
        array.write("n", np.full((10, 10), 7))
        after, _ = array.read_chunk((0, 0))
        for name, block in blocks.items():
            np.testing.assert_array_equal(block, before[name])
            assert not np.shares_memory(block, after[name])
        assert after["v"][1, 1] == -1.0 and (after["n"] == 7).all()

    def test_absent_chunk_is_one_shared_zero_block(self):
        array = edge_array()
        array._store.delete(("E", "v", (1, 1)))
        array._store.delete(("E", "v", (1, 2)))
        first, first_stats = array.read_chunk((1, 1))
        second, second_stats = array.read_chunk((1, 1))
        assert first["v"] is second["v"]
        assert first_stats == second_stats == ReadStats(chunks_read=1, cells_scanned=16)
        expected, _ = array.read("v", chunk_region(array, (1, 1)))
        assert first["v"].dtype == expected.dtype
        assert first["v"].tobytes() == expected.tobytes()
        assert not first["v"].any()
        with pytest.raises(ValueError):
            first["v"][0, 0] = 1
        # The edge chunk (1, 2) is 4 x 2: a zero block of its own shape.
        edge, _ = array.read_chunk((1, 2))
        assert edge["v"].shape == (4, 2) and not edge["v"].any()


class TestChargeRead:
    """A chunk read charged through ``charge_read`` bills what the region
    read over that chunk bills."""

    @pytest.mark.parametrize("coords", [(0, 0), (2, 2)])
    @pytest.mark.parametrize("absent", [False, True])
    def test_matches_the_region_read(self, coords, absent):
        cost = CostModel(0.05, 0.002, 1e-5, 1e-5)
        db = Database(cost_model=cost, clock=VirtualClock())
        array = edge_array(db)
        if absent:
            array._store.delete(("E", "n", coords))
        bounds = chunk_region(array, coords)
        reads = {name: array.read(name, bounds) for name in ("v", "n")}
        chunks_read = sum(stats.chunks_read for _, stats in reads.values())
        cells_scanned = sum(stats.cells_scanned for _, stats in reads.values())
        blocks, read = db.array("E").read_chunk(coords)
        stats = db.charge_read(read)
        seconds = cost.query_cost(chunks_read, cells_scanned, 0)
        assert stats == QueryStats(chunks_read, cells_scanned, 0, seconds)
        assert stats.elapsed_seconds > 0
        assert db.clock.now() == VirtualClock().advance(seconds) == stats.elapsed_seconds
        for name, (expected, _) in reads.items():
            np.testing.assert_array_equal(blocks[name], expected)

    def test_every_charge_advances_the_clock_once(self):
        """Charging the same read again bills it again, from the same counts."""
        db = Database(cost_model=CostModel(0.5, 0.25, 2**-10, 0.0), clock=VirtualClock())
        read = ReadStats(chunks_read=2, cells_scanned=32)
        first, second = db.charge_read(read), db.charge_read(read)
        assert first == second == QueryStats(2, 32, 0, 0.5 + 0.5 + 32 * 2**-10)
        assert db.clock.now() == 2 * first.elapsed_seconds

    def test_unknown_array(self, db):
        with pytest.raises(ArrayNotFoundError):
            db.array("nope").read_chunk((0, 0))


class TestExecute:
    """A build query bills whole scans of the named arrays plus compute."""

    def test_stats_populated(self, db, small_array):
        stats = db.execute(("A",), cells_computed=16)
        assert stats.chunks_read == 4
        assert stats.cells_scanned == 64
        assert stats.cells_computed == 16
        assert stats.elapsed_seconds > 0

    def test_clock_advances(self):
        clock = VirtualClock()
        db = Database(cost_model=CostModel(per_query_overhead=1.0), clock=clock)
        edge_array(db)
        stats = db.execute(("E",), cells_computed=0)
        assert clock.now() == stats.elapsed_seconds >= 1.0

    def test_unknown_array(self, db):
        with pytest.raises(ArrayNotFoundError):
            db.execute(("missing",), cells_computed=0)

    def test_ledger_is_priced_by_the_cost_model(self):
        cost = CostModel(0.05, 0.002, 1e-5, 1e-3)
        db = Database(cost_model=cost)
        edge_array(db)
        stats = db.execute(("E",), cells_computed=7)
        # Both attributes, each 9 stored chunks of 100 cells in all.
        assert stats == QueryStats(18, 200, 7, cost.query_cost(18, 200, 7))

    def test_every_attribute_is_billed_as_read_whole(self, db):
        array = edge_array(db)
        reads = [array.read(name)[1] for name in ("v", "n")]
        stats = db.execute(("E",), cells_computed=0)
        assert stats.chunks_read == sum(r.chunks_read for r in reads)
        assert stats.cells_scanned == sum(r.cells_scanned for r in reads)

    def test_absent_chunks_are_not_billed(self, db):
        db.create_array(
            ArraySchema(
                "Z",
                attributes=(Attribute("v"),),
                dimensions=(Dimension("y", 0, 8, 4), Dimension("x", 0, 8, 4)),
            )
        )
        db.write("Z", "v", np.ones((4, 4)), ((0, 4), (4, 8)))
        stats = db.execute(("Z",), cells_computed=0)
        assert (stats.chunks_read, stats.cells_scanned) == (1, 16)

    def test_no_scans_charges_the_compute_alone(self):
        cost = CostModel(0.05, 0.002, 1e-5, 1e-3)
        db = Database(cost_model=cost, clock=VirtualClock())
        stats = db.execute((), cells_computed=10)
        assert stats == QueryStats(0, 0, 10, cost.query_cost(0, 0, 10))
        assert db.clock.now() == stats.elapsed_seconds

    def test_several_scans_sum_into_one_query(self, db, small_array):
        edge_array(db)
        alone = [db.execute((name,), cells_computed=0) for name in ("A", "E")]
        both = db.execute(("A", "E"), cells_computed=0)
        assert both.chunks_read == sum(s.chunks_read for s in alone)
        assert both.cells_scanned == sum(s.cells_scanned for s in alone)
        # One query, so the per-query overhead is paid once.
        overhead = db.cost_model.per_query_overhead
        assert both.elapsed_seconds == pytest.approx(
            sum(s.elapsed_seconds for s in alone) - overhead
        )

    def test_an_array_named_twice_is_scanned_twice(self, db, small_array):
        once = db.execute(("A",), cells_computed=0)
        twice = db.execute(("A", "A"), cells_computed=0)
        assert (twice.chunks_read, twice.cells_scanned) == (
            2 * once.chunks_read,
            2 * once.cells_scanned,
        )

    def test_charging_leaves_the_data_alone(self, db, small_array):
        before = db.read("A", "v")
        db.execute(("A",), cells_computed=64)
        np.testing.assert_array_equal(db.read("A", "v"), before)

    def test_without_a_clock_the_ledger_is_still_priced(self, db, small_array):
        assert db.clock is None
        stats = db.execute(("A",), cells_computed=0)
        assert stats.elapsed_seconds == db.cost_model.query_cost(4, 64, 0)


def make_signed_array(chunk: int) -> ChunkedArray:
    """A 16x16 array whose coordinates run from -8 to 8 on both axes."""
    schema = ArraySchema(
        "N",
        attributes=(Attribute("v"),),
        dimensions=(
            Dimension("y", -8, 8, chunk),
            Dimension("x", -8, 8, chunk),
        ),
    )
    return ChunkedArray(schema, MemoryChunkStore())


class TestNegativeOrigin:
    """Array coordinates need not start at zero; chunk indices still do."""

    @pytest.mark.parametrize("chunk", [1, 3, 4, 16])
    def test_roundtrip(self, chunk):
        array = make_signed_array(chunk)
        data = np.arange(256.0).reshape(16, 16)
        array.write("v", data)
        out, _ = array.read("v")
        np.testing.assert_array_equal(out, data)

    def test_region_across_the_zero_line(self):
        array = make_signed_array(4)
        data = np.arange(256.0).reshape(16, 16)
        array.write("v", data)
        out, stats = array.read("v", ((-2, 2), (-1, 3)))
        np.testing.assert_array_equal(out, data[6:10, 7:11])
        assert stats.chunks_read == 4

    def test_chunk_zero_starts_at_the_origin(self):
        array = make_signed_array(4)
        data = np.arange(256.0).reshape(16, 16)
        array.write("v", data)
        blocks, _ = array.read_chunk((0, 1))
        np.testing.assert_array_equal(blocks["v"], data[0:4, 4:8])

    def test_region_write_lands_at_array_coordinates(self):
        array = make_signed_array(4)
        array.write("v", np.full((2, 2), 7.0), ((-8, -6), (6, 8)))
        out, _ = array.read("v")
        assert out[0:2, 14:16].tolist() == [[7.0, 7.0], [7.0, 7.0]]
        assert out.sum() == 28.0


class TestThreeDimensions:
    def _array(self) -> ChunkedArray:
        schema = ArraySchema(
            "T",
            attributes=(Attribute("v", "int64"),),
            dimensions=(
                Dimension("t", 0, 3, 2),
                Dimension("y", 0, 5, 2),
                Dimension("x", 0, 4, 3),
            ),
        )
        return ChunkedArray(schema, MemoryChunkStore())

    def test_roundtrip(self):
        array = self._array()
        data = np.arange(60).reshape(3, 5, 4)
        array.write("v", data)
        out, stats = array.read("v")
        np.testing.assert_array_equal(out, data)
        assert out.dtype == np.dtype("int64")
        assert stats.chunks_read == 2 * 3 * 2

    def test_region_read(self):
        array = self._array()
        data = np.arange(60).reshape(3, 5, 4)
        array.write("v", data)
        out, _ = array.read("v", ((1, 3), (1, 4), (2, 4)))
        np.testing.assert_array_equal(out, data[1:3, 1:4, 2:4])

    def test_edge_chunk_is_clipped(self):
        array = self._array()
        array.write("v", np.arange(60).reshape(3, 5, 4))
        blocks, _ = array.read_chunk((1, 2, 1))
        assert blocks["v"].shape == (1, 1, 1)
        assert blocks["v"].item() == 2 * 20 + 4 * 4 + 3


class TestSharedStore:
    """Every array of a database lives in one store, keyed by array name."""

    def test_drop_leaves_other_arrays(self):
        store = MemoryChunkStore()
        schemas = [
            ArraySchema(
                name,
                attributes=(Attribute("v"),),
                dimensions=(Dimension("y", 0, 4, 2), Dimension("x", 0, 4, 2)),
            )
            for name in ("A", "AB")
        ]
        first, second = (ChunkedArray(s, store) for s in schemas)
        first.write("v", np.ones((4, 4)))
        second.write("v", np.full((4, 4), 2.0))
        first.drop()
        assert {key[0] for key in store.keys()} == {"AB"}
        out, _ = second.read("v")
        assert (out == 2.0).all()

    def test_attributes_are_stored_apart(self):
        schema = ArraySchema(
            "A",
            attributes=(Attribute("v"), Attribute("w")),
            dimensions=(Dimension("y", 0, 4, 4), Dimension("x", 0, 4, 4)),
        )
        array = ChunkedArray(schema, MemoryChunkStore())
        array.write("v", np.ones((4, 4)))
        blocks, stats = array.read_chunk((0, 0))
        assert (blocks["v"] == 1.0).all()
        assert not blocks["w"].any()
        assert stats.chunks_read == 1
