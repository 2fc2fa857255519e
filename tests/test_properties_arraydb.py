"""Property-based tests on the array DBMS substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.arraydb import query as Q
from repro.arraydb.array import ReadStats
from repro.arraydb.cost import QueryStats, VirtualClock

SIDE = 8


def fresh_db(values: np.ndarray, chunk: int) -> Database:
    db = Database()
    schema = ArraySchema(
        "A",
        attributes=(Attribute("v"),),
        dimensions=(
            Dimension("y", 0, SIDE, chunk),
            Dimension("x", 0, SIDE, chunk),
        ),
    )
    db.create_array(schema)
    db.write("A", "v", values)
    return db


arrays = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False), min_size=64, max_size=64
).map(lambda vals: np.asarray(vals).reshape(SIDE, SIDE))

chunks = st.sampled_from([1, 2, 4, 8, 3, 5])


@st.composite
def regions(draw):
    y0 = draw(st.integers(0, SIDE - 1))
    y1 = draw(st.integers(y0 + 1, SIDE))
    x0 = draw(st.integers(0, SIDE - 1))
    x1 = draw(st.integers(x0 + 1, SIDE))
    return ((y0, y1), (x0, x1))


class TestStorageProperties:
    @settings(max_examples=40, deadline=None)
    @given(arrays, chunks)
    def test_roundtrip_any_chunking(self, values, chunk):
        """Chunking is invisible: write then read returns the data."""
        db = fresh_db(values, chunk)
        np.testing.assert_array_equal(db.read("A", "v"), values)

    @settings(max_examples=40, deadline=None)
    @given(arrays, chunks, regions())
    def test_region_read_matches_slicing(self, values, chunk, region):
        db = fresh_db(values, chunk)
        (y0, y1), (x0, x1) = region
        out = db.read("A", "v", region)
        np.testing.assert_array_equal(out, values[y0:y1, x0:x1])

    @settings(max_examples=30, deadline=None)
    @given(arrays, chunks, regions())
    def test_subarray_query_matches_direct_read(self, values, chunk, region):
        """The pushdown-optimized query path agrees with direct reads."""
        db = fresh_db(values, chunk)
        result = db.execute(Q.subarray(Q.scan("A"), region))
        np.testing.assert_array_equal(
            result.attribute("v"), db.read("A", "v", region)
        )


class TestQueryProperties:
    @settings(max_examples=30, deadline=None)
    @given(arrays, chunks)
    def test_regrid_avg_preserves_mean(self, values, chunk):
        """Averaging windows preserves the global mean (even splits)."""
        db = fresh_db(values, chunk)
        result = db.execute(Q.regrid(Q.scan("A"), (2, 2)))
        np.testing.assert_allclose(
            result.attribute("v").mean(), values.mean(), rtol=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(arrays, chunks)
    def test_regrid_sum_preserves_total(self, values, chunk):
        db = fresh_db(values, chunk)
        result = db.execute(Q.regrid(Q.scan("A"), (4, 4), "sum"))
        np.testing.assert_allclose(
            result.attribute("v").sum(), values.sum(), rtol=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(arrays, chunks)
    def test_regrid_composition(self, values, chunk):
        """regrid(2,2) twice equals regrid(4,4) for averages."""
        db = fresh_db(values, chunk)
        once = db.execute(
            Q.regrid(Q.regrid(Q.scan("A"), (2, 2)), (2, 2))
        ).attribute("v")
        direct = db.execute(Q.regrid(Q.scan("A"), (4, 4))).attribute("v")
        np.testing.assert_allclose(once, direct, rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(arrays, chunks)
    def test_min_le_avg_le_max(self, values, chunk):
        db = fresh_db(values, chunk)
        low = db.execute(Q.regrid(Q.scan("A"), (2, 2), "min")).attribute("v")
        mid = db.execute(Q.regrid(Q.scan("A"), (2, 2), "avg")).attribute("v")
        high = db.execute(Q.regrid(Q.scan("A"), (2, 2), "max")).attribute("v")
        assert np.all(low <= mid + 1e-12)
        assert np.all(mid <= high + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(arrays, chunks)
    def test_store_then_scan_identity(self, values, chunk):
        db = fresh_db(values, chunk)
        db.execute(Q.store(Q.scan("A"), "B"))
        np.testing.assert_array_equal(
            db.execute(Q.scan("B")).attribute("v"), values
        )


class _CellModel:
    """A chunked array modelled one cell at a time.

    Holds every written cell's value and the set of chunks a write has
    created; a read reports a created chunk as read, with all its cells
    scanned, exactly when the region touches one of its cells.
    """

    def __init__(self, dims: tuple[Dimension, ...], dtype: str) -> None:
        self.dims = dims
        self.dtype = np.dtype(dtype)
        self.values: dict[tuple[int, ...], object] = {}
        self.chunks: set[tuple[int, ...]] = set()

    def _chunk_of(self, cell):
        return tuple((c - d.start) // d.chunk for c, d in zip(cell, self.dims))

    def _chunk_cells(self, coords) -> int:
        cells = 1
        for index, d in zip(coords, self.dims):
            lo = d.start + index * d.chunk
            cells *= min(lo + d.chunk, d.end) - lo
        return cells

    @staticmethod
    def _cells(region):
        for offset in np.ndindex(*(hi - lo for lo, hi in region)):
            yield offset, tuple(lo + o for (lo, _), o in zip(region, offset))

    def write(self, region, data: np.ndarray) -> None:
        for offset, cell in self._cells(region):
            self.values[cell] = data[offset]
            self.chunks.add(self._chunk_of(cell))

    def read(self, region) -> tuple[np.ndarray, ReadStats]:
        out = np.zeros([hi - lo for lo, hi in region], dtype=self.dtype)
        touched = set()
        for offset, cell in self._cells(region):
            out[offset] = self.values.get(cell, 0)
            if self._chunk_of(cell) in self.chunks:
                touched.add(self._chunk_of(cell))
        cells = sum(self._chunk_cells(coords) for coords in touched)
        return out, ReadStats(chunks_read=len(touched), cells_scanned=cells)


#: Attributes of the modelled array; one integer-typed.
MODEL_ATTRIBUTES = (Attribute("a"), Attribute("b"), Attribute("c", "int32"))


@st.composite
def model_dimensions(draw):
    """1-3 dimensions, negative origins allowed, chunks that need not
    divide the extent."""
    dims = []
    for axis in range(draw(st.integers(1, 3))):
        start = draw(st.integers(-5, 5))
        length = draw(st.integers(1, 7))
        dims.append(Dimension(f"d{axis}", start, start + length, draw(st.integers(1, 4))))
    return tuple(dims)


def region_within(dims):
    def bounds(d):
        return st.integers(d.start, d.end - 1).flatmap(
            lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, d.end))
        )

    return st.tuples(*(bounds(d) for d in dims))


def empty_modelled_array(draw):
    """A database holding an empty array ``M`` of random dimensions, the
    cell model of each attribute, and a seeded generator for its data."""
    dims = draw(model_dimensions())
    db = Database(clock=VirtualClock())
    db.create_array(ArraySchema("M", attributes=MODEL_ATTRIBUTES, dimensions=dims))
    models = {attr.name: _CellModel(dims, attr.dtype) for attr in MODEL_ATTRIBUTES}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return db, models, rng


def write_at_random(draw, db, models, rng) -> None:
    """One random region write of one attribute, to ``M`` and its model."""
    array = db.array("M")
    attr = draw(st.sampled_from(MODEL_ATTRIBUTES))
    region = draw(region_within(array.schema.dimensions))
    shape = tuple(hi - lo for lo, hi in region)
    data = (rng.normal(size=shape) * 100).astype(attr.dtype)
    array.write(attr.name, data, region)
    models[attr.name].write(region, data)


@st.composite
def modelled_arrays(draw):
    """A database holding array ``M`` after a few random region writes,
    the cell model of each attribute, and a random region to read."""
    db, models, rng = empty_modelled_array(draw)
    for _ in range(draw(st.integers(0, 4))):
        write_at_random(draw, db, models, rng)
    return db, models, draw(region_within(db.schema("M").dimensions))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCellModel:
    """Region reads, writes and projections against the cell model."""

    @settings(max_examples=80, deadline=None)
    @given(modelled_arrays())
    def test_read_matches_cell_model(self, case):
        db, models, region = case
        array = db.array("M")
        full = tuple((d.start, d.end) for d in array.schema.dimensions)
        for name, model in models.items():
            for bounds, expected_region in ((region, region), (None, full)):
                data, stats = array.read(name, bounds)
                expected, expected_stats = model.read(expected_region)
                assert _same(data, expected)
                assert stats == expected_stats

    @settings(max_examples=80, deadline=None)
    @given(modelled_arrays(), st.sets(st.sampled_from([a.name for a in MODEL_ATTRIBUTES])))
    def test_projection_charges_every_attribute_it_drops(self, case, keep):
        """project(scan) and project(subarray(scan)) copy only the kept
        attributes but charge the scan of all of them."""
        db, models, region = case
        keep = tuple(sorted(keep))
        full = tuple((d.start, d.end) for d in db.schema("M").dimensions)
        plans = (
            (Q.project(Q.scan("M"), keep), full),
            (Q.project(Q.subarray(Q.scan("M"), region), keep), region),
        )
        for plan, read_region in plans:
            before = db.clock.now()
            result = db.execute(plan)
            assert tuple(result.attributes) == keep
            for name in keep:
                assert _same(result.attribute(name), models[name].read(read_region)[0])
            reads = [model.read(read_region)[1] for model in models.values()]
            assert result.stats == QueryStats(
                chunks_read=sum(r.chunks_read for r in reads),
                cells_scanned=sum(r.cells_scanned for r in reads),
                cells_computed=0,
                elapsed_seconds=result.stats.elapsed_seconds,
            )
            assert result.stats.elapsed_seconds == db.cost_model.query_cost(
                result.stats.chunks_read, result.stats.cells_scanned, 0
            )
            assert db.clock.now() == before + result.stats.elapsed_seconds

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_chunk_reads_between_writes_keep_their_bytes(self, data):
        """A block from ``read_chunk`` equals the model when taken and
        still equals it after every later write."""
        db, models, rng = empty_modelled_array(data.draw)
        array = db.array("M")
        dims = array.schema.dimensions
        chunk_coords = st.tuples(*(st.integers(0, d.num_chunks - 1) for d in dims))
        taken = []
        for _ in range(data.draw(st.integers(1, 8))):
            if data.draw(st.booleans(), label="write"):
                write_at_random(data.draw, db, models, rng)
                continue
            coords = data.draw(chunk_coords)
            bounds = tuple(d.chunk_bounds(c) for d, c in zip(dims, coords))
            blocks, stats = array.read_chunk(coords)
            reads = []
            for name, model in models.items():
                expected, read_stats = model.read(bounds)
                assert _same(blocks[name], expected)
                taken.append((blocks[name], expected))
                reads.append(read_stats)
            assert stats == ReadStats(
                chunks_read=sum(r.chunks_read for r in reads),
                cells_scanned=sum(r.cells_scanned for r in reads),
            )
        for block, expected in taken:
            assert _same(block, expected)
