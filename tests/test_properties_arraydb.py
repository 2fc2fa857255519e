"""Property-based tests on the array DBMS substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.arraydb.array import ReadStats
from repro.arraydb.cost import QueryStats, VirtualClock
from repro.tiles.pyramid import TilePyramid

SIDE = 8


def fresh_db(values: np.ndarray, chunk: int, **more: np.ndarray) -> Database:
    """A database holding array ``A``: ``values`` as ``v``, plus any
    further attributes given by name."""
    db = Database()
    schema = ArraySchema(
        "A",
        attributes=tuple(Attribute(name) for name in ("v", *more)),
        dimensions=(
            Dimension("y", 0, SIDE, chunk),
            Dimension("x", 0, SIDE, chunk),
        ),
    )
    db.create_array(schema)
    for name, data in {"v": values, **more}.items():
        db.write("A", name, data)
    return db


arrays = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False), min_size=64, max_size=64
).map(lambda vals: np.asarray(vals).reshape(SIDE, SIDE))

chunks = st.sampled_from([1, 2, 4, 8, 3, 5])

#: Pyramid tile sizes over a ``SIDE`` x ``SIDE`` source: 4, 3 or 2 levels.
tile_sizes = st.sampled_from([1, 2, 4])


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


def level_views(pyramid: TilePyramid, attribute: str) -> list[np.ndarray]:
    """One attribute of every level's view, coarsest first."""
    return [
        pyramid.db.read(pyramid.view_name(level), attribute)
        for level in range(pyramid.num_levels)
    ]


class TestPyramidViewProperties:
    @settings(max_examples=30, deadline=None)
    @given(arrays, chunks, tile_sizes)
    def test_avg_preserves_mean(self, values, chunk, tile_size):
        """Averaging windows preserves the global mean (even splits)."""
        pyramid = TilePyramid.build(fresh_db(values, chunk), "A", tile_size)
        for view in level_views(pyramid, "v"):
            np.testing.assert_allclose(view.mean(), values.mean(), rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(arrays, chunks, tile_sizes)
    def test_levels_compose(self, values, chunk, tile_size):
        """Averaging a level's 2x2 windows gives the next coarser level."""
        pyramid = TilePyramid.build(fresh_db(values, chunk), "A", tile_size)
        views = level_views(pyramid, "v")
        for coarse, fine in zip(views, views[1:]):
            n = coarse.shape[0]
            np.testing.assert_allclose(
                fine.reshape(n, 2, n, 2).mean(axis=(1, 3)), coarse, rtol=1e-9
            )

    @settings(max_examples=30, deadline=None)
    @given(arrays, chunks, tile_sizes)
    def test_min_le_avg_le_max(self, values, chunk, tile_size):
        """``v`` averaged lies between ``high`` (= ``v``) and ``-low``
        (``low`` = ``-v``), both coarsened by max."""
        db = fresh_db(values, chunk, low=-values, high=values)
        pyramid = TilePyramid.build(
            db, "A", tile_size, aggregates={"low": "max", "high": "max"}
        )
        views = zip(*(level_views(pyramid, name) for name in ("low", "v", "high")))
        for low, mid, high in views:
            assert np.all(-low <= mid + 1e-12)
            assert np.all(mid <= high + 1e-12)


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
    """Region reads, writes and charged scans against the cell model."""

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
    @given(modelled_arrays(), st.integers(0, 500))
    def test_execute_charges_every_attribute_read_whole(self, case, cells_computed):
        """``execute`` bills every attribute of the array as read whole,
        plus the computed cells, priced once."""
        db, models, _ = case
        full = tuple((d.start, d.end) for d in db.schema("M").dimensions)
        before = db.clock.now()
        stats = db.execute(("M",), cells_computed)
        reads = [model.read(full)[1] for model in models.values()]
        assert stats == QueryStats(
            chunks_read=sum(r.chunks_read for r in reads),
            cells_scanned=sum(r.cells_scanned for r in reads),
            cells_computed=cells_computed,
            elapsed_seconds=stats.elapsed_seconds,
        )
        assert stats.elapsed_seconds == db.cost_model.query_cost(
            stats.chunks_read, stats.cells_scanned, cells_computed
        )
        assert db.clock.now() == before + stats.elapsed_seconds

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
