"""Property-based tests on the array DBMS substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.arraydb import query as Q

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
