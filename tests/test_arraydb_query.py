"""Unit tests for the query algebra and executor."""

import numpy as np
import pytest

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.arraydb import query as Q
from repro.arraydb.errors import (
    ArrayExistsError,
    ArrayNotFoundError,
    QueryError,
    SchemaError,
    UnknownFunctionError,
)
from repro.arraydb.functions import FunctionRegistry


def load(db: Database, name: str, data: np.ndarray, chunk: int = 4) -> None:
    side = data.shape[0]
    schema = ArraySchema(
        name,
        attributes=(Attribute("v"),),
        dimensions=(
            Dimension("y", 0, side, chunk),
            Dimension("x", 0, side, chunk),
        ),
    )
    db.create_array(schema)
    db.write(name, "v", data)


class TestScanSubarray:
    def test_scan_returns_everything(self, db):
        data = np.arange(64.0).reshape(8, 8)
        load(db, "A", data)
        result = db.execute(Q.scan("A"))
        np.testing.assert_array_equal(result.attribute("v"), data)

    def test_scan_missing_array(self, db):
        with pytest.raises(ArrayNotFoundError):
            db.execute(Q.scan("missing"))

    def test_subarray_pushdown_reads_fewer_chunks(self, db):
        load(db, "A", np.arange(64.0).reshape(8, 8))
        result = db.execute(Q.subarray(Q.scan("A"), ((0, 4), (0, 4))))
        assert result.stats.chunks_read == 1
        assert result.attribute("v").shape == (4, 4)

    def test_subarray_origin(self, db):
        load(db, "A", np.arange(64.0).reshape(8, 8))
        result = db.execute(Q.subarray(Q.scan("A"), ((4, 8), (0, 4))))
        assert result.origin == (4, 0)

    def test_nested_subarray(self, db):
        data = np.arange(64.0).reshape(8, 8)
        load(db, "A", data)
        plan = Q.subarray(Q.subarray(Q.scan("A"), ((2, 8), (2, 8))), ((4, 6), (4, 6)))
        result = db.execute(plan)
        np.testing.assert_array_equal(result.attribute("v"), data[4:6, 4:6])

    def test_subarray_out_of_bounds(self, db):
        load(db, "A", np.arange(64.0).reshape(8, 8))
        with pytest.raises(Exception):
            db.execute(Q.subarray(Q.scan("A"), ((0, 9), (0, 8))))


class TestRegrid:
    def test_average_regrid(self, db):
        load(db, "A", np.arange(16.0).reshape(4, 4), chunk=4)
        result = db.execute(Q.regrid(Q.scan("A"), (2, 2)))
        expected = np.array([[2.5, 4.5], [10.5, 12.5]])
        np.testing.assert_array_equal(result.attribute("v"), expected)

    def test_sum_regrid(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        result = db.execute(Q.regrid(Q.scan("A"), (2, 2), "sum"))
        np.testing.assert_array_equal(result.attribute("v"), np.full((2, 2), 4.0))

    def test_max_regrid(self, db):
        load(db, "A", np.arange(16.0).reshape(4, 4), chunk=4)
        result = db.execute(Q.regrid(Q.scan("A"), (2, 2), "max"))
        np.testing.assert_array_equal(
            result.attribute("v"), np.array([[5.0, 7.0], [13.0, 15.0]])
        )

    def test_count_regrid(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        result = db.execute(Q.regrid(Q.scan("A"), (2, 2), "count"))
        np.testing.assert_array_equal(result.attribute("v"), np.full((2, 2), 4.0))

    def test_uneven_edges_aggregate_partial_windows(self, db):
        load(db, "A", np.arange(9.0).reshape(3, 3), chunk=3)
        result = db.execute(Q.regrid(Q.scan("A"), (2, 2)))
        assert result.attribute("v").shape == (2, 2)
        # Bottom-right window holds only cell (2, 2) = 8.
        assert result.attribute("v")[1, 1] == 8.0

    def test_paper_figure3_shape(self, db):
        """A 16x16 array with aggregation parameters (2,2) becomes 8x8."""
        load(db, "A", np.random.default_rng(0).random((16, 16)), chunk=8)
        result = db.execute(Q.regrid(Q.scan("A"), (2, 2)))
        assert result.attribute("v").shape == (8, 8)

    def test_unknown_aggregate(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        with pytest.raises(QueryError):
            db.execute(Q.regrid(Q.scan("A"), (2, 2), "median"))

    def test_bad_intervals(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        with pytest.raises(QueryError):
            db.execute(Q.regrid(Q.scan("A"), (0, 2)))


class TestApplyJoinProject:
    def test_apply_adds_attribute(self, db):
        load(db, "A", np.full((4, 4), 3.0), chunk=4)
        plan = Q.apply(Q.scan("A"), "double", "add", ("v", "v"))
        result = db.execute(plan)
        np.testing.assert_array_equal(result.attribute("double"), np.full((4, 4), 6.0))
        assert "v" in result.attributes

    def test_apply_unknown_function(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        with pytest.raises(UnknownFunctionError):
            db.execute(Q.apply(Q.scan("A"), "out", "nope", ("v",)))

    def test_apply_duplicate_output(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        with pytest.raises(QueryError):
            db.execute(Q.apply(Q.scan("A"), "v", "identity", ("v",)))

    def test_join_qualifies_colliding_names(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        load(db, "B", np.full((4, 4), 2.0), chunk=4)
        result = db.execute(Q.join(Q.scan("A"), Q.scan("B")))
        assert set(result.attributes) == {"A.v", "B.v"}

    def test_join_keeps_distinct_names(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        schema = ArraySchema(
            "C",
            attributes=(Attribute("w"),),
            dimensions=(Dimension("y", 0, 4, 4), Dimension("x", 0, 4, 4)),
        )
        db.create_array(schema)
        db.write("C", "w", np.zeros((4, 4)))
        result = db.execute(Q.join(Q.scan("A"), Q.scan("C")))
        assert set(result.attributes) == {"v", "w"}

    def test_join_misaligned_raises(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        load(db, "B", np.ones((8, 8)), chunk=4)
        with pytest.raises(QueryError):
            db.execute(Q.join(Q.scan("A"), Q.scan("B")))

    def test_project_keeps_requested(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        plan = Q.project(
            Q.apply(Q.scan("A"), "w", "identity", ("v",)),
            ("w",),
        )
        result = db.execute(plan)
        assert list(result.attributes) == ["w"]

    def test_project_unknown_attribute(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        with pytest.raises(QueryError):
            db.execute(Q.project(Q.scan("A"), ("nope",)))


class TestStore:
    def test_store_materializes(self, db):
        load(db, "A", np.arange(16.0).reshape(4, 4), chunk=4)
        db.execute(Q.store(Q.regrid(Q.scan("A"), (2, 2)), "A2"))
        assert db.schema("A2").shape == (2, 2)

    def test_store_duplicate_name(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        with pytest.raises(ArrayExistsError):
            db.execute(Q.store(Q.scan("A"), "A"))

    def test_store_with_chunks(self, db):
        load(db, "A", np.ones((8, 8)), chunk=4)
        db.execute(Q.store(Q.scan("A"), "B", chunks=(2, 2)))
        assert db.schema("B").chunk_shape == (2, 2)

    def test_stored_array_is_queryable(self, db):
        load(db, "A", np.arange(16.0).reshape(4, 4), chunk=4)
        db.execute(Q.store(Q.regrid(Q.scan("A"), (2, 2)), "A2"))
        result = db.execute(Q.scan("A2"))
        assert result.attribute("v")[0, 0] == pytest.approx(2.5)


class TestCostAccounting:
    def test_stats_populated(self, db):
        load(db, "A", np.ones((8, 8)), chunk=4)
        result = db.execute(Q.regrid(Q.scan("A"), (2, 2)))
        assert result.stats.chunks_read == 4
        assert result.stats.cells_scanned == 64
        assert result.stats.cells_computed == 16
        assert result.stats.elapsed_seconds > 0

    def test_clock_advances(self):
        from repro.arraydb import CostModel, VirtualClock

        clock = VirtualClock()
        db = Database(cost_model=CostModel(per_query_overhead=1.0), clock=clock)
        load(db, "A", np.ones((4, 4)), chunk=4)
        db.execute(Q.scan("A"))
        assert clock.now() >= 1.0

    def test_custom_registry(self):
        registry = FunctionRegistry()
        registry.register("triple", lambda v: v * 3)
        db = Database(registry=registry)
        load(db, "A", np.ones((4, 4)), chunk=4)
        result = db.execute(Q.apply(Q.scan("A"), "t", "triple", ("v",)))
        assert result.attribute("t")[0, 0] == 3.0

    def test_drop_array(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        db.drop_array("A")
        with pytest.raises(ArrayNotFoundError):
            db.array("A")
        with pytest.raises(ArrayNotFoundError):
            db.drop_array("A")


class TestPlanErrors:
    """Malformed plans are refused with a typed error, not a numpy one."""

    def test_unknown_node_type(self, db):
        class Sample(Q.QueryNode):
            pass

        with pytest.raises(QueryError, match="unknown query node Sample"):
            db.execute(Sample())

    def test_result_has_no_such_attribute(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        result = db.execute(Q.scan("A"))
        with pytest.raises(SchemaError, match="no attribute 'w'"):
            result.attribute("w")

    def test_subarray_of_a_result_needs_its_dimensionality(self, db):
        load(db, "A", np.ones((8, 8)), chunk=4)
        plan = Q.subarray(Q.regrid(Q.scan("A"), (2, 2)), ((0, 2),))
        with pytest.raises(QueryError, match="1 dimensions, input has 2"):
            db.execute(plan)

    @pytest.mark.parametrize(
        "bounds", [((0, 5), (0, 4)), ((-1, 2), (0, 4)), ((2, 2), (0, 4))]
    )
    def test_subarray_of_a_result_stays_inside_it(self, db, bounds):
        load(db, "A", np.ones((8, 8)), chunk=4)
        plan = Q.subarray(Q.regrid(Q.scan("A"), (2, 2)), bounds)
        with pytest.raises(QueryError, match="outside input range"):
            db.execute(plan)

    def test_subarray_of_a_result_slices_it(self, db):
        data = np.arange(64.0).reshape(8, 8)
        load(db, "A", data, chunk=4)
        regridded = db.execute(Q.regrid(Q.scan("A"), (2, 2))).attribute("v")
        result = db.execute(
            Q.subarray(Q.regrid(Q.scan("A"), (2, 2)), ((1, 3), (2, 4)))
        )
        np.testing.assert_array_equal(result.attribute("v"), regridded[1:3, 2:4])
        assert result.origin == (1, 2)

    def test_regrid_needs_one_interval_per_dimension(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        with pytest.raises(QueryError, match="1 intervals, input has 2"):
            db.execute(Q.regrid(Q.scan("A"), (2,)))

    def test_apply_input_must_exist(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        with pytest.raises(QueryError, match="apply input 'w' not found"):
            db.execute(Q.apply(Q.scan("A"), "out", "identity", ("w",)))

    def test_apply_udf_must_keep_the_shape(self):
        registry = FunctionRegistry()
        registry.register("first_row", lambda v: v[0])
        db = Database(registry=registry)
        load(db, "A", np.ones((4, 4)), chunk=4)
        with pytest.raises(QueryError, match=r"returned shape \(4,\)"):
            db.execute(Q.apply(Q.scan("A"), "out", "first_row", ("v",)))

    def test_join_refuses_a_qualified_name_that_collides(self, db):
        """Qualifying ``v`` as ``B.v`` must not overwrite a right-hand
        attribute that is already called ``B.v``."""
        load(db, "B", np.ones((4, 4)), chunk=4)
        schema = ArraySchema(
            "C",
            attributes=(Attribute("v"), Attribute("B.v")),
            dimensions=(Dimension("y", 0, 4, 4), Dimension("x", 0, 4, 4)),
        )
        db.create_array(schema)
        with pytest.raises(QueryError, match="duplicate attribute 'B.v'"):
            db.execute(Q.join(Q.scan("B"), Q.scan("C")))

    def test_join_of_results_without_a_source_qualifies_by_side(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        load(db, "B", np.full((4, 4), 2.0), chunk=4)
        pair = Q.join(Q.scan("A"), Q.scan("B"))
        result = db.execute(Q.join(pair, pair))
        assert set(result.attributes) == {
            "left.A.v", "left.B.v", "right.A.v", "right.B.v",
        }
        assert result.attribute("right.B.v")[0, 0] == 2.0

    def test_store_chunks_need_one_interval_per_dimension(self, db):
        load(db, "A", np.ones((4, 4)), chunk=4)
        with pytest.raises(QueryError, match="store chunks have 1 dimensions"):
            db.execute(Q.store(Q.scan("A"), "B", chunks=(2,)))
        with pytest.raises(ArrayNotFoundError):
            db.array("B")

    def test_store_of_a_region_keeps_its_origin(self, db):
        data = np.arange(64.0).reshape(8, 8)
        load(db, "A", data, chunk=4)
        db.execute(Q.store(Q.subarray(Q.scan("A"), ((2, 6), (4, 8))), "W"))
        assert db.schema("W").origin == (2, 4)
        np.testing.assert_array_equal(db.read("W", "v"), data[2:6, 4:8])

    def test_apply_casts_to_the_requested_dtype(self, db):
        load(db, "A", np.full((4, 4), 2.5), chunk=4)
        result = db.execute(
            Q.apply(Q.scan("A"), "n", "identity", ("v",), dtype="int32")
        )
        assert result.attribute("n").dtype == np.dtype("int32")
        assert result.attribute("n")[0, 0] == 2


class TestDefaultFunctions:
    def test_safe_div_is_zero_where_the_divisor_is(self, db):
        schema = ArraySchema(
            "P",
            attributes=(Attribute("a"), Attribute("b")),
            dimensions=(Dimension("y", 0, 2, 2), Dimension("x", 0, 2, 2)),
        )
        db.create_array(schema)
        db.write("P", "a", np.asarray([[1.0, 2.0], [3.0, 4.0]]))
        db.write("P", "b", np.asarray([[2.0, 0.0], [0.5, 0.0]]))
        result = db.execute(Q.apply(Q.scan("P"), "q", "safe_div", ("a", "b")))
        np.testing.assert_array_equal(
            result.attribute("q"), [[0.5, 0.0], [6.0, 0.0]]
        )

    def test_a_name_registers_once(self):
        registry = FunctionRegistry()
        registry.register("f", lambda v: v)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("f", lambda v: v + 1)
        assert registry.get("f")(1) == 1

    def test_overwrite_replaces_a_function(self):
        registry = FunctionRegistry()
        registry.register("f", lambda v: v)
        registry.register("f", lambda v: v + 1, overwrite=True)
        assert registry.get("f")(1) == 2
        assert "f" in registry
