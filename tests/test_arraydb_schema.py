"""Unit tests for array schemas."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arraydb.errors import SchemaError
from repro.arraydb.schema import ArraySchema, Attribute, Dimension


class TestDimension:
    def test_length(self):
        assert Dimension("x", 0, 16, 4).length == 16

    def test_length_with_nonzero_start(self):
        assert Dimension("x", 4, 16, 4).length == 12

    def test_num_chunks_exact(self):
        assert Dimension("x", 0, 16, 4).num_chunks == 4

    def test_num_chunks_partial(self):
        assert Dimension("x", 0, 10, 4).num_chunks == 3

    def test_num_chunks_is_exact_beyond_float_precision(self):
        assert Dimension("d", 0, 2**60 + 1, 1).num_chunks == 2**60 + 1

    @given(st.integers(1, 2**62), st.integers(1, 2**62), st.integers(-(2**40), 2**40))
    def test_num_chunks_is_the_least_cover(self, length, chunk, start):
        n = Dimension("d", start, start + length, chunk).num_chunks
        assert n * chunk >= length > (n - 1) * chunk

    def test_chunk_of(self):
        dim = Dimension("x", 0, 16, 4)
        assert dim.chunk_of(0) == 0
        assert dim.chunk_of(3) == 0
        assert dim.chunk_of(4) == 1
        assert dim.chunk_of(15) == 3

    def test_chunk_of_out_of_range(self):
        with pytest.raises(IndexError):
            Dimension("x", 0, 16, 4).chunk_of(16)

    def test_chunk_bounds(self):
        dim = Dimension("x", 0, 10, 4)
        assert dim.chunk_bounds(0) == (0, 4)
        assert dim.chunk_bounds(2) == (8, 10)

    def test_chunk_bounds_out_of_range(self):
        with pytest.raises(IndexError):
            Dimension("x", 0, 10, 4).chunk_bounds(3)

    def test_rejects_empty_range(self):
        with pytest.raises(SchemaError):
            Dimension("x", 5, 5, 1)

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(SchemaError):
            Dimension("x", 0, 8, 0)

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Dimension("", 0, 8, 4)

    def test_str(self):
        assert str(Dimension("x", 0, 8, 4)) == "x=0:8:4"


class TestAttribute:
    def test_default_dtype(self):
        assert Attribute("v").numpy_dtype == np.dtype("float64")

    def test_custom_dtype(self):
        assert Attribute("v", "int32").numpy_dtype == np.dtype("int32")

    def test_rejects_bad_dtype(self):
        with pytest.raises(SchemaError):
            Attribute("v", "not_a_dtype")

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("")


class TestArraySchema:
    def _schema(self) -> ArraySchema:
        return ArraySchema(
            "A",
            attributes=(Attribute("v"), Attribute("w", "int32")),
            dimensions=(Dimension("y", 0, 8, 4), Dimension("x", 0, 16, 4)),
        )

    def test_shape(self):
        assert self._schema().shape == (8, 16)

    def test_attribute_lookup(self):
        assert self._schema().attribute("w").dtype == "int32"

    def test_attribute_lookup_missing(self):
        with pytest.raises(SchemaError):
            self._schema().attribute("nope")

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(SchemaError):
            ArraySchema(
                "A",
                attributes=(Attribute("v"), Attribute("v")),
                dimensions=(Dimension("x", 0, 4, 2),),
            )

    def test_rejects_duplicate_dimensions(self):
        with pytest.raises(SchemaError):
            ArraySchema(
                "A",
                attributes=(Attribute("v"),),
                dimensions=(Dimension("x", 0, 4, 2), Dimension("x", 0, 4, 2)),
            )

    def test_rejects_attribute_dimension_collision(self):
        with pytest.raises(SchemaError):
            ArraySchema(
                "A",
                attributes=(Attribute("x"),),
                dimensions=(Dimension("x", 0, 4, 2),),
            )

    def test_rejects_no_attributes(self):
        with pytest.raises(SchemaError):
            ArraySchema("A", attributes=(), dimensions=(Dimension("x", 0, 4, 2),))

    def test_rejects_no_dimensions(self):
        with pytest.raises(SchemaError, match="at least one dimension"):
            ArraySchema("A", attributes=(Attribute("v"),), dimensions=())

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError, match="array name"):
            ArraySchema(
                "", attributes=(Attribute("v"),), dimensions=(Dimension("x", 0, 4, 2),)
            )

    def test_origin_and_chunk_shape(self):
        schema = ArraySchema(
            "A",
            attributes=(Attribute("v"),),
            dimensions=(Dimension("y", -8, 8, 4), Dimension("x", 3, 10, 5)),
        )
        assert schema.ndim == 2
        assert schema.origin == (-8, 3)
        assert schema.shape == (16, 7)
        assert schema.chunk_shape == (4, 5)

    def test_str_format(self):
        text = str(self._schema())
        assert text.startswith("A<")
        assert "y=0:8:4" in text
