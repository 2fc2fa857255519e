"""Array schemas: named dimensions and typed attributes.

Mirrors the SciDB schema notation used in the paper (Section 5.1.2)::

    S_VIS(reflectance)[latitude, longitude]

Attributes are the per-cell values; dimensions define the coordinate grid
and its chunking.  Dimension ranges are half-open ``[start, end)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.arraydb.errors import SchemaError


@dataclass(frozen=True)
class Dimension:
    """A named, integer-indexed array dimension.

    Parameters
    ----------
    name:
        Dimension name, e.g. ``"latitude"``.
    start:
        First valid coordinate (inclusive).
    end:
        One past the last valid coordinate (exclusive).
    chunk:
        Chunk interval along this dimension.  Storage splits the
        coordinate range into blocks of this many cells.
    """

    name: str
    start: int
    end: int
    chunk: int

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("dimension name must be non-empty")
        if self.end <= self.start:
            raise SchemaError(
                f"dimension {self.name!r}: end ({self.end}) must be greater "
                f"than start ({self.start})"
            )
        if self.chunk <= 0:
            raise SchemaError(
                f"dimension {self.name!r}: chunk interval must be positive, "
                f"got {self.chunk}"
            )

    @property
    def length(self) -> int:
        """Number of cells along this dimension."""
        return self.end - self.start

    @property
    def num_chunks(self) -> int:
        """Number of chunks needed to cover the dimension."""
        return -(-self.length // self.chunk)

    def chunk_of(self, coordinate: int) -> int:
        """Return the chunk index containing ``coordinate``."""
        if not self.start <= coordinate < self.end:
            raise IndexError(
                f"coordinate {coordinate} outside dimension {self.name!r} "
                f"range [{self.start}, {self.end})"
            )
        return (coordinate - self.start) // self.chunk

    def chunk_bounds(self, chunk_index: int) -> tuple[int, int]:
        """Return the ``[start, end)`` coordinate range of a chunk."""
        if not 0 <= chunk_index < self.num_chunks:
            raise IndexError(
                f"chunk {chunk_index} outside dimension {self.name!r} "
                f"(has {self.num_chunks} chunks)"
            )
        lo = self.start + chunk_index * self.chunk
        hi = min(lo + self.chunk, self.end)
        return lo, hi

    def __str__(self) -> str:
        return f"{self.name}={self.start}:{self.end}:{self.chunk}"


@dataclass(frozen=True)
class Attribute:
    """A named, typed per-cell value.

    Parameters
    ----------
    name:
        Attribute name, e.g. ``"reflectance"``.
    dtype:
        Any numpy-compatible dtype string (default ``"float64"``).
    """

    name: str
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        try:
            np.dtype(self.dtype)
        except TypeError as exc:
            raise SchemaError(
                f"attribute {self.name!r}: invalid dtype {self.dtype!r}"
            ) from exc

    @property
    def numpy_dtype(self) -> np.dtype:
        """The attribute's dtype as a numpy dtype object."""
        return np.dtype(self.dtype)

    def __str__(self) -> str:
        return f"{self.name}:{self.dtype}"


@dataclass(frozen=True)
class ArraySchema:
    """The full schema of a stored array: name, attributes, dimensions."""

    name: str
    attributes: tuple[Attribute, ...] = field(default_factory=tuple)
    dimensions: tuple[Dimension, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("array name must be non-empty")
        if not self.attributes:
            raise SchemaError(f"array {self.name!r} needs at least one attribute")
        if not self.dimensions:
            raise SchemaError(f"array {self.name!r} needs at least one dimension")
        attr_names = [a.name for a in self.attributes]
        if len(set(attr_names)) != len(attr_names):
            raise SchemaError(f"array {self.name!r} has duplicate attribute names")
        dim_names = [d.name for d in self.dimensions]
        if len(set(dim_names)) != len(dim_names):
            raise SchemaError(f"array {self.name!r} has duplicate dimension names")
        if set(attr_names) & set(dim_names):
            raise SchemaError(
                f"array {self.name!r}: attribute and dimension names overlap"
            )

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.dimensions)

    @property
    def shape(self) -> tuple[int, ...]:
        """Cell counts along each dimension."""
        return tuple(d.length for d in self.dimensions)

    @property
    def origin(self) -> tuple[int, ...]:
        """Starting coordinate along each dimension."""
        return tuple(d.start for d in self.dimensions)

    @property
    def cell_count(self) -> int:
        """Total number of cells in the array."""
        return int(np.prod(self.shape, dtype=np.int64))

    @property
    def chunk_shape(self) -> tuple[int, ...]:
        """Chunk interval along each dimension."""
        return tuple(d.chunk for d in self.dimensions)

    @property
    def chunk_grid(self) -> tuple[int, ...]:
        """Number of chunks along each dimension."""
        return tuple(d.num_chunks for d in self.dimensions)

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"array {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name: str) -> bool:
        """Return True if an attribute with this name exists."""
        return any(attr.name == name for attr in self.attributes)

    def dimension(self, name: str) -> Dimension:
        """Look up a dimension by name."""
        for dim in self.dimensions:
            if dim.name == name:
                return dim
        raise SchemaError(f"array {self.name!r} has no dimension {name!r}")

    def renamed(self, new_name: str) -> "ArraySchema":
        """Return a copy of this schema under a different array name."""
        return replace(self, name=new_name)

    def with_attributes(self, attributes: tuple[Attribute, ...]) -> "ArraySchema":
        """Return a copy of this schema with a different attribute list."""
        return replace(self, attributes=attributes)

    def same_grid(self, other: "ArraySchema") -> bool:
        """True if two schemas share dimension names, ranges, and chunks."""
        if self.ndim != other.ndim:
            return False
        return all(
            a.name == b.name and a.start == b.start and a.end == b.end
            for a, b in zip(self.dimensions, other.dimensions)
        )

    def __str__(self) -> str:
        attrs = ", ".join(str(a) for a in self.attributes)
        dims = ", ".join(str(d) for d in self.dimensions)
        return f"{self.name}<{attrs}>[{dims}]"
