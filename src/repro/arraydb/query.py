"""AFL-style operator algebra.

Query plans are immutable trees of operator nodes.  The paper's Query 1::

    store(
      apply(
        join(S_VIS, S_SWIR),
        ndsi,
        ndsi_func(S_VIS.reflectance, S_SWIR.reflectance)
      ),
      NDSI
    );

is expressed here as::

    store(
        apply(
            join(scan("S_VIS"), scan("S_SWIR")),
            "ndsi",
            "ndsi_func",
            ("S_VIS.reflectance", "S_SWIR.reflectance"),
        ),
        "NDSI",
    )

Lower-case factory functions build the node dataclasses, mirroring AFL's
functional syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Region = tuple[tuple[int, int], ...]


class QueryNode:
    """Base class for all operator nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Scan(QueryNode):
    """Read a stored array."""

    array: str


@dataclass(frozen=True)
class Subarray(QueryNode):
    """Select a rectangular region (bounds are ``[lo, hi)`` per dimension)."""

    child: QueryNode
    bounds: Region


@dataclass(frozen=True)
class Regrid(QueryNode):
    """Aggregate fixed-size windows into single cells (Figure 3).

    ``intervals`` holds the aggregation parameter ``j`` per dimension;
    every ``j_1 x j_2 x ...`` window collapses to one output cell using
    ``aggregate`` (one of avg/sum/min/max/count).
    """

    child: QueryNode
    intervals: tuple[int, ...]
    aggregate: str = "avg"


@dataclass(frozen=True)
class Apply(QueryNode):
    """Compute a new attribute by applying a registered UDF per cell."""

    child: QueryNode
    attribute: str
    function: str
    inputs: tuple[str, ...]
    dtype: str = "float64"


@dataclass(frozen=True)
class Join(QueryNode):
    """Equi-join two arrays on their (identical) dimension grids.

    Attribute-name collisions are resolved by qualifying each colliding
    attribute with its source array name (``S_VIS.reflectance``), matching
    how the paper's query references join outputs.
    """

    left: QueryNode
    right: QueryNode


@dataclass(frozen=True)
class Project(QueryNode):
    """Keep only the named attributes."""

    child: QueryNode
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class Store(QueryNode):
    """Materialize the child's result as a new stored array."""

    child: QueryNode
    name: str
    chunks: tuple[int, ...] | None = field(default=None)


# ----------------------------------------------------------------------
# AFL-style factory functions
# ----------------------------------------------------------------------
def scan(array: str) -> Scan:
    """``scan(A)`` — read stored array ``A``."""
    return Scan(array)


def subarray(child: QueryNode, bounds: Region) -> Subarray:
    """``subarray(Q, bounds)`` — rectangular window of ``Q``."""
    return Subarray(child, tuple(tuple(b) for b in bounds))


def regrid(
    child: QueryNode, intervals: tuple[int, ...], aggregate: str = "avg"
) -> Regrid:
    """``regrid(Q, (j1, j2), avg)`` — window aggregation."""
    return Regrid(child, tuple(int(j) for j in intervals), aggregate)


def apply(
    child: QueryNode,
    attribute: str,
    function: str,
    inputs: tuple[str, ...],
    dtype: str = "float64",
) -> Apply:
    """``apply(Q, name, f, inputs)`` — add computed attribute ``name``."""
    return Apply(child, attribute, function, tuple(inputs), dtype)


def join(left: QueryNode, right: QueryNode) -> Join:
    """``join(A, B)`` — cell-aligned equi-join on dimensions."""
    return Join(left, right)


def project(child: QueryNode, attributes: tuple[str, ...]) -> Project:
    """``project(Q, attrs)`` — keep only ``attrs``."""
    return Project(child, tuple(attributes))


def store(
    child: QueryNode, name: str, chunks: tuple[int, ...] | None = None
) -> Store:
    """``store(Q, name)`` — materialize ``Q`` as array ``name``."""
    return Store(child, name, None if chunks is None else tuple(chunks))
