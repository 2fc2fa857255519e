"""Query execution against a :class:`Database`.

The executor walks the operator tree bottom-up, producing dense
intermediates, and charges every storage read and compute step to a
:class:`~repro.arraydb.cost.QueryStats` ledger.  When the database owns a
:class:`~repro.arraydb.cost.VirtualClock`, each query advances the clock
by the cost model's charge for that ledger — this is what makes backend
fetches "slow" relative to middleware cache hits in the latency
experiments.

Two planner niceties are implemented: ``subarray(scan(A), bounds)`` is
fused into a single region read, so a region query only touches the chunks
that overlap it rather than scanning the whole array; and a ``project``
directly over such a read copies only the attributes it keeps (the
dropped ones are still charged as scanned, so costs do not change).
Tile fetches do not go through a plan at all: a tile is one whole chunk
per attribute, which :meth:`Database.fetch_chunk` reads directly and
charges exactly as that fused query would be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arraydb import query as Q
from repro.arraydb.array import ChunkedArray
from repro.arraydb.cost import CostModel, QueryStats, VirtualClock
from repro.arraydb.errors import (
    ArrayExistsError,
    ArrayNotFoundError,
    QueryError,
    SchemaError,
)
from repro.arraydb.functions import FunctionRegistry, default_registry
from repro.arraydb.schema import ArraySchema, Attribute, Dimension
from repro.arraydb.storage import MemoryChunkStore

_REDUCTIONS = {
    "avg": np.nanmean,
    "sum": np.nansum,
    "min": np.nanmin,
    "max": np.nanmax,
    "std": np.nanstd,
}


@dataclass
class _Intermediate:
    """A dense in-flight result: dimension names, origin, and attributes."""

    dim_names: tuple[str, ...]
    origin: tuple[int, ...]
    attributes: dict[str, np.ndarray]
    source: str = ""

    @property
    def shape(self) -> tuple[int, ...]:
        return next(iter(self.attributes.values())).shape

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))


@dataclass
class ArrayResult:
    """The materialized result of :meth:`Database.execute`."""

    dim_names: tuple[str, ...]
    origin: tuple[int, ...]
    attributes: dict[str, np.ndarray]
    stats: QueryStats

    def attribute(self, name: str) -> np.ndarray:
        """Fetch one output attribute by name."""
        try:
            return self.attributes[name]
        except KeyError:
            raise SchemaError(f"result has no attribute {name!r}") from None


class Database:
    """An in-process array database: catalog + chunk store + executor."""

    def __init__(
        self,
        registry: FunctionRegistry | None = None,
        cost_model: CostModel | None = None,
        clock: VirtualClock | None = None,
    ) -> None:
        self._store = MemoryChunkStore()
        self.registry = registry if registry is not None else default_registry
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.clock = clock
        self._catalog: dict[str, ChunkedArray] = {}

    # ------------------------------------------------------------------
    # catalog operations
    # ------------------------------------------------------------------
    def create_array(self, schema: ArraySchema) -> ChunkedArray:
        """Register a new (empty) array under ``schema.name``."""
        if schema.name in self._catalog:
            raise ArrayExistsError(schema.name)
        array = ChunkedArray(schema, self._store)
        self._catalog[schema.name] = array
        return array

    def drop_array(self, name: str) -> None:
        """Delete an array and all its chunks."""
        array = self._catalog.pop(name, None)
        if array is None:
            raise ArrayNotFoundError(name)
        array.drop()

    def array(self, name: str) -> ChunkedArray:
        """Look up a stored array."""
        try:
            return self._catalog[name]
        except KeyError:
            raise ArrayNotFoundError(name) from None

    def schema(self, name: str) -> ArraySchema:
        """Schema of a stored array."""
        return self.array(name).schema

    # ------------------------------------------------------------------
    # direct (uncharged) data access — used by loaders and tests
    # ------------------------------------------------------------------
    def write(
        self, name: str, attribute: str, data: np.ndarray, region=None
    ) -> None:
        """Bulk-load data into an array without charging query cost."""
        self.array(name).write(attribute, data, region)

    def read(self, name: str, attribute: str, region=None) -> np.ndarray:
        """Read data directly without charging query cost."""
        data, _ = self.array(name).read(attribute, region)
        return data

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def execute(self, node: Q.QueryNode) -> ArrayResult:
        """Run a query plan, charge its cost, and return the result."""
        stats = QueryStats()
        inter = self._eval(node, stats)
        result = ArrayResult(
            dim_names=inter.dim_names,
            origin=inter.origin,
            attributes=dict(inter.attributes),
            stats=stats,
        )
        self._charge(stats)
        return result

    def fetch_chunk(
        self, name: str, coords: tuple[int, ...]
    ) -> tuple[dict[str, np.ndarray], QueryStats]:
        """Read every attribute of one whole chunk of ``name``, charged.

        The data, the ledger and the clock advance are those of
        ``execute(subarray(scan(name), <that chunk's bounds>))``, without
        building or walking a plan: a chunk is the storage unit, so
        fetching one is a look-up.  See :meth:`ChunkedArray.read_chunk`.
        """
        blocks, read_stats = self.array(name).read_chunk(coords)
        stats = QueryStats(read_stats.chunks_read, read_stats.cells_scanned)
        self._charge(stats)
        return blocks, stats

    def _charge(self, stats: QueryStats) -> None:
        """Price a finished ledger and advance the clock by it."""
        cost = self.cost_model.query_cost(
            stats.chunks_read, stats.cells_scanned, stats.cells_computed
        )
        stats.elapsed_seconds = cost
        if self.clock is not None:
            self.clock.advance(cost)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _eval(self, node: Q.QueryNode, stats: QueryStats) -> _Intermediate:
        if isinstance(node, Q.Scan):
            return self._eval_scan(node, None, stats)
        if isinstance(node, Q.Subarray):
            if isinstance(node.child, Q.Scan):
                # Pushdown: read only the requested region.
                return self._eval_scan(node.child, node.bounds, stats)
            return self._eval_subarray(node, stats)
        if isinstance(node, Q.Regrid):
            return self._eval_regrid(node, stats)
        if isinstance(node, Q.Apply):
            return self._eval_apply(node, stats)
        if isinstance(node, Q.Join):
            return self._eval_join(node, stats)
        if isinstance(node, Q.Project):
            return self._eval_project(node, stats)
        if isinstance(node, Q.Store):
            return self._eval_store(node, stats)
        raise QueryError(f"unknown query node {type(node).__name__}")

    def _eval_scan(
        self,
        node: Q.Scan,
        bounds,
        stats: QueryStats,
        keep: tuple[str, ...] | None = None,
    ) -> _Intermediate:
        """Read ``node``'s array (within ``bounds``, if given).

        Only the attributes named in ``keep`` (default: all) are
        materialised; the others are charged exactly as if read.
        """
        array = self.array(node.array)
        schema = array.schema
        attributes: dict[str, np.ndarray] = {}
        for attr in schema.attributes:
            if keep is None or attr.name in keep:
                data, read_stats = array.read(attr.name, bounds)
                attributes[attr.name] = data
            else:
                read_stats = array._read_stats(attr.name, bounds)
            stats.merge_read(read_stats.chunks_read, read_stats.cells_scanned)
        origin = (
            tuple(lo for lo, _ in bounds)
            if bounds is not None
            else schema.origin
        )
        return _Intermediate(
            dim_names=tuple(d.name for d in schema.dimensions),
            origin=origin,
            attributes=attributes,
            source=schema.name,
        )

    def _eval_subarray(self, node: Q.Subarray, stats: QueryStats) -> _Intermediate:
        child = self._eval(node.child, stats)
        if len(node.bounds) != len(child.shape):
            raise QueryError(
                f"subarray bounds have {len(node.bounds)} dimensions, "
                f"input has {len(child.shape)}"
            )
        slices = []
        for (lo, hi), o, n in zip(node.bounds, child.origin, child.shape):
            if lo < o or hi > o + n or lo >= hi:
                raise QueryError(
                    f"subarray bounds ({lo}, {hi}) outside input range "
                    f"[{o}, {o + n})"
                )
            slices.append(slice(lo - o, hi - o))
        attributes = {
            name: data[tuple(slices)] for name, data in child.attributes.items()
        }
        return _Intermediate(
            dim_names=child.dim_names,
            origin=tuple(lo for lo, _ in node.bounds),
            attributes=attributes,
            source=child.source,
        )

    def _eval_regrid(self, node: Q.Regrid, stats: QueryStats) -> _Intermediate:
        child = self._eval(node.child, stats)
        intervals = node.intervals
        if len(intervals) != len(child.shape):
            raise QueryError(
                f"regrid has {len(intervals)} intervals, input has "
                f"{len(child.shape)} dimensions"
            )
        if any(j <= 0 for j in intervals):
            raise QueryError(f"regrid intervals must be positive: {intervals}")
        attributes = {
            name: _window_aggregate(data, intervals, node.aggregate)
            for name, data in child.attributes.items()
        }
        out_cells = int(
            np.prod(next(iter(attributes.values())).shape, dtype=np.int64)
        )
        stats.merge_compute(out_cells * len(attributes))
        origin = tuple(o // j for o, j in zip(child.origin, intervals))
        return _Intermediate(
            dim_names=child.dim_names,
            origin=origin,
            attributes=attributes,
            source=child.source,
        )

    def _eval_apply(self, node: Q.Apply, stats: QueryStats) -> _Intermediate:
        child = self._eval(node.child, stats)
        if node.attribute in child.attributes:
            raise QueryError(f"apply output {node.attribute!r} already exists")
        func = self.registry.get(node.function)
        args = []
        for name in node.inputs:
            if name not in child.attributes:
                raise QueryError(f"apply input {name!r} not found in child result")
            args.append(child.attributes[name])
        out = np.asarray(func(*args), dtype=node.dtype)
        if out.shape != child.shape:
            raise QueryError(
                f"UDF {node.function!r} returned shape {out.shape}, "
                f"expected {child.shape}"
            )
        stats.merge_compute(out.size)
        attributes = dict(child.attributes)
        attributes[node.attribute] = out
        return _Intermediate(
            dim_names=child.dim_names,
            origin=child.origin,
            attributes=attributes,
            source=child.source,
        )

    def _eval_join(self, node: Q.Join, stats: QueryStats) -> _Intermediate:
        left = self._eval(node.left, stats)
        right = self._eval(node.right, stats)
        if left.shape != right.shape or left.origin != right.origin:
            raise QueryError(
                f"join inputs are not cell-aligned: "
                f"{left.origin}+{left.shape} vs {right.origin}+{right.shape}"
            )
        attributes: dict[str, np.ndarray] = {}
        collisions = set(left.attributes) & set(right.attributes)
        for side in (left, right):
            for name, data in side.attributes.items():
                key = name
                if name in collisions:
                    prefix = side.source or ("left" if side is left else "right")
                    key = f"{prefix}.{name}"
                if key in attributes:
                    raise QueryError(f"join produced duplicate attribute {key!r}")
                attributes[key] = data
        stats.merge_compute(left.cell_count)
        return _Intermediate(
            dim_names=left.dim_names,
            origin=left.origin,
            attributes=attributes,
            source="",
        )

    def _eval_project(self, node: Q.Project, stats: QueryStats) -> _Intermediate:
        # Over a scan, or a pushed-down subarray of one, read only the
        # attributes the projection keeps.
        source, bounds = node.child, None
        if isinstance(source, Q.Subarray) and isinstance(source.child, Q.Scan):
            source, bounds = source.child, source.bounds
        if isinstance(source, Q.Scan):
            child = self._eval_scan(source, bounds, stats, keep=node.attributes)
        else:
            child = self._eval(node.child, stats)
        missing = [a for a in node.attributes if a not in child.attributes]
        if missing:
            raise QueryError(f"project references unknown attributes {missing}")
        attributes = {name: child.attributes[name] for name in node.attributes}
        return _Intermediate(
            dim_names=child.dim_names,
            origin=child.origin,
            attributes=attributes,
            source=child.source,
        )

    def _eval_store(self, node: Q.Store, stats: QueryStats) -> _Intermediate:
        child = self._eval(node.child, stats)
        chunks = node.chunks if node.chunks is not None else child.shape
        if len(chunks) != len(child.shape):
            raise QueryError(
                f"store chunks have {len(chunks)} dimensions, result has "
                f"{len(child.shape)}"
            )
        dims = tuple(
            Dimension(name, o, o + n, c)
            for name, o, n, c in zip(
                child.dim_names, child.origin, child.shape, chunks
            )
        )
        attrs = tuple(
            Attribute(name, str(data.dtype))
            for name, data in child.attributes.items()
        )
        schema = ArraySchema(node.name, attributes=attrs, dimensions=dims)
        array = self.create_array(schema)
        for name, data in child.attributes.items():
            array.write(name, data)
        return _Intermediate(
            dim_names=child.dim_names,
            origin=child.origin,
            attributes=dict(child.attributes),
            source=node.name,
        )


def _window_aggregate(
    data: np.ndarray, intervals: tuple[int, ...], aggregate: str
) -> np.ndarray:
    """Collapse ``j1 x j2 x ...`` windows of ``data`` into single cells.

    Edges that do not divide evenly are padded with NaN and reduced with
    the nan-aware reducer, so partial windows aggregate over the cells
    they actually contain (SciDB regrid semantics).
    """
    if aggregate == "count":
        reducer = None
    else:
        reducer = _REDUCTIONS.get(aggregate)
        if reducer is None:
            raise QueryError(f"unknown regrid aggregate {aggregate!r}")

    padded_shape = tuple(
        -(-n // j) * j for n, j in zip(data.shape, intervals)
    )
    if padded_shape != data.shape:
        padded = np.full(padded_shape, np.nan, dtype="float64")
        padded[tuple(slice(0, n) for n in data.shape)] = data
    else:
        padded = np.asarray(data, dtype="float64")

    # Reshape to (n1/j1, j1, n2/j2, j2, ...) and reduce the window axes.
    new_shape: list[int] = []
    for n, j in zip(padded.shape, intervals):
        new_shape.extend([n // j, j])
    blocked = padded.reshape(new_shape)
    window_axes = tuple(range(1, 2 * len(intervals), 2))
    if aggregate == "count":
        return np.sum(~np.isnan(blocked), axis=window_axes).astype("float64")
    with np.errstate(invalid="ignore"):
        return np.asarray(reducer(blocked, axis=window_axes), dtype="float64")
