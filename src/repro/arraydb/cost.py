"""Query cost model and virtual clock.

The paper's latency numbers (Section 5.5) come from a real SciDB testbed:
a cache hit answered from middleware memory took **19.5 ms** on average; a
cache miss that had to query SciDB took **984.0 ms**.  Our substrate is an
in-process simulator, so instead of wall-clock time we charge each query
against a :class:`CostModel` and advance a :class:`VirtualClock`.  The
model is calibrated such that fetching one data tile from the backend
costs the paper's measured miss latency, which makes the downstream
latency experiments (Figures 12 and 13) reproduce the paper's arithmetic
rather than the idiosyncrasies of our host machine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


class VirtualClock:
    """A monotonically advancing simulated clock (seconds).

    Thread-safe: background prefetch workers and the request path may
    charge queries concurrently without losing advances.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._lock = threading.Lock()
        self._now = float(start)

    def now(self) -> float:
        """Current virtual time in seconds."""
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock; negative advances are rejected."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} seconds")
        with self._lock:
            self._now += seconds
            return self._now


@dataclass(frozen=True)
class CostModel:
    """Charges virtual seconds for query work.

    Parameters
    ----------
    per_query_overhead:
        Fixed cost per executed query (parsing, planning, dispatch).
    per_chunk_overhead:
        Cost per chunk fetched from storage.
    per_cell_scanned:
        Cost per cell scanned from storage.
    per_cell_computed:
        Cost per cell a build step computes (NDSI's join and apply, a
        zoom level's window aggregate).
    """

    per_query_overhead: float = 0.05
    per_chunk_overhead: float = 0.002
    per_cell_scanned: float = 0.0
    per_cell_computed: float = 0.0

    @classmethod
    def calibrated(
        cls,
        tile_cells: int,
        miss_seconds: float = 0.984,
        query_overhead_fraction: float = 0.25,
    ) -> "CostModel":
        """Build a cost model where one tile fetch costs ``miss_seconds``.

        ``tile_cells`` is the total number of cells one tile fetch scans
        (tile area times attribute count — tiles are chunk-aligned, one
        chunk per attribute).  ``query_overhead_fraction`` of the budget
        is charged as fixed per-query overhead; the remainder is spread
        per scanned cell, so bigger reads genuinely cost more.  Compute
        operators charge the same per-cell rate.
        """
        if tile_cells <= 0:
            raise ValueError("tile_cells must be positive")
        if not 0.0 <= query_overhead_fraction < 1.0:
            raise ValueError("query_overhead_fraction must be in [0, 1)")
        overhead = miss_seconds * query_overhead_fraction
        variable = miss_seconds - overhead
        return cls(
            per_query_overhead=overhead,
            per_chunk_overhead=0.0,
            per_cell_scanned=variable / tile_cells,
            per_cell_computed=variable / tile_cells,
        )

    def query_cost(
        self, chunks_read: int, cells_scanned: int, cells_computed: int
    ) -> float:
        """Total virtual seconds for one query's work."""
        return (
            self.per_query_overhead
            + self.per_chunk_overhead * chunks_read
            + self.per_cell_scanned * cells_scanned
            + self.per_cell_computed * cells_computed
        )


@dataclass
class QueryStats:
    """Accumulated work counters for one query execution."""

    chunks_read: int = 0
    cells_scanned: int = 0
    cells_computed: int = 0
    elapsed_seconds: float = field(default=0.0)

    def merge_read(self, chunks_read: int, cells_scanned: int) -> None:
        """Fold one storage read into the counters."""
        self.chunks_read += chunks_read
        self.cells_scanned += cells_scanned

    def merge_compute(self, cells_computed: int) -> None:
        """Fold one compute step into the counters."""
        self.cells_computed += cells_computed
