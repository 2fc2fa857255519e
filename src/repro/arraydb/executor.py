"""The array database: a catalog of chunked arrays and its cost ledger.

Nothing is planned at serving time.  A tile is one whole chunk per
attribute, read by :meth:`ChunkedArray.read_chunk`; every fetch of it is
billed by :meth:`Database.charge_read`.  The arrays served from are
built once, with numpy, by the loaders
(:func:`repro.modis.ndsi.run_ndsi_query`,
:meth:`repro.tiles.pyramid.TilePyramid.build`), which bill each build
step through :meth:`Database.execute`.  Every charge prices a
:class:`~repro.arraydb.cost.QueryStats` ledger with the cost model and,
when the database owns a :class:`~repro.arraydb.cost.VirtualClock`,
advances the clock by it — this is what makes backend fetches "slow"
relative to middleware cache hits in the latency experiments.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.arraydb.array import ChunkedArray, ReadStats
from repro.arraydb.cost import CostModel, QueryStats, VirtualClock
from repro.arraydb.errors import ArrayExistsError, ArrayNotFoundError
from repro.arraydb.schema import ArraySchema
from repro.arraydb.storage import MemoryChunkStore


class Database:
    """An in-process array database: catalog + chunk store + cost ledger."""

    def __init__(
        self,
        cost_model: CostModel | None = None,
        clock: VirtualClock | None = None,
    ) -> None:
        self._store = MemoryChunkStore()
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
    # charged work
    # ------------------------------------------------------------------
    def execute(self, scans: Iterable[str], cells_computed: int) -> QueryStats:
        """Charge one build query: whole reads of ``scans``, plus compute.

        Every attribute of each named array is billed as read whole —
        the chunks it stores and their cells — whether or not the caller
        used it, as a scan that feeds a projection is.  The ledger is
        priced and the clock advanced once.  Reading the data is the
        caller's business (:meth:`read`); this charges for it.
        """
        stats = QueryStats()
        for name in scans:
            array = self.array(name)
            for attr in array.schema.attributes:
                read_stats = array._read_stats(attr.name)
                stats.merge_read(read_stats.chunks_read, read_stats.cells_scanned)
        stats.merge_compute(cells_computed)
        self._charge(stats)
        return stats

    def charge_read(self, read: ReadStats) -> QueryStats:
        """Charge one look-up query over the chunks and cells ``read``
        counts (:meth:`ChunkedArray.read_chunk`), priced once: a caller
        that keeps what it read charges each fetch of it again."""
        stats = QueryStats(read.chunks_read, read.cells_scanned)
        self._charge(stats)
        return stats

    def _charge(self, stats: QueryStats) -> None:
        """Price a finished ledger and advance the clock by it."""
        cost = self.cost_model.query_cost(
            stats.chunks_read, stats.cells_scanned, stats.cells_computed
        )
        stats.elapsed_seconds = cost
        if self.clock is not None:
            self.clock.advance(cost)
