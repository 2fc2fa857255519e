"""Zoom levels as materialized views, partitioned into data tiles.

:class:`TileGrid` is the pure geometry of a quadtree pyramid (which keys
exist, which moves are legal).  :class:`TilePyramid` binds that geometry
to a :class:`~repro.arraydb.executor.Database`: building it creates one
materialized view per zoom level (Section 2.3, "Building Materialized
Views"), chunk-aligned to the tile size so a tile fetch reads exactly one
chunk per attribute.

Dimension convention: the first array dimension is ``y`` (rows,
latitude), the second is ``x`` (columns, longitude).
"""

from __future__ import annotations

import functools
from collections import deque
from collections.abc import Iterator

import numpy as np

from repro.arraydb.executor import Database
from repro.arraydb.schema import ArraySchema, Attribute, Dimension
from repro.tiles.key import TileKey
from repro.tiles.moves import ALL_MOVES, PAN_OFFSETS, ZOOM_IN_OFFSETS, Move
from repro.tiles.tile import DataTile

#: How many keys' legal moves, and how many ``(key, d)`` candidate sets,
#: one :class:`TileGrid` remembers (least recently used dropped first).
GEOMETRY_MEMO_KEYS = 512

#: How a coarser level aggregates each window of cells, by name.
AGGREGATES = {"avg": np.nanmean, "max": np.nanmax}


class TileGrid:
    """Bounds-checked quadtree geometry: level ``l`` has ``2^l`` tiles/dim.

    The geometry never changes, so the legal moves of a key and the
    candidate set of a ``(key, d)`` are worked out once and remembered
    for the grid's lifetime, at most :data:`GEOMETRY_MEMO_KEYS` of each.
    """

    def __init__(self, num_levels: int) -> None:
        if num_levels < 1:
            raise ValueError(f"a pyramid needs at least one level, got {num_levels}")
        self.num_levels = num_levels
        # Bound per instance: the memos die with the grid.
        self._legal_moves = functools.lru_cache(maxsize=GEOMETRY_MEMO_KEYS)(
            self._find_legal_moves
        )
        self._candidates = functools.lru_cache(maxsize=GEOMETRY_MEMO_KEYS)(
            self._find_candidates
        )

    @property
    def root(self) -> TileKey:
        """The single tile at level 0."""
        return TileKey(0, 0, 0)

    @property
    def deepest_level(self) -> int:
        """The raw-data level."""
        return self.num_levels - 1

    def tiles_per_dim(self, level: int) -> int:
        """Number of tiles along each dimension of ``level``."""
        if not 0 <= level < self.num_levels:
            raise ValueError(
                f"level {level} outside pyramid (has {self.num_levels} levels)"
            )
        return 1 << level

    def tile_count(self, level: int) -> int:
        """Total tiles at ``level``."""
        return self.tiles_per_dim(level) ** 2

    def total_tiles(self) -> int:
        """Total tiles across all levels."""
        return sum(self.tile_count(level) for level in range(self.num_levels))

    def valid(self, key: TileKey) -> bool:
        """True if ``key`` exists in this pyramid."""
        level, x, y = key
        if not 0 <= level < self.num_levels:
            return False
        n = 1 << level  # tiles_per_dim, the level already checked
        return 0 <= x < n and 0 <= y < n

    def keys_at_level(self, level: int) -> Iterator[TileKey]:
        """Iterate all keys at one level in row-major order."""
        n = self.tiles_per_dim(level)
        for y in range(n):
            for x in range(n):
                yield TileKey(level, x, y)

    def all_keys(self) -> Iterator[TileKey]:
        """Iterate all keys in the pyramid, coarsest level first."""
        for level in range(self.num_levels):
            yield from self.keys_at_level(level)

    # ------------------------------------------------------------------
    # movement
    # ------------------------------------------------------------------
    def apply(self, key: TileKey, move: Move) -> TileKey | None:
        """The key reached by ``move``, or None if it leaves the pyramid."""
        if not self.valid(key):
            raise ValueError(f"key {key} is not in this pyramid")
        if move in PAN_OFFSETS:
            dx, dy = PAN_OFFSETS[move]
            level, x, y = key.level, key.x + dx, key.y + dy
        elif move in ZOOM_IN_OFFSETS:
            dx, dy = ZOOM_IN_OFFSETS[move]
            level, x, y = key.level + 1, 2 * key.x + dx, 2 * key.y + dy
        else:  # ZOOM_OUT
            level, x, y = key.level - 1, key.x // 2, key.y // 2
        if not 0 <= level < self.num_levels:
            return None
        n = 1 << level
        if not (0 <= x < n and 0 <= y < n):
            return None
        return TileKey(level, x, y)

    def _find_legal_moves(self, key: TileKey) -> tuple[tuple[Move, TileKey], ...]:
        targets = ((move, self.apply(key, move)) for move in ALL_MOVES)
        return tuple(pair for pair in targets if pair[1] is not None)

    def available_moves(self, key: TileKey) -> list[tuple[Move, TileKey]]:
        """All legal (move, destination) pairs from ``key``, in move order."""
        return list(self._legal_moves(key))

    def neighbors(self, key: TileKey) -> list[TileKey]:
        """Destinations of all legal moves from ``key``."""
        return [target for _, target in self.available_moves(key)]

    def candidates(self, key: TileKey, d: int = 1) -> list[TileKey]:
        """All tiles reachable in at most ``d`` moves (Section 4.3.1).

        Breadth-first order: tiles one move away come before tiles two
        moves away, matching the prediction problem's candidate set ``C``.
        ``key`` itself is excluded.
        """
        if d < 1:
            raise ValueError(f"prefetch distance d must be >= 1, got {d}")
        return list(self._candidates(key, d))

    def _find_candidates(self, key: TileKey, d: int) -> tuple[TileKey, ...]:
        seen = {key}
        order: list[TileKey] = []
        frontier = deque([(key, 0)])
        while frontier:
            current, depth = frontier.popleft()
            if depth == d:
                continue
            for _, neighbor in self._legal_moves(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    order.append(neighbor)
                    frontier.append((neighbor, depth + 1))
        return tuple(order)


class TilePyramid:
    """Materialized zoom levels of a source array, tiled for fetching."""

    def __init__(
        self,
        db: Database,
        source: str,
        tile_size: int,
        num_levels: int,
        attributes: tuple[str, ...],
    ) -> None:
        self.db = db
        self.source = source
        self.tile_size = tile_size
        self.grid = TileGrid(num_levels)
        self.attributes = attributes
        # (store version read at, cost model, {key: (tile, seconds)}); see tiles().
        self._table: tuple = (-1, None, {})

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        db: Database,
        source: str,
        tile_size: int,
        attributes: tuple[str, ...] | None = None,
        aggregates: dict[str, str] | None = None,
    ) -> "TilePyramid":
        """Build every zoom level of ``source`` as materialized views.

        ``source`` must be a square 2-D array whose side is
        ``tile_size * 2^k`` for some ``k >= 0``; the pyramid then has
        ``k + 1`` levels.  ``aggregates`` maps attribute name to the
        aggregate, a key of :data:`AGGREGATES`, used when coarsening it
        (default ``"avg"``; e.g. a land/sea mask wants ``"max"``).  A key
        that names no pyramid attribute, or an unknown aggregate, raises
        ``ValueError`` before any view exists.
        """
        schema = db.schema(source)
        if schema.ndim != 2:
            raise ValueError(
                f"pyramids require 2-D arrays, {source!r} has {schema.ndim} dims"
            )
        side = schema.shape[0]
        if schema.shape[1] != side:
            raise ValueError(
                f"pyramids require square arrays, {source!r} is {schema.shape}"
            )
        if schema.origin != (0, 0):
            raise ValueError(f"pyramids require a (0, 0) origin, {source!r} starts at {schema.origin}")
        if tile_size <= 0 or side % tile_size != 0:
            raise ValueError(
                f"tile size {tile_size} does not divide array side {side}"
            )
        factor = side // tile_size
        if factor & (factor - 1) != 0:
            raise ValueError(
                f"array side / tile size must be a power of two, got {factor}"
            )
        num_levels = factor.bit_length()

        if attributes is None:
            attributes = tuple(a.name for a in schema.attributes)
        aggregates = aggregates or {}
        strays = sorted(set(aggregates) - set(attributes))
        if strays:
            raise ValueError(f"aggregates name no pyramid attribute: {strays}")
        unknown = sorted(set(aggregates.values()) - set(AGGREGATES))
        if unknown:
            raise ValueError(
                f"unknown aggregates {unknown}; choose from {sorted(AGGREGATES)}"
            )

        pyramid = cls(db, source, tile_size, num_levels, tuple(attributes))
        for level in range(num_levels):
            pyramid._materialize_level(level, aggregates)
        pyramid._views  # fail here, not on the first fetch
        return pyramid

    def _materialize_level(self, level: int, aggregates: dict[str, str]) -> None:
        """Create the materialized view for one zoom level (Figures 3-4).

        A coarser level charges one query per attribute, as the regrid of
        a projected scan it stands for: a whole scan of the source (every
        attribute) plus one computed cell per output cell.
        """
        interval = 1 << (self.grid.deepest_level - level)
        side = self.grid.tiles_per_dim(level) * self.tile_size
        dims = (
            Dimension("y", 0, side, self.tile_size),
            Dimension("x", 0, side, self.tile_size),
        )
        source_schema = self.db.schema(self.source)
        attrs = tuple(
            Attribute(name, source_schema.attribute(name).dtype)
            for name in self.attributes
        )
        view = self.db.create_array(
            ArraySchema(self.view_name(level), attributes=attrs, dimensions=dims)
        )
        for name in self.attributes:
            data = self.db.read(self.source, name)
            if interval > 1:
                # Each output cell reduces one interval x interval window;
                # build() guarantees the interval divides the source side.
                windows = np.asarray(data, dtype="float64").reshape(
                    side, interval, side, interval
                )
                with np.errstate(invalid="ignore"):
                    data = AGGREGATES[aggregates.get(name, "avg")](windows, axis=(1, 3))
                self.db.execute((self.source,), cells_computed=data.size)
            view.write(name, data)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        """Number of zoom levels (level 0 is coarsest)."""
        return self.grid.num_levels

    def view_name(self, level: int) -> str:
        """Name of the materialized view backing one zoom level."""
        if not 0 <= level < self.num_levels:
            raise ValueError(
                f"level {level} outside pyramid (has {self.num_levels} levels)"
            )
        return f"{self.source}__z{level}"

    def tile_region(self, key: TileKey) -> tuple[tuple[int, int], tuple[int, int]]:
        """The (y, x) cell bounds of ``key`` within its level's view."""
        if not self.grid.valid(key):
            raise ValueError(f"key {key} is not in this pyramid")
        ts = self.tile_size
        return (
            (key.y * ts, (key.y + 1) * ts),
            (key.x * ts, (key.x + 1) * ts),
        )

    @functools.cached_property
    def _views(self) -> tuple[str, ...]:
        """Each level's view name, once the views are known to be tile-aligned.

        A write after :meth:`build` replaces a view's chunks but never its
        schema, so what :meth:`_materialize_level` guarantees — tile
        ``(level, x, y)`` *is* chunk ``(y, x)`` of the level's view — is
        checked once per pyramid and every fetch relies on it.
        """
        names = tuple(self.view_name(level) for level in range(self.num_levels))
        for name in names:
            schema = self.db.schema(name)
            if (
                schema.chunk_shape != (self.tile_size, self.tile_size)
                or schema.origin != (0, 0)
                or tuple(a.name for a in schema.attributes) != self.attributes
            ):
                raise ValueError(
                    f"view {schema} is not tile-aligned: expected "
                    f"{self.tile_size}x{self.tile_size} chunks from (0, 0) "
                    f"over attributes {self.attributes}"
                )
        return names

    def tiles(self) -> dict[TileKey, tuple[DataTile, float]]:
        """The live tile table, ``{key: (tile, virtual seconds per fetch)}``:
        one entry per tile fetched since the store's version (a write or
        a delete) or ``db.cost_model`` last moved, when it is dropped.
        Its blocks are the store's own read-only arrays."""
        db = self.db
        version, model = db._store.version, db.cost_model
        table_version, table_model, table = self._table
        if table_version != version or table_model is not model:
            table = {}
            self._table = (version, model, table)
        return table

    def _read(self, key: TileKey) -> tuple[DataTile, float]:
        """``key``'s entry in the live table (:meth:`tiles`), read from
        the store (:meth:`ChunkedArray.read_chunk`) on its first fetch and
        priced as one look-up query, ``query_cost(chunks, cells, 0)``.  A
        key outside the pyramid raises ``ValueError``, entering no table."""
        table = self.tiles()
        entry = table.get(key)
        if entry is None:
            if not self.grid.valid(key):
                raise ValueError(f"key {key} is not in this pyramid")
            view = self.db.array(self._views[key.level])
            blocks, read = view.read_chunk((key.y, key.x))
            seconds = self.db.cost_model.query_cost(read.chunks_read, read.cells_scanned, 0)
            entry = table[key] = (DataTile(key=key, attributes=blocks), seconds)
        return entry

    def fetch_tile(self, key: TileKey, charge: bool = True) -> DataTile:
        """Fetch one tile's payload from the backing DBMS.

        With ``charge=True`` (the default) this is
        :meth:`fetch_tile_timed`'s tile — the "cache miss" path.  With
        ``charge=False`` the same table entry costs nothing (used when
        precomputing metadata at build time).
        """
        if charge:
            return self.fetch_tile_timed(key)[0]
        return self._read(key)[0]

    def fetch_tile_timed(self, key: TileKey) -> tuple[DataTile, float]:
        """Charged tile fetch returning ``(tile, virtual seconds charged)``.

        The one charge path: every fetch is one tile-table look-up
        (:meth:`_read` fills it) plus one advance of the database's clock,
        if any, by the entry's price.  The price is returned, not read off
        the clock, so concurrent fetches report their own costs.
        """
        db = self.db
        version, model, table = self._table
        entry = table.get(key)
        if entry is None or version != db._store.version or model is not db.cost_model:
            entry = self._read(key)
        if db.clock is not None:
            db.clock.advance(entry[1])
        return entry
