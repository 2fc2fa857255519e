"""Tile keys and quadtree coordinate math.

A :class:`TileKey` addresses one data tile: ``(level, x, y)``.  Level 0
is the single coarsest tile; level ``l`` has ``2^l`` tiles per dimension.
Zooming in maps a tile to one of its four children at level ``l + 1``;
zooming out maps to its parent at ``l - 1``.

Keys are pure values with no knowledge of how many levels exist — bounds
checking against a concrete pyramid lives in
:class:`repro.tiles.pyramid.TileGrid`.

A key is the ``tuple`` of its fields, so the dicts, memos and shards
keyed by it hash and compare in C, by ``hash((level, x, y))``.  It
equals that plain tuple too: keep plain 3-tuples out of containers of
keys, and a key out of ``json.dumps`` (the wire has ``TileRef``).
"""

from __future__ import annotations

from _collections import _tuplegetter

from repro.tiles.moves import (
    Move,
    PAN_OFFSETS,
    ZOOM_IN_OFFSETS,
    pan_move_for_offset,
    zoom_in_move_for_quadrant,
)


class TileKey(tuple):
    """Address of one tile in the zoom-level pyramid: an immutable
    ``(level, x, y)`` with non-negative fields."""

    __slots__ = ()

    def __new__(cls, level: int, x: int, y: int) -> "TileKey":
        if level < 0:
            raise ValueError(f"tile level must be non-negative, got {level}")
        if x < 0 or y < 0:
            raise ValueError(f"tile coordinates must be non-negative, got ({x}, {y})")
        return tuple.__new__(cls, (level, x, y))

    # Read-only fields: the descriptor ``collections.namedtuple`` uses.
    level = _tuplegetter(0, "Zoom level, 0 the coarsest.")
    x = _tuplegetter(1, "Column at this level.")
    y = _tuplegetter(2, "Row at this level.")

    def __getnewargs__(self) -> tuple[int, int, int]:
        # pickle and copy rebuild a key through __new__, checks included.
        return tuple(self)

    def __repr__(self) -> str:
        return f"TileKey(level={self[0]!r}, x={self[1]!r}, y={self[2]!r})"

    # ------------------------------------------------------------------
    # quadtree relations
    # ------------------------------------------------------------------
    @property
    def parent(self) -> "TileKey":
        """The tile one zoom level coarser that contains this one."""
        if self.level == 0:
            raise ValueError("the root tile has no parent")
        return TileKey(self.level - 1, self.x // 2, self.y // 2)

    def children(self) -> tuple["TileKey", ...]:
        """The four tiles at the next zoom level covering this tile."""
        return tuple(
            TileKey(self.level + 1, 2 * self.x + dx, 2 * self.y + dy)
            for dy in (0, 1)
            for dx in (0, 1)
        )

    def child(self, dx: int, dy: int) -> "TileKey":
        """The child in quadrant ``(dx, dy)`` with each offset in {0, 1}."""
        if dx not in (0, 1) or dy not in (0, 1):
            raise ValueError(f"quadrant offsets must be 0 or 1, got ({dx}, {dy})")
        return TileKey(self.level + 1, 2 * self.x + dx, 2 * self.y + dy)

    def ancestor(self, level: int) -> "TileKey":
        """The containing tile at a coarser ``level``."""
        if level > self.level:
            raise ValueError(
                f"ancestor level {level} is deeper than tile level {self.level}"
            )
        shift = self.level - level
        return TileKey(level, self.x >> shift, self.y >> shift)

    def contains(self, other: "TileKey") -> bool:
        """True if ``other`` lies within this tile's coverage (any depth)."""
        if other.level < self.level:
            return False
        return other.ancestor(self.level) == self

    # ------------------------------------------------------------------
    # movement
    # ------------------------------------------------------------------
    def apply(self, move: Move) -> "TileKey":
        """The key reached by ``move``; raises if it leaves the quadrant
        coordinate space (negative coordinates or zoom-out at the root).

        Use :meth:`TileGrid.apply <repro.tiles.pyramid.TileGrid.apply>` for
        bounds-checked movement within a concrete pyramid.
        """
        if move in PAN_OFFSETS:
            dx, dy = PAN_OFFSETS[move]
            return TileKey(self.level, self.x + dx, self.y + dy)
        if move in ZOOM_IN_OFFSETS:
            dx, dy = ZOOM_IN_OFFSETS[move]
            return self.child(dx, dy)
        return self.parent  # ZOOM_OUT

    def move_to(self, other: "TileKey") -> Move | None:
        """The single move taking this tile to ``other``, if one exists."""
        if other.level == self.level:
            dx, dy = other.x - self.x, other.y - self.y
            try:
                return pan_move_for_offset(dx, dy)
            except ValueError:
                return None
        if other.level == self.level + 1:
            if other.x // 2 == self.x and other.y // 2 == self.y:
                return zoom_in_move_for_quadrant(other.x % 2, other.y % 2)
            return None
        if other.level == self.level - 1 and self.level > 0:
            if self.parent == other:
                return Move.ZOOM_OUT
            return None
        return None

    def manhattan_distance(self, other: "TileKey") -> int:
        """Grid distance used by Algorithm 3's physical-distance penalty.

        For tiles on the same level this is the plain Manhattan distance.
        Across levels, the shallower tile's coordinates are projected to
        the deeper level (center of its coverage) and the level difference
        is added, so "one zoom away" costs 1.
        """
        if self.level == other.level:
            return abs(self.x - other.x) + abs(self.y - other.y)
        hi, lo = (self, other) if self.level > other.level else (other, self)
        shift = hi.level - lo.level
        scale = 1 << shift
        # Project the coarser tile to the deeper level at its center.
        cx = lo.x * scale + scale // 2
        cy = lo.y * scale + scale // 2
        return abs(hi.x - cx) + abs(hi.y - cy) + shift

    # ------------------------------------------------------------------
    # normalized geometry
    # ------------------------------------------------------------------
    def normalized_bounds(self) -> tuple[float, float, float, float]:
        """This tile's coverage on the unit square: (x_min, y_min, x_max, y_max).

        Level ``l`` splits the unit square into ``2^l x 2^l`` tiles, so the
        same normalized rectangle is covered by one tile at level ``l`` and
        its four children at ``l + 1``.
        """
        n = 1 << self.level
        return (self.x / n, self.y / n, (self.x + 1) / n, (self.y + 1) / n)

    def normalized_center(self) -> tuple[float, float]:
        """Center of this tile's coverage on the unit square."""
        n = 1 << self.level
        return ((self.x + 0.5) / n, (self.y + 0.5) / n)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_string(self) -> str:
        """Compact serialized form, e.g. ``"3/5/2"``."""
        return f"{self.level}/{self.x}/{self.y}"

    @classmethod
    def from_string(cls, value: str) -> "TileKey":
        """Parse a key serialized by :meth:`to_string`."""
        try:
            level, x, y = (int(part) for part in value.split("/"))
        except ValueError:
            raise ValueError(f"malformed tile key {value!r}") from None
        return cls(level, x, y)

    def __str__(self) -> str:
        return self.to_string()
