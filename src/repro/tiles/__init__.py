"""The ForeCache tile data model (Section 2 of the paper).

Zoom levels are materialized views of the raw array, each partitioned
into equal-size data tiles.  Aggregation intervals double at each coarser
level, so one tile at level ``i`` covers the same data as four tiles at
level ``i + 1`` — a quadtree.  Level 0 is the single coarsest tile; the
deepest level is the raw data.
"""

from repro.tiles.key import TileKey
from repro.tiles.moves import (
    ALL_MOVES,
    Move,
    MoveCategory,
    PAN_MOVES,
    ZOOM_IN_MOVES,
)
from repro.tiles.pyramid import TileGrid, TilePyramid
from repro.tiles.render import render_ascii
from repro.tiles.tile import DataTile

__all__ = [
    "ALL_MOVES",
    "DataTile",
    "Move",
    "MoveCategory",
    "PAN_MOVES",
    "TileGrid",
    "TileKey",
    "TilePyramid",
    "ZOOM_IN_MOVES",
    "render_ascii",
]
