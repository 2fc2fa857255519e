"""The nine-move interaction vocabulary.

The study interface (Section 5.3.2) supports exactly nine moves: pan
left/right/up/down, zoom out, and zoom in to one of the four quadrants of
the current tile.  At ``k = 9`` prefetched tiles the next request is
guaranteed to be covered (Section 5.2.2) precisely because this
vocabulary is exhaustive.

Axis convention: ``x`` grows rightward (longitude), ``y`` grows downward
(latitude row index).  ``PAN_UP`` therefore decreases ``y``.
"""

from __future__ import annotations

from enum import Enum


class MoveCategory(Enum):
    """Coarse grouping used by Table 1's flags and Figure 8's bars."""

    PAN = "pan"
    ZOOM_IN = "zoom_in"
    ZOOM_OUT = "zoom_out"


class Move(Enum):
    """One user interaction in the browsing interface.

    Hashed by identity, in C, as enum equality is identity (a copied or
    unpickled member is the member): a memo, set or dict keyed by moves
    runs no Python ``__hash__``.  ``Enum``'s ``hash(name)`` varied per
    process too."""

    __hash__ = object.__hash__

    PAN_LEFT = "pan_left"
    PAN_RIGHT = "pan_right"
    PAN_UP = "pan_up"
    PAN_DOWN = "pan_down"
    ZOOM_OUT = "zoom_out"
    ZOOM_IN_NW = "zoom_in_nw"
    ZOOM_IN_NE = "zoom_in_ne"
    ZOOM_IN_SW = "zoom_in_sw"
    ZOOM_IN_SE = "zoom_in_se"

    @property
    def category(self) -> MoveCategory:
        """The move's coarse category (pan / zoom in / zoom out)."""
        if self in PAN_MOVES:
            return MoveCategory.PAN
        if self in ZOOM_IN_MOVES:
            return MoveCategory.ZOOM_IN
        return MoveCategory.ZOOM_OUT

    @property
    def is_pan(self) -> bool:
        return self in PAN_MOVES

    @property
    def is_zoom_in(self) -> bool:
        return self in ZOOM_IN_MOVES

    @property
    def is_zoom_out(self) -> bool:
        return self is Move.ZOOM_OUT

    def __str__(self) -> str:
        return self.value


#: The four panning moves.
PAN_MOVES: frozenset[Move] = frozenset(
    {Move.PAN_LEFT, Move.PAN_RIGHT, Move.PAN_UP, Move.PAN_DOWN}
)

#: The four quadrant zoom-ins.
ZOOM_IN_MOVES: frozenset[Move] = frozenset(
    {Move.ZOOM_IN_NW, Move.ZOOM_IN_NE, Move.ZOOM_IN_SW, Move.ZOOM_IN_SE}
)

#: All nine moves in a stable order (pans, zoom out, zoom ins).
ALL_MOVES: tuple[Move, ...] = (
    Move.PAN_LEFT,
    Move.PAN_RIGHT,
    Move.PAN_UP,
    Move.PAN_DOWN,
    Move.ZOOM_OUT,
    Move.ZOOM_IN_NW,
    Move.ZOOM_IN_NE,
    Move.ZOOM_IN_SW,
    Move.ZOOM_IN_SE,
)

#: (dx, dy) offsets for pans.
PAN_OFFSETS: dict[Move, tuple[int, int]] = {
    Move.PAN_LEFT: (-1, 0),
    Move.PAN_RIGHT: (1, 0),
    Move.PAN_UP: (0, -1),
    Move.PAN_DOWN: (0, 1),
}

#: Child quadrant offsets for zoom-ins: (dx, dy) in {0, 1}^2.
ZOOM_IN_OFFSETS: dict[Move, tuple[int, int]] = {
    Move.ZOOM_IN_NW: (0, 0),
    Move.ZOOM_IN_NE: (1, 0),
    Move.ZOOM_IN_SW: (0, 1),
    Move.ZOOM_IN_SE: (1, 1),
}

_ZOOM_IN_BY_OFFSET = {offset: move for move, offset in ZOOM_IN_OFFSETS.items()}
_PAN_BY_OFFSET = {offset: move for move, offset in PAN_OFFSETS.items()}


def zoom_in_move_for_quadrant(dx: int, dy: int) -> Move:
    """The zoom-in move that lands on child quadrant ``(dx, dy)``."""
    try:
        return _ZOOM_IN_BY_OFFSET[(dx, dy)]
    except KeyError:
        raise ValueError(f"quadrant offsets must be 0 or 1, got ({dx}, {dy})") from None


def pan_move_for_offset(dx: int, dy: int) -> Move:
    """The pan move with displacement ``(dx, dy)``."""
    try:
        return _PAN_BY_OFFSET[(dx, dy)]
    except KeyError:
        raise ValueError(f"no pan move with offset ({dx}, {dy})") from None


def move_from_string(value: str) -> Move:
    """Parse a move from its serialized string value."""
    for move in Move:
        if move.value == value:
            return move
    raise ValueError(f"unknown move {value!r}")
