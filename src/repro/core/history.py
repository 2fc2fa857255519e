"""Session history ``H`` (Section 4.1).

The cache manager records the user's last ``n`` moves and forwards them
to the prediction engine as an ordered request list.  ``n`` (the history
length) is a system parameter fixed before the session starts.
"""

from __future__ import annotations

from collections import deque

from repro.tiles.key import TileKey
from repro.tiles.moves import Move


class SessionHistory:
    """A bounded record of the user's most recent requests."""

    def __init__(self, length: int = 10) -> None:
        if length < 1:
            raise ValueError(f"history length must be >= 1, got {length}")
        self.length = length
        self._tiles: deque[TileKey] = deque(maxlen=length)
        self._moves: deque[Move] = deque(maxlen=length)

    def record(self, move: Move | None, tile: TileKey) -> None:
        """Append one request.  The initial request has no move and only
        contributes its tile."""
        self._tiles.append(tile)
        if move is not None:
            self._moves.append(move)

    @property
    def tiles(self) -> tuple[TileKey, ...]:
        """Recently requested tiles, oldest first."""
        return tuple(self._tiles)

    @property
    def moves(self) -> tuple[Move, ...]:
        """Recent moves, oldest first."""
        return tuple(self._moves)

    @property
    def current(self) -> TileKey | None:
        """The most recently requested tile."""
        return self._tiles[-1] if self._tiles else None

    @property
    def last_move(self) -> Move | None:
        """The most recent move."""
        return self._moves[-1] if self._moves else None

    def __len__(self) -> int:
        return len(self._tiles)

    def clear(self) -> None:
        """Forget everything (new session)."""
        self._tiles.clear()
        self._moves.clear()
