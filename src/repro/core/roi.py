"""Region-of-interest tracking (Algorithm 1, UPDATEROI).

The user's most recent ROI is the set of tiles she visited between her
last zoom-in and the following zoom-out: a zoom-in opens a temporary
ROI, pans while "inside" extend it, and the next zoom-out commits it as
the current ROI.  The SB recommender compares candidate tiles against
this set.
"""

from __future__ import annotations

from repro.tiles.key import TileKey
from repro.tiles.moves import Move


class ROITracker:
    """Stateful implementation of the paper's UPDATEROI heuristic."""

    def __init__(self) -> None:
        #: The user's last committed region of interest (may be empty):
        #: a tuple, built once per commit and read as it is.
        self.roi: tuple[TileKey, ...] = ()
        self._temp: list[TileKey] = []
        self._in_flag = False

    @property
    def in_progress(self) -> tuple[TileKey, ...]:
        """Tiles collected since the last zoom-in (``tempROI``)."""
        return tuple(self._temp)

    @property
    def collecting(self) -> bool:
        """True between a zoom-in and the next zoom-out (``inFlag``)."""
        return self._in_flag

    def update(self, move: Move | None, tile: TileKey) -> tuple[TileKey, ...]:
        """Process one request and return the (possibly updated) ROI.

        Follows Algorithm 1 line by line: zoom-in starts a fresh tempROI
        seeded with the requested tile; zoom-out commits tempROI as the
        ROI if one was being collected; pans while collecting append the
        requested tile.  The initial request (``move is None``) leaves
        all state untouched.
        """
        if move is None:
            return self.roi
        if move.is_zoom_in:
            self._in_flag = True
            self._temp = [tile]
        elif move.is_zoom_out:
            if self._in_flag:
                self.roi = tuple(self._temp)
            self._in_flag = False
            self._temp = []
        elif self._in_flag:
            if tile not in self._temp:
                self._temp.append(tile)
        return self.roi

    def reset(self) -> None:
        """Forget all state (new session)."""
        self.roi = ()
        self._temp = []
        self._in_flag = False
