"""Recommender interface (Section 4.3's sub-problem definition).

Given a user request, a candidate set ``C``, and the session history
``H``, a recommender orders the candidates by how likely the user is to
request each next.  Everything a model may consult is packaged in a
:class:`PredictionContext` so models stay interchangeable.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.pyramid import TileGrid
from repro.users.session import Trace


@dataclass(frozen=True)
class PredictionContext:
    """Inputs available to a recommender at prediction time.

    ``history_moves`` / ``history_tiles`` are the session history ``H``
    (most recent last).  ``roi`` is the user's last region of interest as
    maintained by Algorithm 1 (empty until the first zoom-in/zoom-out
    cycle completes).  ``candidates`` are the tiles at most ``d`` moves
    from the current tile, in breadth-first order.
    """

    current: TileKey
    grid: TileGrid
    candidates: tuple[TileKey, ...]
    history_moves: tuple[Move, ...] = ()
    history_tiles: tuple[TileKey, ...] = ()
    roi: tuple[TileKey, ...] = field(default_factory=tuple)

    @property
    def last_move(self) -> Move | None:
        """The user's most recent move, if any."""
        return self.history_moves[-1] if self.history_moves else None


class Recommender(abc.ABC):
    """A model that ranks candidate tiles for prefetching."""

    #: Display / registry name; subclasses override.
    name: str = "recommender"

    def train(self, traces: Sequence[Trace]) -> None:
        """Fit the model on training traces.  Default: nothing to fit."""

    @abc.abstractmethod
    def predict(self, context: PredictionContext) -> list[TileKey]:
        """Rank candidates, most likely first.

        Returns an ordering of (a subset of) ``context.candidates``; the
        caller trims it to the model's cache allocation ``k``.
        """
