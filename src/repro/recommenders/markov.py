"""The Action-Based (AB) recommender: an n-th order Markov chain
over interface moves (Section 4.3.2, Algorithm 2).

States are sequences of the user's last ``n`` moves; transitions are the
nine possible next moves.  Transition frequencies are counted from
training traces exactly as Algorithm 2 does, and smoothed with
Kneser–Ney so unseen move sequences still yield useful predictions.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from repro.recommenders.base import PredictionContext, Recommender
from repro.recommenders.smoothing import KneserNeyEstimator
from repro.tiles.key import TileKey
from repro.tiles.moves import ALL_MOVES, Move
from repro.tiles.pyramid import TileGrid
from repro.users.session import Trace

#: How many ``(last moves, tile)`` rankings one Markov model remembers
#: (least recently used dropped first).
RANKING_MEMO_ROUNDS = 1024


class MarkovRecommender(Recommender):
    """N-th order move Markov chain with Kneser–Ney smoothing.

    The paper evaluated ``n = 2..10`` and settled on ``n = 3``
    ("Markov3"): n=2 hurts accuracy and n>3 adds nothing.
    """

    def __init__(self, order: int = 3, discount: float = 0.75) -> None:
        self.order = order
        self.name = f"markov{order}"
        self._estimator = KneserNeyEstimator(
            order=order, vocabulary=ALL_MOVES, discount=discount
        )
        # The counts only change in train(), so a round's ranking is
        # worked out once; bound per instance, dropped by train().
        self._ranking = functools.lru_cache(maxsize=RANKING_MEMO_ROUNDS)(
            self._rank
        )

    def train(self, traces: Sequence[Trace]) -> None:
        """PROCESSTRACES (Algorithm 2): count move-sequence transitions."""
        sequences = [trace.moves() for trace in traces]
        self._estimator.fit(sequences)
        self._ranking.cache_clear()

    def move_distribution(self, history_moves: Sequence[Move]) -> dict[Move, float]:
        """Smoothed next-move distribution given the recent move history
        (``RuntimeError`` before :meth:`train`)."""
        return self._estimator.distribution(history_moves)

    def predict(self, context: PredictionContext) -> list[TileKey]:
        """Rank one-move-away tiles by predicted move probability.

        Moves that are illegal at the current position are dropped (their
        tiles do not exist).  Candidates more than one move away are not
        ranked — the AB model predicts the next *move*.  Remembered per
        ``(last order moves, tile, candidates, grid)``; every call
        returns its own ``list``.
        """
        moves = tuple(context.history_moves)[-self.order :]
        key = (moves, context.current, tuple(context.candidates), context.grid)
        return list(self._ranking(*key))

    def _rank(
        self, moves: tuple, current: TileKey, candidates: tuple, grid: TileGrid
    ) -> tuple[TileKey, ...]:
        distribution = self.move_distribution(moves)
        candidate_set = set(candidates)
        ranked: list[tuple[float, int, TileKey]] = []
        for move_index, (move, target) in enumerate(grid.available_moves(current)):
            if target not in candidate_set:
                continue
            # Ties broken by stable move order for determinism.
            ranked.append((-distribution[move], move_index, target))
        ranked.sort()
        return tuple(tile for _, _, tile in ranked)
