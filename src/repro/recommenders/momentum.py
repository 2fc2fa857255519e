"""The Momentum baseline (Doshi et al., reimplemented per Section 5.2.3).

Momentum assumes the user's next move repeats her previous move: the
tile matching the previous move gets probability 0.9 and the eight other
one-move candidates get 0.0125 each.  This is a first-order Markov chain
with hand-fixed probabilities.
"""

from __future__ import annotations

from repro.recommenders.base import PredictionContext, Recommender
from repro.tiles.key import TileKey
from repro.tiles.moves import ALL_MOVES, Move

#: Probability assigned to repeating the previous move.
REPEAT_PROBABILITY = 0.9
#: Probability assigned to each of the other eight moves.
OTHER_PROBABILITY = 0.0125


class MomentumRecommender(Recommender):
    """Predicts that the next move repeats the previous one."""

    name = "momentum"

    def move_distribution(self, last_move: Move | None) -> dict[Move, float]:
        """The fixed Momentum distribution given the previous move.

        With no previous move (session start) all moves are uniform.
        """
        if last_move is None:
            return {move: 1.0 / len(ALL_MOVES) for move in ALL_MOVES}
        return {
            move: REPEAT_PROBABILITY if move is last_move else OTHER_PROBABILITY
            for move in ALL_MOVES
        }

    def predict(self, context: PredictionContext) -> list[TileKey]:
        distribution = self.move_distribution(context.last_move)
        candidate_set = set(context.candidates)
        ranked: list[tuple[float, int, TileKey]] = []
        legal = context.grid.available_moves(context.current)
        for move_index, (move, target) in enumerate(legal):
            if target not in candidate_set:
                continue
            ranked.append((-distribution[move], move_index, target))
        ranked.sort()
        return [tile for _, _, tile in ranked]
