"""The Signature-Based (SB) recommender (Section 4.3.3, Algorithm 3).

Ranks candidate tiles by visual similarity to the user's most recent
region of interest: for each candidate/ROI pair it combines per-signature
Chi-Squared distances (penalized by physical separation) and sums over
the ROI tiles.  Visually similar neighbors — "find more mountains" —
come first.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from repro.recommenders.base import PredictionContext, Recommender
from repro.signatures.distance import _signature_weights, rank_by_score, score_pair_distances
from repro.signatures.provider import SignatureProvider
from repro.tiles.key import TileKey

#: How many ``(candidates, ROI)`` rankings one SB recommender remembers
#: (least recently used dropped first).
RANKING_MEMO_ROUNDS = 1024


class SignatureBasedRecommender(Recommender):
    """Visual-similarity ranking against the user's last ROI."""

    def __init__(
        self,
        provider: SignatureProvider,
        signature_names: Sequence[str],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not signature_names:
            raise ValueError("SB recommender needs at least one signature")
        for name in signature_names:
            if name not in provider.registry:
                raise ValueError(f"signature {name!r} not in provider registry")
        self.provider = provider
        self.signature_names = tuple(signature_names)
        self.weights = None if weights is None else tuple(weights)
        _signature_weights(self.weights, len(self.signature_names), "signatures")
        self.name = "sb:" + "+".join(self.signature_names)
        # The provider never replaces a vector, so a round's ranking is
        # worked out once; bound per instance.
        self._ranking = functools.lru_cache(maxsize=RANKING_MEMO_ROUNDS)(
            self._rank
        )

    def predict(self, context: PredictionContext) -> list[TileKey]:
        """Rank candidates by Algorithm 3 distance to the ROI.

        Until the user completes her first zoom-in/zoom-out cycle the ROI
        is empty; the current tile then stands in as the reference — the
        user is presumably moving toward things that look like what she
        is looking at now.  Remembered per ``(candidates, ROI)``; every
        call returns its own ``list``.
        """
        roi = tuple(context.roi) if context.roi else (context.current,)
        return list(self._ranking(tuple(context.candidates), roi))

    def _rank(self, candidates: tuple, roi: tuple) -> tuple[TileKey, ...]:
        scores = score_pair_distances(
            candidates,
            roi,
            self.signature_names,
            self.provider.pair_distance,
            self.weights,
        )
        return tuple(rank_by_score(scores))
