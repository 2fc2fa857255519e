"""The Signature-Based (SB) recommender (Section 4.3.3, Algorithm 3).

Ranks candidate tiles by visual similarity to the user's most recent
region of interest: for each candidate/ROI pair it combines per-signature
Chi-Squared distances (penalized by physical separation) and sums over
the ROI tiles.  Visually similar neighbors — "find more mountains" —
come first.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.recommenders.base import PredictionContext, Recommender
from repro.signatures.distance import rank_by_score, score_pair_distances
from repro.signatures.provider import SignatureProvider
from repro.tiles.key import TileKey


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
        self.name = "sb:" + "+".join(self.signature_names)

    def predict(self, context: PredictionContext) -> list[TileKey]:
        """Rank candidates by Algorithm 3 distance to the ROI.

        Until the user completes her first zoom-in/zoom-out cycle the ROI
        is empty; the current tile then stands in as the reference — the
        user is presumably moving toward things that look like what she
        is looking at now.
        """
        roi = list(context.roi) if context.roi else [context.current]
        scores = score_pair_distances(
            list(context.candidates),
            roi,
            self.signature_names,
            self.provider.pair_distance,
            self.weights,
        )
        return rank_by_score(scores)
