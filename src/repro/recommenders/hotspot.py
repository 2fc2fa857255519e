"""The Hotspot baseline (Doshi et al., reimplemented per Section 5.2.3).

Hotspot extends Momentum with awareness of popular tiles: training
counts requests per tile across the study traces and keeps the most
requested as *hotspots*.  When the user is near a hotspot, candidate
tiles that bring her closer to it are ranked above the rest; otherwise
the model behaves exactly like Momentum.

Beyond the paper's offline-trained form, the model has a *live* mode:
bind a :class:`~repro.core.popularity.SharedHotspotRegistry` and the
hotspot set is re-read from the registry's current top-N on every
prediction, so one user's traffic steers another user's prefetching in
real time (cross-session prediction sharing, Section 6.2 extended).
Offline-trained hotspots remain the default, and the fallback while the
registry is still empty.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.recommenders.base import PredictionContext, Recommender
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.users.session import Trace

if TYPE_CHECKING:  # circular-import guard: core.engine imports this package
    from repro.core.popularity import SharedHotspotRegistry


class HotspotRecommender(Recommender):
    """Momentum plus popularity-based pull toward hotspot tiles."""

    name = "hotspot"

    def __init__(
        self,
        num_hotspots: int = 10,
        proximity: int = 4,
        registry: "SharedHotspotRegistry | None" = None,
    ) -> None:
        if num_hotspots < 1:
            raise ValueError(f"num_hotspots must be >= 1, got {num_hotspots}")
        if proximity < 1:
            raise ValueError(f"proximity must be >= 1, got {proximity}")
        self.num_hotspots = num_hotspots
        self.proximity = proximity
        self.hotspots: tuple[TileKey, ...] = ()
        self.registry = registry
        self._momentum = MomentumRecommender()

    def bind_registry(
        self, registry: "SharedHotspotRegistry | None"
    ) -> None:
        """Enter (or, with ``None``, leave) live mode."""
        self.registry = registry

    def train(self, traces: Sequence[Trace]) -> None:
        """Pick the most requested tiles in the training traces."""
        counts: Counter[TileKey] = Counter()
        for trace in traces:
            counts.update(trace.tiles())
        # Ties broken by key order for determinism.
        ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        self.hotspots = tuple(key for key, _ in ordered[: self.num_hotspots])

    def effective_hotspots(self) -> tuple[TileKey, ...]:
        """The hotspot set this prediction uses: the live registry's
        top-N, or the trained set without a registry or while it is
        empty."""
        if self.registry is None:
            return self.hotspots
        live = tuple(self.registry.hot_keys(self.num_hotspots))
        return live or self.hotspots

    def nearest_hotspot(self, tile: TileKey) -> TileKey | None:
        """The closest hotspot within ``proximity`` moves, if any.

        Equidistant hotspots tie-break by key, explicitly — the choice
        must be a function of the hotspot *set*, never of training (or
        registry) iteration order.
        """
        within = [
            (tile.manhattan_distance(hotspot), hotspot)
            for hotspot in self.effective_hotspots()
        ]
        within = [item for item in within if item[0] <= self.proximity]
        if not within:
            return None
        return min(within)[1]

    def predict(self, context: PredictionContext) -> list[TileKey]:
        hotspot = self.nearest_hotspot(context.current)
        if hotspot is None:
            return self._momentum.predict(context)

        distribution = self._momentum.move_distribution(context.last_move)
        current_distance = context.current.manhattan_distance(hotspot)
        candidate_set = set(context.candidates)
        ranked: list[tuple[int, float, int, TileKey]] = []
        legal = context.grid.available_moves(context.current)
        for move_index, (move, target) in enumerate(legal):
            if target not in candidate_set:
                continue
            closer = target.manhattan_distance(hotspot) < current_distance
            # Approaching tiles first; Momentum order within each group.
            ranked.append((0 if closer else 1, -distribution[move], move_index, target))
        ranked.sort()
        return [tile for _, _, _, tile in ranked]
