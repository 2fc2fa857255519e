"""The two-level prediction engine (Section 4).

After every user request the engine:

1. updates the session history ``H`` and the ROI tracker (Algorithm 1),
2. asks the top-level classifier for the user's current analysis phase,
3. asks the allocation strategy how to split the prefetch budget ``k``
   across the bottom-level recommendation models,
4. collects each model's ranked predictions over the candidate set
   (tiles at most ``d`` moves away) and merges them into one ordered
   prefetch list ``P``.

The engine is deliberately ignorant of caches and DBMSs — the cache
manager consumes ``P`` (Section 3).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.allocation import AllocationStrategy, SingleModelStrategy
from repro.core.history import SessionHistory
from repro.core.popularity import SharedHotspotRegistry
from repro.core.roi import ROITracker
from repro.phases.model import AnalysisPhase
from repro.recommenders.base import PredictionContext, Recommender
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.pyramid import TileGrid

#: A phase predictor: (current tile, current move) -> phase.
PhasePredictor = Callable[[TileKey, Move | None], AnalysisPhase]


@dataclass(slots=True)
class PredictionResult:
    """Output of one prediction round (slotted: no per-instance dict)."""

    phase: AnalysisPhase | None
    tiles: list[TileKey]
    per_model: dict[str, list[TileKey]] = field(default_factory=dict)
    allocation: list[tuple[str, int]] = field(default_factory=list)
    #: Which model's allocation each chosen tile was charged to.
    attributions: dict[TileKey, str] = field(default_factory=dict)

    def attributed_tiles(self) -> list[tuple[TileKey, str]]:
        """(tile, model) pairs in prefetch priority order."""
        return list(zip(self.tiles, map(self.attributions.__getitem__, self.tiles)))


class PredictionEngine:
    """Two-level prediction: phase classifier over recommender suite."""

    def __init__(
        self,
        grid: TileGrid,
        recommenders: dict[str, Recommender],
        strategy: AllocationStrategy,
        phase_predictor: PhasePredictor | None = None,
        history_length: int = 10,
        prefetch_distance: int = 1,
        hotspot_registry: SharedHotspotRegistry | None = None,
    ) -> None:
        if not recommenders:
            raise ValueError("the engine needs at least one recommender")
        if prefetch_distance < 1:
            raise ValueError(
                f"prefetch distance d must be >= 1, got {prefetch_distance}"
            )
        self.grid = grid
        self.recommenders = dict(recommenders)
        self.strategy = strategy
        self.phase_predictor = phase_predictor
        self.prefetch_distance = prefetch_distance
        #: "fresh" hands the SB model the in-progress ROI (the tiles
        #: visited since the last zoom-in) when one exists, falling back
        #: to the last committed ROI; "committed" uses only Algorithm 1's
        #: committed set.  Fresh is the default: mid-Sensemaking, the
        #: region being explored right now is the most recent ROI.
        self.roi_source = "fresh"
        #: Live cross-session popularity: when set, every observation is
        #: mirrored into the shared registry (many engines, one model).
        self.hotspot_registry = hotspot_registry
        self.history = SessionHistory(history_length)
        self.roi_tracker = ROITracker()
        # Recommender outputs are deterministic between observations, so
        # multiple predict() calls per request (e.g. sweeping k) reuse
        # each model's ranking — keyed by everything context() reads
        # that can change without an observation.
        self._round_cache: dict[tuple[str, int, str], list[TileKey]] = {}
        self._round_phase: AnalysisPhase | None = None

    # ------------------------------------------------------------------
    # session state
    # ------------------------------------------------------------------
    def observe(self, move: Move | None, tile: TileKey) -> None:
        """Record one user request (history + ROI update).

        With a bound :attr:`hotspot_registry` the request also feeds the
        shared cross-session popularity model, before prediction — this
        round's prediction already sees this request's weight.
        """
        if not self.grid.valid(tile):
            raise ValueError(f"requested tile {tile} is not in the pyramid")
        self.history.record(move, tile)
        self.roi_tracker.update(move, tile)
        if self.hotspot_registry is not None:
            self.hotspot_registry.observe(tile)
        self._round_cache.clear()
        self._round_phase = None

    def bind_hotspot_registry(
        self,
        registry: SharedHotspotRegistry | None,
        live: bool = False,
    ) -> None:
        """Attach (or detach, with ``None``) the shared popularity model.

        Observations feed the registry from the next request on.  With
        ``live=True`` every recommender that understands a registry
        (``bind_registry``, e.g. the live
        :class:`~repro.recommenders.hotspot.HotspotRecommender`) starts
        consulting it too, so this session's predictions are steered by
        *all* sessions' traffic.
        """
        self.hotspot_registry = registry
        if live:
            for recommender in self.recommenders.values():
                bind = getattr(recommender, "bind_registry", None)
                if bind is not None:
                    bind(registry)

    def reset(self) -> None:
        """Clear all per-session state."""
        self.history.clear()
        self.roi_tracker.reset()
        self._round_cache.clear()
        self._round_phase = None

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def context(self) -> PredictionContext:
        """The current :class:`PredictionContext` for the recommenders."""
        current = self.history.current
        if current is None:
            raise RuntimeError("no request observed yet")
        roi = self.roi_tracker.roi
        if self.roi_source == "fresh" and self.roi_tracker.in_progress:
            roi = self.roi_tracker.in_progress
        return PredictionContext(
            current=current,
            grid=self.grid,
            candidates=tuple(
                self.grid.candidates(current, self.prefetch_distance)
            ),
            history_moves=self.history.moves,
            history_tiles=self.history.tiles,
            roi=roi,
        )

    def predict_phase(self) -> AnalysisPhase | None:
        """Top level: classify the user's current analysis phase.

        Cached per observation round (the classifier is deterministic in
        the session state)."""
        if self.phase_predictor is None:
            return None
        current = self.history.current
        if current is None:
            raise RuntimeError("no request observed yet")
        cached = self._round_phase
        if cached is None:
            cached = self.phase_predictor(current, self.history.last_move)
            self._round_phase = cached
        return cached

    def predict(self, k: int) -> PredictionResult:
        """Produce the ordered prefetch list ``P`` for budget ``k``.

        Models run over the same candidate set; the allocation strategy
        decides whose predictions fill which slots.  If a model returns
        fewer tiles than its quota, the shortfall is refilled from the
        other allocated models' remaining predictions (the cache manager
        never leaves paid-for slots empty).
        """
        if k < 1:
            raise ValueError(f"prefetch budget k must be >= 1, got {k}")
        phase = self.predict_phase()
        allocation = self.strategy.allocate(phase, k)

        # The context is only built if some model still has to run.
        context: PredictionContext | None = None
        per_model: dict[str, list[TileKey]] = {}
        for name, _ in allocation:
            if name not in self.recommenders:
                raise KeyError(
                    f"allocation references unknown recommender {name!r}"
                )
            if name not in per_model:
                round_key = (name, self.prefetch_distance, self.roi_source)
                ranking = self._round_cache.get(round_key)
                if ranking is None:
                    if context is None:
                        context = self.context()
                    ranking = self.recommenders[name].predict(context)
                    self._round_cache[round_key] = ranking
                per_model[name] = ranking

        chosen: list[TileKey] = []
        attributions: dict[TileKey, str] = {}
        for name, quota in allocation:
            taken = 0
            for tile in per_model[name]:
                if taken >= quota or len(chosen) >= k:
                    break
                if tile not in attributions:
                    attributions[tile] = name
                    chosen.append(tile)
                    taken += 1

        # Refill unused budget from any remaining predictions, in
        # allocation order.
        if len(chosen) < k:
            for name, _ in allocation:
                for tile in per_model[name]:
                    if len(chosen) >= k:
                        break
                    if tile not in attributions:
                        attributions[tile] = name
                        chosen.append(tile)

        return PredictionResult(
            phase=phase,
            tiles=chosen,
            per_model=per_model,
            allocation=list(allocation),
            attributions=attributions,
        )


def momentum_engine(grid: TileGrid) -> PredictionEngine:
    """The Momentum baseline alone: train-free, so any workload (one
    with no training corpus too) replays the same through it."""
    model = MomentumRecommender()
    return PredictionEngine(
        grid=grid,
        recommenders={model.name: model},
        strategy=SingleModelStrategy(model.name),
    )
