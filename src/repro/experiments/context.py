"""Shared experiment setup: dataset, study, signatures, model factories.

Building the world, running the 18-user study, and training the visual
vocabulary are expensive; every experiment shares one
:class:`ExperimentContext` (memoized per parameter set).  The context
also centralizes engine construction so each figure's benchmark asks for
"a Momentum engine" or "the hybrid engine trained on these traces" and
nothing else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.allocation import (
    AllocationStrategy,
    PaperFinalStrategy,
    SingleModelStrategy,
)
from repro.core.engine import PredictionEngine, momentum_engine
from repro.modis.dataset import MODISDataset
from repro.phases.classifier import PhaseClassifier
from repro.recommenders.base import Recommender
from repro.recommenders.hotspot import HotspotRecommender
from repro.recommenders.markov import MarkovRecommender
from repro.recommenders.signature_based import SignatureBasedRecommender
from repro.signatures.base import SignatureRegistry
from repro.signatures.densesift import DenseSIFTSignature
from repro.signatures.histogram import HistogramSignature
from repro.signatures.provider import SignatureProvider
from repro.signatures.sift import SIFTSignature
from repro.signatures.stats import NormalSignature
from repro.signatures.visualwords import train_vocabulary, training_descriptors
from repro.users.session import StudyData, Trace
from repro.users.study import run_study

#: The four Table 2 signatures, in paper order.
SIGNATURE_NAMES: tuple[str, ...] = ("normal", "histogram", "sift", "densesift")

_context_cache: dict[tuple, "ExperimentContext"] = {}


@dataclass
class ExperimentContext:
    """Everything the Section 5 experiments share."""

    dataset: MODISDataset
    study: StudyData
    provider: SignatureProvider
    attribute: str

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        size: int = 2048,
        tile_size: int = 32,
        days: int = 2,
        num_users: int = 18,
        world_seed: int = 7,
        study_seed: int = 17,
        num_words: int = 32,
        attribute: str = "ndsi_avg",
    ) -> "ExperimentContext":
        """Build (or fetch the memoized) experiment context."""
        key = (
            size,
            tile_size,
            days,
            num_users,
            world_seed,
            study_seed,
            num_words,
            attribute,
        )
        cached = _context_cache.get(key)
        if cached is not None:
            return cached

        dataset = MODISDataset.build(
            size=size, tile_size=tile_size, days=days, seed=world_seed
        )
        study = run_study(dataset, num_users=num_users, seed=study_seed)
        training = training_descriptors(
            dataset.pyramid, attribute, seed=world_seed, max_tiles_per_level=48
        )
        sift = SIFTSignature(
            train_vocabulary(training, num_words=num_words, seed=world_seed)
        )
        registry = SignatureRegistry(
            (
                NormalSignature(),
                HistogramSignature(),
                sift,
                DenseSIFTSignature(sift.vocabulary),
            )
        )
        provider = SignatureProvider(dataset.pyramid, registry, attribute)
        # The training tiles' descriptors are already extracted: their
        # sift vectors encode them here instead of extracting them again.
        for tile, descriptors in training.items():
            provider.keep(tile, sift.name, sift.encode(descriptors))
        context = cls(
            dataset=dataset, study=study, provider=provider, attribute=attribute
        )
        _context_cache[key] = context
        return context

    @classmethod
    def default(cls) -> "ExperimentContext":
        """The benchmark-scale context.

        ``REPRO_SIZE`` / ``REPRO_USERS`` environment variables downscale
        the world for quicker runs (the shape of every result is
        preserved; absolute trace counts shrink).
        """
        size = int(os.environ.get("REPRO_SIZE", "2048"))
        users = int(os.environ.get("REPRO_USERS", "18"))
        return cls.build(size=size, num_users=users)

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def grid(self):
        """The pyramid's tile grid."""
        return self.dataset.pyramid.grid

    @property
    def pyramid(self):
        """The dataset's tile pyramid."""
        return self.dataset.pyramid

    def _engine(
        self,
        recommenders: dict[str, Recommender],
        strategy: AllocationStrategy,
        phase_predictor=None,
    ) -> PredictionEngine:
        return PredictionEngine(
            grid=self.grid,
            recommenders=recommenders,
            strategy=strategy,
            phase_predictor=phase_predictor,
        )

    # ------------------------------------------------------------------
    # single-model engines (baselines and individual models)
    # ------------------------------------------------------------------
    def momentum_engine(self, train: list[Trace] | None = None) -> PredictionEngine:
        """The Momentum baseline (needs no training)."""
        return momentum_engine(self.grid)

    def hotspot_engine(self, train: list[Trace]) -> PredictionEngine:
        """The Hotspot baseline, trained on request popularity."""
        model = HotspotRecommender()
        model.train(train)
        return self._engine({model.name: model}, SingleModelStrategy(model.name))

    def markov_engine(self, train: list[Trace], order: int = 3) -> PredictionEngine:
        """The AB model (paper default: Markov3)."""
        model = MarkovRecommender(order=order)
        model.train(train)
        return self._engine({model.name: model}, SingleModelStrategy(model.name))

    def sb_engine(self, signature_name: str) -> PredictionEngine:
        """An SB model using a single signature (Figure 10b)."""
        model = SignatureBasedRecommender(self.provider, (signature_name,))
        return self._engine({model.name: model}, SingleModelStrategy(model.name))

    # ------------------------------------------------------------------
    # the full two-level engine
    # ------------------------------------------------------------------
    def phase_classifier(self, train: list[Trace]) -> PhaseClassifier:
        """The top-level SVM, trained on labeled traces."""
        classifier = PhaseClassifier()
        classifier.fit_traces(train)
        return classifier

    def hybrid_engine(
        self,
        train: list[Trace],
        ab_order: int = 3,
        sb_signature: str = "sift",
        strategy: AllocationStrategy | None = None,
        classifier: PhaseClassifier | None = None,
    ) -> PredictionEngine:
        """The final prediction engine (Section 5.4.3).

        Markov3 + SIFT-SB recommenders under the tuned allocation
        strategy, with the SVM phase classifier on top.
        """
        ab = MarkovRecommender(order=ab_order)
        ab.train(train)
        sb = SignatureBasedRecommender(self.provider, (sb_signature,))
        if classifier is None:
            classifier = self.phase_classifier(train)
        if strategy is None:
            strategy = PaperFinalStrategy(ab_model=ab.name, sb_model=sb.name)
        return self._engine(
            {ab.name: ab, sb.name: sb},
            strategy,
            phase_predictor=classifier.predict,
        )
