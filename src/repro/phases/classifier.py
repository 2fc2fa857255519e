"""The analysis-phase classifier: multi-class RBF SVM (Section 4.2.2).

One-vs-one over the three phases (three binary SVMs, majority vote with
decision-value tie-breaking — LibSVM's scheme).  Features are
standardized with training-set statistics before hitting the kernel.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.phases.features import FEATURE_NAMES, feature_vector, trace_features
from repro.phases.model import ALL_PHASES, AnalysisPhase
from repro.phases.svm import SMOTrainer, SVMModel
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.users.session import Trace

#: How many ``(tile, move)`` decisions one classifier remembers (least
#: recently used dropped first).
DECISION_MEMO_REQUESTS = 4096


class PhaseClassifier:
    """Predicts the user's current analysis phase from request features."""

    def __init__(
        self,
        c: float = 10.0,
        gamma: float | str = 1.0,
        feature_indices: Sequence[int] | None = None,
        seed: int = 0,
    ) -> None:
        """``feature_indices`` restricts the model to a feature subset —
        Table 1's per-feature accuracy study trains one classifier per
        single index."""
        self.c = c
        self.gamma = gamma
        self.seed = seed
        if feature_indices is None:
            self.feature_indices = tuple(range(len(FEATURE_NAMES)))
        else:
            self.feature_indices = tuple(feature_indices)
            for index in self.feature_indices:
                if not 0 <= index < len(FEATURE_NAMES):
                    raise ValueError(f"feature index {index} out of range")
        self._models: dict[tuple[AnalysisPhase, AnalysisPhase], SVMModel] = {}
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        # The ensemble only changes in fit(), so a request's decision is
        # worked out once; bound per instance, dropped by fit().
        self._decision = functools.lru_cache(maxsize=DECISION_MEMO_REQUESTS)(
            self._decide
        )

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: Sequence[AnalysisPhase]) -> "PhaseClassifier":
        """Train the one-vs-one ensemble on a feature matrix."""
        features = np.asarray(features, dtype="float64")[:, self.feature_indices]
        labels = list(labels)
        if features.shape[0] != len(labels):
            raise ValueError(
                f"{features.shape[0]} feature rows vs {len(labels)} labels"
            )
        if features.shape[0] == 0:
            raise ValueError("cannot train on an empty dataset")
        self._decision.cache_clear()
        self._mean = features.mean(axis=0)
        std = features.std(axis=0)
        self._std = np.where(std > 0, std, 1.0)
        scaled = (features - self._mean) / self._std
        label_array = np.asarray([ALL_PHASES.index(p) for p in labels])

        self._models.clear()
        trainer = SMOTrainer(c=self.c, gamma=self.gamma, seed=self.seed)
        for i, phase_a in enumerate(ALL_PHASES):
            for phase_b in ALL_PHASES[i + 1 :]:
                mask = np.isin(
                    label_array,
                    (ALL_PHASES.index(phase_a), ALL_PHASES.index(phase_b)),
                )
                if not mask.any():
                    continue
                x_pair = scaled[mask]
                y_pair = np.where(
                    label_array[mask] == ALL_PHASES.index(phase_a), 1.0, -1.0
                )
                self._models[(phase_a, phase_b)] = trainer.fit(x_pair, y_pair)
        return self

    def fit_traces(self, traces: list[Trace]) -> "PhaseClassifier":
        """Train from labeled traces (the study corpus)."""
        features, labels = trace_features(traces)
        return self.fit(features, labels)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self._mean is None or not self._models:
            raise RuntimeError("classifier is not fitted; call fit() first")

    def predict_batch(self, features: np.ndarray) -> list[AnalysisPhase]:
        """Phase predictions for a feature matrix (one row per request)."""
        self._check_fitted()
        features = np.asarray(features, dtype="float64")[:, self.feature_indices]
        scaled = (features - self._mean) / self._std
        n = scaled.shape[0]
        votes = np.zeros((n, len(ALL_PHASES)))
        margins = np.zeros((n, len(ALL_PHASES)))
        for (phase_a, phase_b), model in self._models.items():
            decision = model.decision_function(scaled)
            a_index = ALL_PHASES.index(phase_a)
            b_index = ALL_PHASES.index(phase_b)
            wins_a = decision >= 0
            votes[wins_a, a_index] += 1
            votes[~wins_a, b_index] += 1
            margins[:, a_index] += decision
            margins[:, b_index] -= decision
        # Majority vote; ties broken by accumulated decision values
        # (tanh-bounded so margins can never outvote a whole vote).
        scores = votes + 1e-3 * np.tanh(margins)
        best = np.argmax(scores, axis=1)
        return [ALL_PHASES[i] for i in best]

    def predict(self, tile: TileKey, move: Move | None) -> AnalysisPhase:
        """Phase prediction for a single request — the engine's entry
        point (usable directly as the engine's ``phase_predictor``).
        Remembered per ``(tile, move)``."""
        return self._decision(tile, move)

    def _decide(self, tile: TileKey, move: Move | None) -> AnalysisPhase:
        row = feature_vector(tile, move)[None, :]
        return self.predict_batch(row)[0]

    def accuracy(self, features: np.ndarray, labels: Sequence[AnalysisPhase]) -> float:
        """Fraction of rows classified correctly."""
        predictions = self.predict_batch(features)
        labels = list(labels)
        if not labels:
            return 0.0
        agreed = sum(1 for p, l in zip(predictions, labels) if p is l)
        return agreed / len(labels)
