"""Unit tests for the phase model, features, labeler, SVM, classifier."""

import numpy as np
import pytest

from repro.phases.classifier import PhaseClassifier
from repro.phases.features import FEATURE_NAMES, feature_vector, trace_features
from repro.phases.labeler import detail_cutoff, model_fit_fraction
from repro.phases.model import ALL_PHASES, AnalysisPhase
from repro.phases.svm import SMOTrainer, rbf_kernel
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.users.session import Request, Trace

P = AnalysisPhase


class TestPhaseModel:
    def test_three_phases(self):
        assert len(ALL_PHASES) == 3

    def test_from_string_roundtrip(self):
        for phase in ALL_PHASES:
            assert AnalysisPhase.from_string(phase.value) is phase

    def test_from_string_unknown(self):
        with pytest.raises(ValueError):
            AnalysisPhase.from_string("daydreaming")


class TestFeatures:
    def test_vector_layout(self):
        vec = feature_vector(TileKey(3, 5, 2), Move.PAN_LEFT)
        assert len(vec) == len(FEATURE_NAMES) == 6
        assert vec[0] == 5.0  # x
        assert vec[1] == 2.0  # y
        assert vec[2] == 3.0  # level
        np.testing.assert_array_equal(vec[3:], [1.0, 0.0, 0.0])

    def test_zoom_in_flag(self):
        vec = feature_vector(TileKey(1, 0, 0), Move.ZOOM_IN_SE)
        np.testing.assert_array_equal(vec[3:], [0.0, 1.0, 0.0])

    def test_zoom_out_flag(self):
        vec = feature_vector(TileKey(1, 0, 0), Move.ZOOM_OUT)
        np.testing.assert_array_equal(vec[3:], [0.0, 0.0, 1.0])

    def test_initial_request_no_flags(self):
        vec = feature_vector(TileKey(0, 0, 0), None)
        np.testing.assert_array_equal(vec[3:], [0.0, 0.0, 0.0])

    def test_trace_features_skips_unlabeled(self):
        trace = Trace(
            user_id=1,
            task_id=1,
            requests=[
                Request(0, TileKey(0, 0, 0), None, P.FORAGING),
                Request(1, TileKey(1, 0, 0), Move.ZOOM_IN_NW, None),
            ],
        )
        features, labels = trace_features([trace])
        assert features.shape == (1, 6)
        assert labels == [P.FORAGING]

    def test_trace_features_empty(self):
        features, labels = trace_features([])
        assert features.shape == (0, 6)
        assert labels == []


class TestLabeler:
    def test_detail_cutoff_nine_levels(self):
        # Paper: 9 levels, tasks at levels 6-8 are "detailed".
        assert detail_cutoff(9) == 6

    def test_detail_cutoff_minimum(self):
        assert detail_cutoff(1) >= 1

    def test_model_fit_on_generated_traces(self, small_study, small_dataset):
        """Nearly all requests fit the three-phase model (paper: 96%)."""
        total = 0.0
        weight = 0
        for trace in small_study.traces:
            total += model_fit_fraction(trace, small_dataset.num_levels) * len(trace)
            weight += len(trace)
        assert total / weight > 0.9


class TestRBFKernel:
    def test_self_similarity_one(self):
        x = np.random.default_rng(0).random((5, 3))
        k = rbf_kernel(x, x, gamma=0.5)
        np.testing.assert_allclose(np.diag(k), np.ones(5))

    def test_bounded(self):
        x = np.random.default_rng(1).random((8, 3))
        k = rbf_kernel(x, x, gamma=1.0)
        assert k.max() <= 1.0 + 1e-12
        assert k.min() >= 0.0

    def test_decreases_with_distance(self):
        a = np.asarray([[0.0]])
        assert rbf_kernel(a, [[1.0]], 1.0)[0, 0] > rbf_kernel(a, [[2.0]], 1.0)[0, 0]


class TestSMO:
    def _blobs(self, n=40, gap=2.0, seed=0):
        rng = np.random.default_rng(seed)
        x = np.vstack([
            rng.normal(-gap / 2, 0.4, (n // 2, 2)),
            rng.normal(gap / 2, 0.4, (n // 2, 2)),
        ])
        y = np.concatenate([-np.ones(n // 2), np.ones(n // 2)])
        return x, y

    def test_separable_blobs(self):
        x, y = self._blobs()
        model = SMOTrainer(c=10.0, seed=0).fit(x, y)
        accuracy = np.mean((model.decision_function(x) >= 0) == (y > 0))
        assert accuracy > 0.95

    def test_xor_needs_kernel(self):
        """RBF SVM must solve XOR — linearly inseparable."""
        rng = np.random.default_rng(3)
        centers = np.asarray([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        labels = np.asarray([1.0, 1.0, -1.0, -1.0])
        x = np.vstack([c + rng.normal(0, 0.08, (20, 2)) for c in centers])
        y = np.concatenate([np.full(20, l) for l in labels])
        model = SMOTrainer(c=10.0, gamma=5.0, seed=0).fit(x, y)
        assert np.mean((model.decision_function(x) >= 0) == (y > 0)) > 0.9

    def test_single_class_degenerates(self):
        x = np.random.default_rng(0).random((10, 2))
        y = np.ones(10)
        model = SMOTrainer().fit(x, y)
        assert np.all(model.decision_function(x) >= 0)

    def test_support_vectors_subset(self):
        x, y = self._blobs()
        model = SMOTrainer(seed=0).fit(x, y)
        assert 0 < model.support_vectors.shape[0] <= len(x)
        assert model.dual_coef.shape == (model.support_vectors.shape[0],)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            SMOTrainer().fit(np.zeros((2, 2)), np.asarray([0.0, 1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SMOTrainer().fit(np.zeros((3, 2)), np.ones(2))

    def test_bad_c_rejected(self):
        with pytest.raises(ValueError):
            SMOTrainer(c=0.0)


class TestPhaseClassifier:
    def _labeled_data(self, n=120, seed=0):
        """Synthetic but realistic feature clusters per phase."""
        rng = np.random.default_rng(seed)
        rows, labels = [], []
        for _ in range(n // 3):
            # Foraging: coarse level, pan flag.
            rows.append([rng.integers(0, 4), rng.integers(0, 4), 1, 1, 0, 0])
            labels.append(P.FORAGING)
            # Navigation: mid level, zoom flags.
            zoom_in = rng.random() < 0.5
            rows.append(
                [rng.integers(0, 8), rng.integers(0, 8), 3, 0, int(zoom_in), int(not zoom_in)]
            )
            labels.append(P.NAVIGATION)
            # Sensemaking: deep level, pan flag.
            rows.append([rng.integers(0, 32), rng.integers(0, 32), 5, 1, 0, 0])
            labels.append(P.SENSEMAKING)
        return np.asarray(rows, dtype=float), labels

    def test_learns_separable_phases(self):
        features, labels = self._labeled_data()
        classifier = PhaseClassifier().fit(features, labels)
        assert classifier.accuracy(features, labels) > 0.9

    def test_predict_single(self):
        features, labels = self._labeled_data()
        classifier = PhaseClassifier().fit(features, labels)
        phase = classifier.predict(TileKey(5, 10, 12), Move.PAN_LEFT)
        assert phase is P.SENSEMAKING

    def test_feature_subset(self):
        features, labels = self._labeled_data()
        classifier = PhaseClassifier(feature_indices=[2]).fit(features, labels)
        # Zoom level alone separates this synthetic data well.
        assert classifier.accuracy(features, labels) > 0.9

    def test_invalid_feature_index(self):
        with pytest.raises(ValueError):
            PhaseClassifier(feature_indices=[99])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PhaseClassifier().predict(TileKey(0, 0, 0), None)

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            PhaseClassifier().fit(np.zeros((0, 6)), [])

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            PhaseClassifier().fit(np.zeros((3, 6)), [P.FORAGING])

    def test_fit_traces(self, small_study):
        classifier = PhaseClassifier().fit_traces(small_study.traces)
        features, labels = trace_features(small_study.traces)
        # Training accuracy on real traces should beat the base rate.
        base = max(labels.count(p) for p in ALL_PHASES) / len(labels)
        assert classifier.accuracy(features, labels) > base
