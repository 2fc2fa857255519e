"""The three-phase analysis model and phase classifier (Section 4.2).

Users browsing array data alternate between three analysis phases:

- **Foraging** — scanning coarse zoom levels for interesting regions,
- **Navigation** — zooming between coarse and detailed levels,
- **Sensemaking** — comparing neighboring tiles at detailed levels.

The top level of the prediction engine classifies the user's current
phase from her recent requests with a multi-class RBF-kernel SVM
(trained from scratch via SMO — the paper uses LibSVM).
"""

from repro.phases.classifier import PhaseClassifier
from repro.phases.features import FEATURE_NAMES, feature_vector, trace_features
from repro.phases.model import AnalysisPhase
from repro.phases.svm import SMOTrainer, SVMModel, rbf_kernel

__all__ = [
    "AnalysisPhase",
    "FEATURE_NAMES",
    "PhaseClassifier",
    "SMOTrainer",
    "SVMModel",
    "feature_vector",
    "rbf_kernel",
    "trace_features",
]
