"""A from-scratch soft-margin kernel SVM trained with SMO.

The paper uses LibSVM's multi-class RBF SVM (Section 4.2.2).  Offline we
implement the same estimator: a binary soft-margin SVM solved by
Platt-style Sequential Minimal Optimization with an error cache, and an
RBF kernel.  Multi-class handling (one-vs-one voting, as in LibSVM)
lives in :mod:`repro.phases.classifier`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Pairwise RBF kernel matrix ``exp(-gamma * ||x - y||^2)``."""
    a = np.atleast_2d(np.asarray(a, dtype="float64"))
    b = np.atleast_2d(np.asarray(b, dtype="float64"))
    sq = (
        np.sum(a**2, axis=1)[:, None]
        - 2.0 * a @ b.T
        + np.sum(b**2, axis=1)[None, :]
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass
class SVMModel:
    """A trained binary SVM: support vectors and decision function."""

    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i for each support vector
    bias: float
    gamma: float

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Signed distances to the separating surface."""
        x = np.atleast_2d(np.asarray(x, dtype="float64"))
        if self.support_vectors.shape[0] == 0:
            return np.full(x.shape[0], self.bias)
        k = rbf_kernel(x, self.support_vectors, self.gamma)
        return k @ self.dual_coef + self.bias


class SMOTrainer:
    """Sequential Minimal Optimization for the binary soft-margin SVM.

    Platt's working-set heuristics, simplified: sweep examples violating
    the KKT conditions within tolerance, pair each with the example of
    maximal |E_i - E_j| (falling back to random), and optimize the pair
    analytically.  Errors are cached and updated incrementally.
    """

    def __init__(
        self,
        c: float = 10.0,
        gamma: float | str = "scale",
        tol: float = 1e-3,
        max_passes: int = 3,
        max_sweeps: int = 60,
        seed: int = 0,
    ) -> None:
        if c <= 0:
            raise ValueError(f"C must be positive, got {c}")
        self.c = c
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes
        self.max_sweeps = max_sweeps
        self.seed = seed

    def _resolve_gamma(self, x: np.ndarray) -> float:
        if self.gamma == "scale":
            variance = float(x.var())
            if variance == 0.0:
                variance = 1.0
            return 1.0 / (x.shape[1] * variance)
        return float(self.gamma)

    def fit(self, x: np.ndarray, y: np.ndarray) -> SVMModel:
        """Train on features ``x`` and labels ``y`` in {-1, +1}."""
        x = np.asarray(x, dtype="float64")
        y = np.asarray(y, dtype="float64").ravel()
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError(
                f"inconsistent shapes: x {x.shape}, y {y.shape}"
            )
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        n = x.shape[0]
        gamma = self._resolve_gamma(x)
        if len(np.unique(y)) < 2:
            # Degenerate problem: constant decision at the only label.
            return SVMModel(
                support_vectors=np.zeros((0, x.shape[1])),
                dual_coef=np.zeros(0),
                bias=float(y[0]),
                gamma=gamma,
            )

        kernel = rbf_kernel(x, x, gamma)
        alpha = np.zeros(n)
        bias = 0.0
        rng = np.random.default_rng(self.seed)
        errors = (alpha * y) @ kernel + bias - y
        passes = 0
        sweeps = 0
        while passes < self.max_passes and sweeps < self.max_sweeps:
            sweeps += 1
            changed = 0
            for i in range(n):
                e_i = errors[i]
                violates = (y[i] * e_i < -self.tol and alpha[i] < self.c) or (
                    y[i] * e_i > self.tol and alpha[i] > 0
                )
                if not violates:
                    continue
                # Second-choice heuristic: maximize |E_i - E_j|.
                j = int(np.argmax(np.abs(errors - e_i)))
                if j == i:
                    j = int(rng.integers(n - 1))
                    if j >= i:
                        j += 1
                e_j = errors[j]

                alpha_i_old, alpha_j_old = alpha[i], alpha[j]
                if y[i] != y[j]:
                    low = max(0.0, alpha[j] - alpha[i])
                    high = min(self.c, self.c + alpha[j] - alpha[i])
                else:
                    low = max(0.0, alpha[i] + alpha[j] - self.c)
                    high = min(self.c, alpha[i] + alpha[j])
                if low >= high:
                    continue
                eta = 2.0 * kernel[i, j] - kernel[i, i] - kernel[j, j]
                if eta >= 0:
                    continue
                alpha_j = alpha_j_old - y[j] * (e_i - e_j) / eta
                alpha_j = float(np.clip(alpha_j, low, high))
                if abs(alpha_j - alpha_j_old) < 1e-6:
                    continue
                alpha_i = alpha_i_old + y[i] * y[j] * (alpha_j_old - alpha_j)

                b1 = (
                    bias
                    - e_i
                    - y[i] * (alpha_i - alpha_i_old) * kernel[i, i]
                    - y[j] * (alpha_j - alpha_j_old) * kernel[i, j]
                )
                b2 = (
                    bias
                    - e_j
                    - y[i] * (alpha_i - alpha_i_old) * kernel[i, j]
                    - y[j] * (alpha_j - alpha_j_old) * kernel[j, j]
                )
                if 0.0 < alpha_i < self.c:
                    new_bias = b1
                elif 0.0 < alpha_j < self.c:
                    new_bias = b2
                else:
                    new_bias = (b1 + b2) / 2.0

                delta_i = (alpha_i - alpha_i_old) * y[i]
                delta_j = (alpha_j - alpha_j_old) * y[j]
                errors += (
                    delta_i * kernel[:, i]
                    + delta_j * kernel[:, j]
                    + (new_bias - bias)
                )
                alpha[i], alpha[j] = alpha_i, alpha_j
                bias = new_bias
                changed += 1
            if changed == 0:
                passes += 1
            else:
                passes = 0

        support = alpha > 1e-8
        return SVMModel(
            support_vectors=x[support],
            dual_coef=(alpha * y)[support],
            bias=float(bias),
            gamma=gamma,
        )
