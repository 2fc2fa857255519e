"""The accuracy↔latency regression (Section 5.5).

Traces are replayed through a full middleware stack (prediction engine,
cache manager, calibrated backend — see
:func:`repro.experiments.runner.replay_model_latency`); every response's
latency is the virtual time the stack actually charged.  Plotting average latency
against prefetch accuracy across all models and fetch sizes reproduces
the paper's Figure 12: a near-perfect line with intercept ≈ the miss
cost and slope ≈ −(miss − hit).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatencyPoint:
    """One (model, k) cell of Figures 12/13."""

    model: str
    k: int
    accuracy: float
    average_latency_seconds: float

    @property
    def average_latency_ms(self) -> float:
        """Average latency in milliseconds."""
        return self.average_latency_seconds * 1000.0


def linear_fit(
    points: Sequence[LatencyPoint],
) -> tuple[float, float, float]:
    """Least-squares latency(ms) = slope * accuracy + intercept.

    Returns (slope, intercept, adjusted R^2) — the paper reports
    intercept 961.33, slope -939.08, adj. R^2 0.99985.
    """
    from scipy import stats

    if len(points) < 3:
        raise ValueError(f"need at least 3 points to fit, got {len(points)}")
    x = np.asarray([p.accuracy for p in points])
    y = np.asarray([p.average_latency_ms for p in points])
    fit = stats.linregress(x, y)
    n = len(points)
    r2 = fit.rvalue**2
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return float(fit.slope), float(fit.intercept), float(adjusted)


def figure13_violations(
    by_model: dict[str, dict[int, float]],
    *,
    full_scale: bool,
    headline_k: int = 5,
    interactive_ms: float = 500.0,
) -> list[str]:
    """Which of Figure 13's shape claims fail for these latency curves.

    ``by_model`` maps model name -> {k: average latency ms}.  At the
    canonical study scale the hybrid curve must sit at or below both the
    Momentum and Hotspot baselines for every ``k >= 3`` (the paper's
    Figure 13 shape), and the headline-``k`` hybrid latency must clear
    the paper's 500 ms interactivity bar.

    At downscaled world sizes (``full_scale=False``) the high-``k``
    tail of the dominance claim is *not* expected to hold: in a tiny
    world a large budget covers most legal moves, so the single-model
    baselines saturate toward a perfect hit rate while the hybrid is
    still splitting its budget between its AB and SB components — the
    calibrated task difficulty that separates the curves only exists at
    full scale (same reasoning as the other figures' full-scale-only
    assertions).  Downscaled runs therefore check the dominance claim at
    the headline ``k`` only, plus the interactivity bar.

    Returns human-readable violation strings; empty means the shape
    holds.
    """
    hybrid = by_model["hybrid"]
    ks = sorted(hybrid)
    if headline_k not in hybrid:
        raise ValueError(f"headline k={headline_k} missing from curves {ks}")
    checked = [k for k in ks if k >= 3] if full_scale else [headline_k]
    violations = []
    for k in checked:
        for baseline in ("momentum", "hotspot"):
            if hybrid[k] > by_model[baseline][k]:
                violations.append(
                    f"hybrid {hybrid[k]:.3f} ms above {baseline} "
                    f"{by_model[baseline][k]:.3f} ms at k={k}"
                )
    if not hybrid[headline_k] < interactive_ms:
        violations.append(
            f"hybrid {hybrid[headline_k]:.3f} ms at k={headline_k} misses "
            f"the {interactive_ms:.0f} ms interactivity bar"
        )
    return violations


def improvement_percent(baseline_ms: float, improved_ms: float) -> float:
    """The paper's "X% improvement" convention: (old - new) / new * 100.

    984 ms vs 185 ms → ~430%; 349 ms vs 185 ms → ~88%.
    """
    if improved_ms <= 0:
        raise ValueError("improved latency must be positive")
    return (baseline_ms - improved_ms) / improved_ms * 100.0
