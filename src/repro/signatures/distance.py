"""Signature distances and Algorithm 3 candidate scoring.

All built-in signatures emit histogram-like vectors, so the paper uses
the Chi-Squared distance for every signature.  Per-signature distances
for a candidate/ROI pair are combined with a weighted ℓ2-norm; candidate
tiles are then ranked by their summed distance over all ROI tiles.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.tiles.key import TileKey


def chi_squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Chi-Squared histogram distance.

    ``0.5 * sum((a_i - b_i)^2 / (a_i + b_i))`` with zero-mass bins
    contributing zero.  Inputs must be non-negative and equal length.
    """
    a = np.asarray(a, dtype="float64")
    b = np.asarray(b, dtype="float64")
    if a.shape != b.shape:
        raise ValueError(f"signature shapes differ: {a.shape} vs {b.shape}")
    if a.size and (a.min() < 0 or b.min() < 0):
        raise ValueError("chi-squared distance requires non-negative vectors")
    total = a + b
    diff_sq = (a - b) ** 2
    mask = total > 0
    return float(0.5 * np.sum(diff_sq[mask] / total[mask]))


def weighted_l2(distances: Sequence[float], weights: Sequence[float] | None = None) -> float:
    """The paper's weighted ℓ2 combination over per-signature distances:
    ``sqrt(sum_i w_i * d_i^2)``; weights default to all ones.

    Computed hypot-style — inputs are rescaled by their largest
    magnitude before squaring — so tiny distances don't underflow to
    subnormals and the norm stays absolutely homogeneous
    (``f(c·d) == c·f(d)``), which naive ``sqrt(sum(d**2))`` violates
    near the bottom of the float64 range.
    """
    row = np.asarray(distances, dtype="float64").reshape(1, -1)
    weights = _signature_weights(weights, row.size, "distances")
    return float(_weighted_l2_rows(row, weights)[0])


def _signature_weights(
    weights: Sequence[float] | None, count: int, what: str
) -> np.ndarray:
    """``weights`` as ``count`` non-negative floats (default: ones)."""
    if weights is None:
        return np.ones(count)
    if len(weights) != count:
        raise ValueError(f"{len(weights)} weights for {count} {what}")
    weights = np.asarray(weights, dtype="float64")
    if weights.size and weights.min() < 0:
        raise ValueError("signature weights must be non-negative")
    return weights


def _weighted_l2_rows(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """:func:`weighted_l2` of every row of a C-ordered 2-D array.

    A row whose largest magnitude is 0, inf or nan is not rescaled.
    """
    scale = np.abs(rows).max(axis=1, initial=0.0)
    scale[(scale == 0.0) | ~np.isfinite(scale)] = 1.0
    scaled = rows / scale[:, None]
    return scale * np.sqrt(np.sum(weights * scaled**2, axis=1))


def score_candidates(
    candidates: Sequence[TileKey],
    roi_tiles: Sequence[TileKey],
    signature_names: Sequence[str],
    get_vector: Callable[[TileKey, str], np.ndarray],
    distance_fns: dict[str, Callable[[np.ndarray, np.ndarray], float]],
    weights: Sequence[float] | None = None,
) -> dict[TileKey, float]:
    """Algorithm 3: visual distance of each candidate to the user's ROI.

    For every candidate/ROI pair and signature ``i``, the raw signature
    distance is penalized by physical separation
    (``2^(manhattan - 1) * dist_i``), normalized by the per-signature
    maximum across all pairs, combined across signatures with a weighted
    ℓ2-norm divided by the pair's physical distance, and finally summed
    over ROI tiles.  Lower scores mean more visually similar.

    ``get_vector`` supplies signature vectors (typically a
    :class:`~repro.signatures.provider.SignatureProvider`'s);
    ``distance_fns`` maps signature name to its distance
    function.  This is :func:`score_pair_distances` over raw distances
    computed afresh from the vectors.
    """

    def pair_distance(a: TileKey, b: TileKey, name: str) -> float:
        return distance_fns[name](get_vector(a, name), get_vector(b, name))

    return score_pair_distances(
        candidates, roi_tiles, signature_names, pair_distance, weights
    )


def score_pair_distances(
    candidates: Sequence[TileKey],
    roi_tiles: Sequence[TileKey],
    signature_names: Sequence[str],
    pair_distance: Callable[[TileKey, TileKey, str], float],
    weights: Sequence[float] | None = None,
) -> dict[TileKey, float]:
    """Algorithm 3's per-round arithmetic over raw pair distances.

    ``pair_distance(candidate, roi_tile, name)`` is line 1-9's
    ``dist_i`` — a pure function of the pair, so callers may remember
    it; everything that depends on the round (the per-signature maximum
    over *this* round's pairs, the sum over *this* ROI) happens here,
    one array operation per step for all pairs at once.  Every score
    equals the pair-by-pair evaluation bit for bit.
    """
    if not candidates:
        return {}
    if not roi_tiles:
        raise ValueError("Algorithm 3 requires at least one ROI tile")
    weights = _signature_weights(weights, len(signature_names), "signatures")

    pairs = [(a, b) for a in candidates for b in roi_tiles]
    manhattan = [a.manhattan_distance(b) for a, b in pairs]
    penalty = np.asarray([2.0 ** (m - 1) for m in manhattan])
    physical = np.asarray([max(1, m) for m in manhattan], dtype="float64")

    # Distances are plain floats in the pair-by-pair form, where
    # overflow and inf/inf pass silently; keep them silent here.
    with np.errstate(over="ignore", invalid="ignore"):
        # Lines 1-11: penalized per-signature distances, normalized by
        # the per-signature maximum (never below 1).
        normalized = np.empty((len(pairs), len(signature_names)))
        for column, name in enumerate(signature_names):
            penalized = penalty * [pair_distance(a, b, name) for a, b in pairs]
            normalized[:, column] = penalized / max(1.0, *penalized.tolist())

        # Lines 12-13: weighted l2 across signatures, over physical
        # distance.
        pair_scores = _weighted_l2_rows(normalized, weights) / physical

    # Lines 14-15: sum over ROI tiles.
    per_candidate = pair_scores.reshape(len(candidates), -1).tolist()
    return {a: sum(row) for a, row in zip(candidates, per_candidate)}


def rank_by_score(scores: dict[TileKey, float]) -> list[TileKey]:
    """Candidates ordered most-similar first, ties broken by key order
    so rankings are deterministic."""
    return sorted(scores, key=lambda key: (scores[key], key))
