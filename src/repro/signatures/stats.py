"""The normal-distribution signature (Table 2, row 1).

Captures the average position/color/size of rendered datapoints by
fitting a normal distribution to the tile's cell values.  To keep every
signature comparable under the Chi-Squared distance, the fitted
``N(mean, std)`` is discretized into a fixed-bin probability histogram
over the attribute's value range.
"""

from __future__ import annotations

import numpy as np

from repro.signatures.base import Signature
from repro.tiles.tile import DataTile


class NormalSignature(Signature):
    """Mean/standard deviation of tile values as a discretized normal."""

    name = "normal"

    def __init__(
        self,
        bins: int = 16,
        value_range: tuple[float, float] = (-1.0, 1.0),
        min_std: float = 1e-3,
    ) -> None:
        if bins < 2:
            raise ValueError(f"need at least 2 bins, got {bins}")
        lo, hi = value_range
        if hi <= lo:
            raise ValueError(f"empty value range {value_range}")
        self.bins = bins
        self.value_range = (float(lo), float(hi))
        self.min_std = min_std

    def compute(self, tile: DataTile, attribute: str) -> np.ndarray:
        from scipy.stats import norm

        values = np.asarray(tile.attribute(attribute), dtype="float64").ravel()
        mean = float(values.mean())
        std = max(float(values.std()), self.min_std)
        lo, hi = self.value_range
        edges = np.linspace(lo, hi, self.bins + 1)
        cdf = norm.cdf(edges, loc=mean, scale=std)
        masses = np.diff(cdf)
        total = masses.sum()
        if total > 0:
            masses = masses / total
        return masses
