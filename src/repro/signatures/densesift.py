"""The denseSIFT signature (Table 2, row 4).

Where SIFT describes only detected landmarks, denseSIFT describes the
*whole* tile: descriptors are computed on a regular grid and pooled into
per-quadrant bag-of-words histograms, so the signature also encodes
*where* structures sit in the tile.  The paper found this positional
rigidity makes denseSIFT worse for its task — the Rockies and the Andes
both contain snow clusters but never in the same place — and our
experiments reproduce that gap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.signatures.base import Signature
from repro.signatures.gradients import (
    descriptor_at,
    normalize_tile_values,
    polar_gradients,
)
from repro.tiles.tile import DataTile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.signatures.visualwords import VisualVocabulary


def extract_dense_descriptors(
    image: np.ndarray, stride: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Unoriented descriptors on a regular grid.

    Returns ``(positions, descriptors)`` where positions are the (y, x)
    grid centers that produced a valid descriptor.  Descriptors use
    orientation 0 — dense variants skip rotation normalization so that
    identical structures at identical positions match exactly.
    """
    image = np.asarray(image, dtype="float64")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    magnitude, angle = polar_gradients(image)
    h, w = image.shape
    ys, xs = np.meshgrid(
        np.arange(stride, h, stride), np.arange(stride, w, stride), indexing="ij"
    )
    ys, xs = ys.ravel(), xs.ravel()
    kept, descriptors = descriptor_at(magnitude, angle, ys, xs, np.zeros(len(ys)))
    return np.stack([ys[kept], xs[kept]], axis=1), descriptors


class DenseSIFTSignature(Signature):
    """Spatially pooled bag-of-words over a dense descriptor grid.

    The tile is split into ``pool x pool`` quadrants; each quadrant gets
    its own word histogram and the histograms are concatenated, encoding
    both which landmarks appear and where.
    """

    name = "densesift"

    def __init__(
        self,
        vocabulary: "VisualVocabulary",
        stride: int = 8,
        pool: int = 2,
        value_range: tuple[float, float] = (-1.0, 1.0),
    ) -> None:
        if pool < 1:
            raise ValueError(f"pool must be >= 1, got {pool}")
        self.vocabulary = vocabulary
        self.stride = stride
        self.pool = pool
        self.value_range = value_range

    def compute(self, tile: DataTile, attribute: str) -> np.ndarray:
        image = normalize_tile_values(tile.attribute(attribute), self.value_range)
        positions, descriptors = extract_dense_descriptors(image, self.stride)
        num_words = self.vocabulary.num_words
        pooled = np.zeros((self.pool, self.pool, num_words), dtype="float64")
        if descriptors.shape[0]:
            words = self.vocabulary.assign(descriptors)
            h, w = image.shape
            for (y, x), word in zip(positions, words):
                qy = min(self.pool - 1, y * self.pool // h)
                qx = min(self.pool - 1, x * self.pool // w)
                pooled[qy, qx, word] += 1.0
        flat = pooled.ravel()
        total = flat.sum()
        if total > 0:
            flat = flat / total
        return flat
