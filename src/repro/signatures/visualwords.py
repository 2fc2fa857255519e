"""Visual vocabularies: k-means clustering of SIFT descriptors.

The paper's SIFT/denseSIFT signatures are "histograms built from
clustered SIFT descriptors" (Table 2).  A :class:`VisualVocabulary` is
the cluster-center codebook; encoding a tile assigns each of its
descriptors to the nearest center and returns the normalized word-count
histogram.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.tiles.pyramid import TilePyramid


class VisualVocabulary:
    """A fitted k-means codebook over descriptor space."""

    def __init__(self, centers: np.ndarray) -> None:
        centers = np.asarray(centers, dtype="float64")
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError(
                f"centers must be a (words, dim) matrix, got shape {centers.shape}"
            )
        self.centers = centers

    @property
    def num_words(self) -> int:
        """Vocabulary size."""
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        """Descriptor dimensionality."""
        return self.centers.shape[1]

    @classmethod
    def fit(
        cls, descriptors: np.ndarray, num_words: int = 32, seed: int = 0
    ) -> "VisualVocabulary":
        """Cluster training descriptors into ``num_words`` centers.

        When fewer distinct descriptors than words are available, the
        vocabulary shrinks to the available count rather than failing.
        """
        from scipy.cluster.vq import kmeans2

        descriptors = np.asarray(descriptors, dtype="float64")
        if descriptors.ndim != 2 or descriptors.shape[0] == 0:
            raise ValueError("need a non-empty (N, dim) descriptor matrix")
        unique = np.unique(descriptors, axis=0)
        k = min(num_words, unique.shape[0])
        if k == unique.shape[0]:
            return cls(unique)
        centers, _ = kmeans2(descriptors, k, minit="++", seed=seed)
        # Drop any empty clusters that collapsed to identical centers.
        centers = np.unique(centers, axis=0)
        return cls(centers)

    def assign(self, descriptors: np.ndarray) -> np.ndarray:
        """Nearest-center index for each descriptor."""
        descriptors = np.asarray(descriptors, dtype="float64")
        if descriptors.shape[0] == 0:
            return np.zeros(0, dtype=int)
        if descriptors.shape[1] != self.dim:
            raise ValueError(
                f"descriptor dim {descriptors.shape[1]} != vocabulary dim {self.dim}"
            )
        # Squared euclidean distances via the expansion trick.
        d2 = (
            np.sum(descriptors**2, axis=1)[:, None]
            - 2.0 * descriptors @ self.centers.T
            + np.sum(self.centers**2, axis=1)[None, :]
        )
        return np.argmin(d2, axis=1)

    def encode(
        self,
        descriptors: np.ndarray,
        normalize: bool = False,
        soft_assign: int = 3,
    ) -> np.ndarray:
        """Bag-of-words histogram for a descriptor set.

        Each descriptor votes for its ``soft_assign`` nearest words with
        distance-decayed weights, which keeps histograms comparable when
        tiles yield only a handful of descriptors.  By default counts
        are *not* normalized: how much landmark structure a tile has is
        itself a similarity signal (a tile with one faint blob should
        not match a landmark-rich ROI just because the blob is the same
        kind).  Tiles with no descriptors (flat imagery — open ocean)
        encode as the zero vector.
        """
        descriptors = np.asarray(descriptors, dtype="float64")
        counts = np.zeros(self.num_words, dtype="float64")
        if descriptors.shape[0] == 0:
            return counts
        if descriptors.shape[1] != self.dim:
            raise ValueError(
                f"descriptor dim {descriptors.shape[1]} != vocabulary dim {self.dim}"
            )
        d2 = (
            np.sum(descriptors**2, axis=1)[:, None]
            - 2.0 * descriptors @ self.centers.T
            + np.sum(self.centers**2, axis=1)[None, :]
        )
        d2 = np.maximum(d2, 0.0)
        k = min(max(1, soft_assign), self.num_words)
        nearest = np.argsort(d2, axis=1)[:, :k]
        rows = np.arange(descriptors.shape[0])[:, None]
        near_d2 = d2[rows, nearest]
        # Distance-decayed votes, scaled per descriptor so each
        # contributes one unit of mass.
        scale = near_d2[:, :1] + 1e-12
        weights = np.exp(-near_d2 / (2.0 * scale))
        weights /= weights.sum(axis=1, keepdims=True)
        np.add.at(counts, nearest.ravel(), weights.ravel())
        if normalize:
            total = counts.sum()
            if total > 0:
                counts /= total
        return counts

    def save(self, path) -> None:
        """Persist the codebook to an ``.npy`` file."""
        np.save(path, self.centers)

    @classmethod
    def load(cls, path) -> "VisualVocabulary":
        """Load a codebook written by :meth:`save`."""
        return cls(np.load(path))


def train_vocabulary(
    pyramid: TilePyramid,
    attribute: str,
    num_words: int = 32,
    seed: int = 0,
    extractor: Callable[[np.ndarray], np.ndarray] | None = None,
    levels: Sequence[int] | None = None,
    max_tiles_per_level: int = 64,
    value_range: tuple[float, float] = (-1.0, 1.0),
) -> VisualVocabulary:
    """Fit a visual vocabulary on descriptors sampled across a pyramid.

    Tiles are sampled uniformly from each requested level (all levels by
    default), descriptors extracted with ``extractor`` (SIFT by default),
    and clustered.  Deterministic for a fixed seed.
    """
    from repro.signatures.gradients import normalize_tile_values
    from repro.signatures.sift import extract_sift_descriptors

    if extractor is None:
        extractor = extract_sift_descriptors
    if levels is None:
        levels = range(pyramid.num_levels)

    rng = np.random.default_rng(seed)
    collected: list[np.ndarray] = []
    for level in levels:
        keys = list(pyramid.grid.keys_at_level(level))
        if len(keys) > max_tiles_per_level:
            chosen = rng.choice(len(keys), size=max_tiles_per_level, replace=False)
            keys = [keys[i] for i in sorted(chosen)]
        for key in keys:
            tile = pyramid.fetch_tile(key, charge=False)
            image = normalize_tile_values(tile.attribute(attribute), value_range)
            descriptors = extractor(image)
            if descriptors.shape[0]:
                collected.append(descriptors)
    if not collected:
        raise ValueError(
            "no descriptors found anywhere in the pyramid; "
            "cannot train a visual vocabulary"
        )
    return VisualVocabulary.fit(np.vstack(collected), num_words=num_words, seed=seed)
