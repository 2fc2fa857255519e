"""Visual vocabularies: k-means clustering of SIFT descriptors.

The paper's SIFT/denseSIFT signatures are "histograms built from
clustered SIFT descriptors" (Table 2).  A :class:`VisualVocabulary` is
the cluster-center codebook; encoding a tile assigns each of its
descriptors to the nearest center and returns the normalized word-count
histogram.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.tiles.key import TileKey
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
        descriptors = np.asarray(descriptors, dtype="float64")
        if descriptors.ndim != 2 or descriptors.shape[0] == 0:
            raise ValueError("need a non-empty (N, dim) descriptor matrix")
        unique = np.unique(descriptors, axis=0)
        k = min(num_words, unique.shape[0])
        if k == unique.shape[0]:
            return cls(unique)
        centers, _ = kmeans_plus_plus(descriptors, k, seed)
        # Drop any empty clusters that collapsed to identical centers.
        centers = np.unique(centers, axis=0)
        return cls(centers)

    def assign(self, descriptors: np.ndarray) -> np.ndarray:
        """Nearest-center index for each descriptor."""
        descriptors = np.asarray(descriptors, dtype="float64")
        if descriptors.shape[0] == 0:
            return np.zeros(0, dtype=int)
        return np.argmin(self._squared_distances(descriptors), axis=1)

    def _squared_distances(self, descriptors: np.ndarray) -> np.ndarray:
        """Every descriptor's squared euclidean distance to every centre,
        via the expansion trick."""
        if descriptors.shape[1] != self.dim:
            raise ValueError(
                f"descriptor dim {descriptors.shape[1]} != vocabulary dim {self.dim}"
            )
        return (
            np.sum(descriptors**2, axis=1)[:, None]
            - 2.0 * descriptors @ self.centers.T
            + np.sum(self.centers**2, axis=1)[None, :]
        )

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
        d2 = np.maximum(self._squared_distances(descriptors), 0.0)
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


def _column_distances(columns: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distance from ``point`` to each column of ``columns`` (a
    C-ordered ``(dim, n)`` transpose), summed one coordinate after
    another as scipy's C loops sum (numpy sums a contiguous axis
    pairwise, which rounds differently)."""
    difference = columns - point[:, None]
    return (difference * difference).sum(axis=0)


def _nearest(
    data: np.ndarray, columns: np.ndarray, centres: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.cluster.vq.vq``'s nearest centre for each point and the
    squared distance to it, by vq's arithmetic: ``(|x|^2 - 2 x.c) +
    |c|^2`` through BLAS, or below 5 dimensions a plain sum of squared
    differences."""
    if data.shape[1] < 5:
        distances = np.stack([_column_distances(columns, c) for c in centres], axis=1)
    else:
        norms = (columns * columns).sum(axis=0)
        centre_norms = np.square(centres.T.copy()).sum(axis=0)
        distances = (norms[:, None] - 2.0 * (data @ centres.T)) + centre_norms
    labels = np.argmin(distances, axis=1)
    return labels, distances[np.arange(len(labels)), labels]


def kmeans_plus_plus(
    data: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.cluster.vq.kmeans2(data, k, minit="++", seed=seed)`` in
    numpy, bit for bit: its centres and its labels.

    Seeding draws from ``RandomState(seed)`` as scipy does: a uniform
    first centre, then one ``uniform()`` per centre against the
    cumulative shares of each point's squared distance to its nearest
    centre so far.  Each of the 10 iterations labels every point with
    its nearest centre (:func:`_nearest`), then moves each centre to its
    points' mean; an empty cluster keeps its centre.  The labels are the
    last iteration's.
    """
    rng = np.random.RandomState(seed)
    n, dim = data.shape
    columns = np.ascontiguousarray(data.T)
    centres = np.empty((k, dim))
    centres[0] = data[rng.randint(n, dtype="int64")]
    nearest = np.full(n, np.inf)
    for index in range(1, k):
        nearest = np.minimum(nearest, _column_distances(columns, centres[index - 1]))
        shares = (nearest / nearest.sum()).cumsum()
        centres[index] = data[int(np.searchsorted(shares, rng.uniform()))]

    for _ in range(10):
        labels = _nearest(data, columns, centres)[0]
        sums = np.zeros((k, dim))
        np.add.at(sums, labels, data)
        counts = np.bincount(labels, minlength=k)
        members = counts > 0
        centres[members] = sums[members] / counts[members, None]
    return centres, labels


def training_descriptors(
    pyramid: TilePyramid,
    attribute: str,
    seed: int = 0,
    max_tiles_per_level: int = 64,
) -> dict[TileKey, np.ndarray]:
    """The SIFT descriptors of the tiles a vocabulary trains on, by tile.

    Up to ``max_tiles_per_level`` tiles are sampled uniformly from each
    level, deterministically for a fixed seed.  A tile with no
    descriptors maps to an empty block.
    """
    from repro.signatures.gradients import normalize_tile_values
    from repro.signatures.sift import extract_sift_descriptors

    rng = np.random.default_rng(seed)
    found: dict[TileKey, np.ndarray] = {}
    for level in range(pyramid.num_levels):
        keys = list(pyramid.grid.keys_at_level(level))
        if len(keys) > max_tiles_per_level:
            chosen = rng.choice(len(keys), size=max_tiles_per_level, replace=False)
            keys = [keys[i] for i in sorted(chosen)]
        for key in keys:
            tile = pyramid.fetch_tile(key, charge=False)
            found[key] = extract_sift_descriptors(
                normalize_tile_values(tile.attribute(attribute))
            )
    return found


def train_vocabulary(
    descriptors: Mapping[TileKey, np.ndarray], num_words: int = 32, seed: int = 0
) -> VisualVocabulary:
    """Fit a visual vocabulary on :func:`training_descriptors`.

    Deterministic for a fixed seed.
    """
    collected = [block for block in descriptors.values() if block.shape[0]]
    if not collected:
        raise ValueError(
            "no descriptors found anywhere in the pyramid; "
            "cannot train a visual vocabulary"
        )
    return VisualVocabulary.fit(np.vstack(collected), num_words=num_words, seed=seed)
