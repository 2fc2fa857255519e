"""Signature access for the prediction engine.

:class:`SignatureProvider` binds a tile pyramid and a signature registry
to the per-tile signature vectors (the paper's tile metadata, kept "in a
shared data structure for later use by our prediction engine",
Section 2.3): the SB recommender asks it for "the vector of signature S
on tile T" and never touches raw tile data.  Vectors are computed on
first use and kept, which matches the paper's build-time metadata
computation without paying for tiles nobody ever looks at.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np

from repro.signatures.base import SignatureRegistry
from repro.tiles.key import TileKey
from repro.tiles.pyramid import TilePyramid

#: How many ``(tile, tile, signature)`` raw distances one provider
#: remembers (least recently used dropped first).
PAIR_DISTANCE_MEMO_PAIRS = 16384


class SignatureProvider:
    """Cached per-tile signature vectors over one pyramid attribute,
    and the raw signature distances of tile pairs derived from them."""

    def __init__(
        self,
        pyramid: TilePyramid,
        registry: SignatureRegistry,
        attribute: str,
    ) -> None:
        if attribute not in pyramid.attributes:
            raise ValueError(
                f"attribute {attribute!r} not in pyramid "
                f"(has {pyramid.attributes})"
            )
        self.pyramid = pyramid
        self.registry = registry
        self.attribute = attribute
        self._vectors: dict[tuple[TileKey, str], np.ndarray] = {}
        # A kept vector is never replaced, so a pair's distance is
        # worked out once; bound per instance.
        self._pair_distance = functools.lru_cache(
            maxsize=PAIR_DISTANCE_MEMO_PAIRS
        )(self._find_pair_distance)

    def vector(self, key: TileKey, signature_name: str) -> np.ndarray:
        """The signature vector for one tile, computed on first use.

        Metadata reads never go through the query executor: in the real
        system these vectors were computed at tile-build time
        (Section 2.3), so serving them costs no DBMS queries.
        """
        cached = self._vectors.get((key, signature_name))
        if cached is not None:
            return cached
        signature = self.registry.get(signature_name)
        return self.keep(
            key,
            signature_name,
            signature.compute(
                self.pyramid.fetch_tile(key, charge=False), self.attribute
            ),
        )

    def keep(self, key: TileKey, signature_name: str, vector) -> np.ndarray:
        """Hold a tile's signature vector worked out ahead of its first
        use, as :meth:`vector` holds one it computes.  A held vector is
        never replaced (the pair-distance and SB ranking memos rely on
        it): the same bytes again are a no-op, others raise
        ``ValueError``."""
        vector = np.asarray(vector, dtype="float64")
        held = self._vectors.setdefault((key, signature_name), vector)
        if held.shape != vector.shape or held.tobytes() != vector.tobytes():
            raise ValueError(f"{key} already holds another {signature_name!r} vector")
        return held

    def pair_distance(self, a: TileKey, b: TileKey, signature_name: str) -> float:
        """Algorithm 3's raw ``dist_i``: the signature's distance between
        two tiles' vectors.

        Remembered per ``(a, b, signature)``.
        """
        return self._pair_distance(a, b, signature_name)

    def _find_pair_distance(self, a: TileKey, b: TileKey, signature_name: str) -> float:
        return self.distance_fn(signature_name)(
            self.vector(a, signature_name), self.vector(b, signature_name)
        )

    def distance_fn(
        self, signature_name: str
    ) -> Callable[[np.ndarray, np.ndarray], float]:
        """The distance function registered for one signature."""
        return self.registry.get(signature_name).distance
