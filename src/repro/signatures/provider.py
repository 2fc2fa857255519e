"""Signature access for the prediction engine.

:class:`SignatureProvider` binds a tile pyramid, a signature registry,
and the shared :class:`~repro.tiles.metadata.MetadataStore` together:
the SB recommender asks it for "the vector of signature S on tile T" and
never touches raw tile data.  Vectors are computed on first use and
cached, which matches the paper's build-time metadata computation
without paying for tiles nobody ever looks at.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.signatures.base import SignatureRegistry
from repro.tiles.key import TileKey
from repro.tiles.metadata import MetadataStore
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
        store: MetadataStore | None = None,
    ) -> None:
        if attribute not in pyramid.attributes:
            raise ValueError(
                f"attribute {attribute!r} not in pyramid "
                f"(has {pyramid.attributes})"
            )
        self.pyramid = pyramid
        self.registry = registry
        self.attribute = attribute
        self.store = store if store is not None else MetadataStore()
        # A stored vector never changes within one store generation, so
        # a pair's distance is worked out once; bound per instance.
        self._pair_distance = functools.lru_cache(
            maxsize=PAIR_DISTANCE_MEMO_PAIRS
        )(self._find_pair_distance)
        self._generation = self.store.generation

    def vector(self, key: TileKey, signature_name: str) -> np.ndarray:
        """The signature vector for one tile, computed on first use.

        Metadata reads never go through the query executor: in the real
        system these vectors were computed at tile-build time
        (Section 2.3), so serving them costs no DBMS queries.
        """
        cached = self.store.get(key, signature_name)
        if cached is not None:
            return cached
        signature = self.registry.get(signature_name)
        return self.store.get_or_compute(
            key,
            signature_name,
            lambda: signature.compute(
                self.pyramid.fetch_tile(key, charge=False), self.attribute
            ),
        )

    def pair_distance(self, a: TileKey, b: TileKey, signature_name: str) -> float:
        """Algorithm 3's raw ``dist_i``: the signature's distance between
        two tiles' vectors.

        Remembered per ``(a, b, signature)`` until the store replaces or
        drops a vector (its ``generation`` moves).
        """
        if self._generation != self.store.generation:
            self._generation = self.store.generation
            self._pair_distance.cache_clear()
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

    def distance_fns(
        self, names: Sequence[str] | None = None
    ) -> dict[str, Callable[[np.ndarray, np.ndarray], float]]:
        """Distance functions for several signatures at once."""
        if names is None:
            names = self.registry.names()
        return {name: self.distance_fn(name) for name in names}

    def precompute(
        self,
        keys: Iterable[TileKey] | None = None,
        names: Sequence[str] | None = None,
    ) -> int:
        """Eagerly compute signatures (the paper's build-time step).

        Returns the number of vectors now present for the requested keys.
        """
        if keys is None:
            keys = self.pyramid.grid.all_keys()
        if names is None:
            names = self.registry.names()
        count = 0
        for key in keys:
            for name in names:
                self.vector(key, name)
                count += 1
        return count
