"""Per-tile metadata (signature vectors).

Section 2.3 of the paper computes tile metadata at build time and keeps
it "in a shared data structure for later use by our prediction engine".
:class:`MetadataStore` is that structure: a map from
``(tile key, signature name)`` to a numeric vector, with a
compute-on-first-use path so large pyramids only pay for the tiles the
engine actually inspects.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.tiles.key import TileKey


class MetadataStore:
    """Shared store of per-tile signature vectors."""

    def __init__(self) -> None:
        self._vectors: dict[tuple[TileKey, str], np.ndarray] = {}
        self._computes = 0
        self._hits = 0
        #: Advances whenever a stored vector is replaced or dropped;
        #: whoever remembers values derived from the vectors (the
        #: provider's pair distances) forgets them when it has moved.
        self.generation = 0

    def put(self, key: TileKey, name: str, vector: np.ndarray) -> None:
        """Store a signature vector for one tile."""
        if (key, name) in self._vectors:
            self.generation += 1
        self._vectors[(key, name)] = np.asarray(vector, dtype="float64")

    def get(self, key: TileKey, name: str) -> np.ndarray | None:
        """Fetch a stored vector (counted as a hit), or None if absent."""
        cached = self._vectors.get((key, name))
        if cached is not None:
            self._hits += 1
        return cached

    def has(self, key: TileKey, name: str) -> bool:
        """True if a vector is stored for (key, name)."""
        return (key, name) in self._vectors

    def get_or_compute(
        self,
        key: TileKey,
        name: str,
        compute: Callable[[], np.ndarray],
    ) -> np.ndarray:
        """Fetch a vector, computing and caching it on first use."""
        cached = self.get(key, name)
        if cached is not None:
            return cached
        vector = np.asarray(compute(), dtype="float64")
        self._vectors[(key, name)] = vector
        self._computes += 1
        return vector

    @property
    def compute_count(self) -> int:
        """How many vectors were computed (vs served from the store)."""
        return self._computes

    @property
    def hit_count(self) -> int:
        """How many lookups were served from the store."""
        return self._hits

    def __len__(self) -> int:
        return len(self._vectors)

    def signature_names(self) -> set[str]:
        """All signature names present in the store."""
        return {name for _, name in self._vectors}

    def clear(self) -> None:
        """Drop all stored vectors and reset counters."""
        self._vectors.clear()
        self._computes = 0
        self._hits = 0
        self.generation += 1

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the store as a compressed ``.npz`` archive."""
        arrays = {
            f"{key.to_string()}|{name}": vector
            for (key, name), vector in self._vectors.items()
        }
        np.savez_compressed(Path(path), **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "MetadataStore":
        """Load a store previously written by :meth:`save`."""
        store = cls()
        with np.load(Path(path)) as archive:
            for field in archive.files:
                key_str, _, name = field.partition("|")
                store.put(TileKey.from_string(key_str), name, archive[field])
        return store
