"""The chunk store: where array chunks physically live.

A chunk key is ``(array_name, attribute_name, chunk_coords)`` where
``chunk_coords`` is a tuple of per-dimension chunk indices.
:class:`MemoryChunkStore` holds every chunk of a :class:`Database` in
one dict of numpy arrays.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

ChunkKey = tuple[str, str, tuple[int, ...]]


class MemoryChunkStore:
    """Chunks held in a plain dictionary."""

    def __init__(self) -> None:
        self._chunks: dict[ChunkKey, np.ndarray] = {}

    def put(self, key: ChunkKey, chunk: np.ndarray) -> None:
        """Store (or overwrite) a chunk."""
        self._chunks[key] = np.asarray(chunk)

    def get(self, key: ChunkKey) -> np.ndarray:
        """Fetch a chunk; raises ``KeyError`` if absent."""
        return self._chunks[key]

    def __contains__(self, key: ChunkKey) -> bool:
        return key in self._chunks

    def delete(self, key: ChunkKey) -> None:
        """Remove a chunk; raises ``KeyError`` if absent."""
        del self._chunks[key]

    def keys(self) -> Iterator[ChunkKey]:
        """Iterate over all stored chunk keys."""
        return iter(list(self._chunks))
