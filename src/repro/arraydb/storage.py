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
    """Chunks held in a plain dictionary.

    A stored chunk is immutable: a read-only array that only the store
    can reach.  Nothing writes it in place; overwriting a key replaces
    the array in the dict.  So an array handed out by :meth:`get` keeps
    its bytes for as long as anyone holds it, and readers may share it
    without copying.  :attr:`version` counts changes: :meth:`put` and
    :meth:`delete` bump it after changing the dict (one writer at a
    time, as the loaders build), so a reader that keeps what it read,
    tagged with the version seen before reading, knows to read again
    once the version moves.
    """

    def __init__(self) -> None:
        self._chunks: dict[ChunkKey, np.ndarray] = {}
        self.version = 0

    def put(self, key: ChunkKey, chunk: np.ndarray) -> None:
        """Store (or overwrite) a chunk.

        An array that owns its data and is already read-only is kept as
        it is: the caller hands it over.  Anything else is copied and
        the copy frozen, so the caller's array keeps its flags and a
        later write to it cannot reach the store.
        """
        if not (
            isinstance(chunk, np.ndarray)
            and chunk.flags.owndata
            and not chunk.flags.writeable
        ):
            chunk = np.array(chunk)
            chunk.flags.writeable = False
        self._chunks[key] = chunk
        self.version += 1

    def get(self, key: ChunkKey) -> np.ndarray:
        """Fetch a chunk (read-only); raises ``KeyError`` if absent."""
        return self._chunks[key]

    def __contains__(self, key: ChunkKey) -> bool:
        return key in self._chunks

    def delete(self, key: ChunkKey) -> None:
        """Remove a chunk; raises ``KeyError`` if absent."""
        del self._chunks[key]
        self.version += 1

    def keys(self) -> Iterator[ChunkKey]:
        """Iterate over all stored chunk keys."""
        return iter(list(self._chunks))
