"""Chunk stores: where array chunks physically live.

A chunk key is ``(array_name, attribute_name, chunk_coords)`` where
``chunk_coords`` is a tuple of per-dimension chunk indices.  Two backends
are provided:

- :class:`MemoryChunkStore` — a dict of numpy arrays (used for tests and
  the middleware tile cache's backing store),
- :class:`DiskChunkStore` — ``.npy`` files under a directory, emulating
  SciDB's on-disk chunk storage.
"""

from __future__ import annotations

import shutil
from collections.abc import Iterator
from pathlib import Path
from typing import Protocol

import numpy as np

ChunkKey = tuple[str, str, tuple[int, ...]]


class ChunkStore(Protocol):
    """Minimal interface every chunk store implements.

    A store whose ``get`` never waits outside the interpreter (no file,
    no socket) may say so with a class attribute ``in_memory = True``;
    a store that declares nothing is taken to block.
    """

    def put(self, key: ChunkKey, chunk: np.ndarray) -> None:
        """Store (or overwrite) a chunk."""
        ...

    def get(self, key: ChunkKey) -> np.ndarray:
        """Fetch a chunk; raises ``KeyError`` if absent."""
        ...

    def __contains__(self, key: ChunkKey) -> bool: ...

    def delete(self, key: ChunkKey) -> None:
        """Remove a chunk; raises ``KeyError`` if absent."""
        ...

    def keys(self) -> Iterator[ChunkKey]:
        """Iterate over all stored chunk keys."""
        ...

    def bytes_used(self) -> int:
        """Total payload bytes currently stored."""
        ...


class MemoryChunkStore:
    """Chunks held in a plain dictionary."""

    in_memory = True

    def __init__(self) -> None:
        self._chunks: dict[ChunkKey, np.ndarray] = {}

    def put(self, key: ChunkKey, chunk: np.ndarray) -> None:
        self._chunks[key] = np.asarray(chunk)

    def get(self, key: ChunkKey) -> np.ndarray:
        return self._chunks[key]

    def __contains__(self, key: ChunkKey) -> bool:
        return key in self._chunks

    def delete(self, key: ChunkKey) -> None:
        del self._chunks[key]

    def keys(self) -> Iterator[ChunkKey]:
        return iter(list(self._chunks))

    def bytes_used(self) -> int:
        return sum(chunk.nbytes for chunk in self._chunks.values())

    def __len__(self) -> int:
        return len(self._chunks)


class DiskChunkStore:
    """Chunks stored as ``.npy`` files under ``root``.

    The file layout is ``root/<array>/<attribute>/<c0>_<c1>_....npy``.
    An in-memory index avoids directory scans on lookups.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._index: dict[ChunkKey, Path] = {}
        self._rebuild_index()

    def _path_for(self, key: ChunkKey) -> Path:
        array, attribute, coords = key
        fname = "_".join(str(c) for c in coords) + ".npy"
        return self._root / array / attribute / fname

    def _rebuild_index(self) -> None:
        self._index.clear()
        for path in self._root.glob("*/*/*.npy"):
            attribute = path.parent.name
            array = path.parent.parent.name
            coords = tuple(int(part) for part in path.stem.split("_"))
            self._index[(array, attribute, coords)] = path

    def put(self, key: ChunkKey, chunk: np.ndarray) -> None:
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, np.asarray(chunk))
        self._index[key] = path

    def get(self, key: ChunkKey) -> np.ndarray:
        path = self._index.get(key)
        if path is None:
            raise KeyError(key)
        return np.load(path)

    def __contains__(self, key: ChunkKey) -> bool:
        return key in self._index

    def delete(self, key: ChunkKey) -> None:
        path = self._index.pop(key, None)
        if path is None:
            raise KeyError(key)
        path.unlink(missing_ok=True)

    def keys(self) -> Iterator[ChunkKey]:
        return iter(list(self._index))

    def bytes_used(self) -> int:
        return sum(path.stat().st_size for path in self._index.values())

    def __len__(self) -> int:
        return len(self._index)

    def clear(self) -> None:
        """Remove every chunk and the backing directory tree."""
        shutil.rmtree(self._root, ignore_errors=True)
        self._root.mkdir(parents=True, exist_ok=True)
        self._index.clear()
