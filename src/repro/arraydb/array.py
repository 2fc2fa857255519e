"""Chunked multidimensional arrays backed by a :class:`MemoryChunkStore`.

A :class:`ChunkedArray` binds an :class:`~repro.arraydb.schema.ArraySchema`
to a chunk store and provides region reads/writes in *array coordinates*
(which need not start at zero), plus whole-chunk reads in *chunk
coordinates*.  Region reads assemble the covering chunks; both kinds
report how many chunks and cells were touched, which feeds the executor's
cost accounting.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from repro.arraydb.schema import ArraySchema, Dimension
from repro.arraydb.storage import MemoryChunkStore

Region = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ReadStats:
    """I/O accounting for a single region read."""

    chunks_read: int
    cells_scanned: int


def full_region(schema: ArraySchema) -> Region:
    """The region covering the whole array."""
    return tuple((d.start, d.end) for d in schema.dimensions)


def region_shape(region: Region) -> tuple[int, ...]:
    """Cell counts of a region along each dimension."""
    return tuple(hi - lo for lo, hi in region)


@functools.cache
def _zero_block(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """The one read-only zero block every absent chunk of this shape and
    dtype reads back as."""
    block = np.zeros(shape, dtype=dtype)
    block.flags.writeable = False
    return block


class ChunkedArray:
    """A dense array stored as fixed-size chunks.

    Missing chunks read back as the schema attribute's fill value (zero),
    matching the behaviour of an empty SciDB array.
    """

    def __init__(self, schema: ArraySchema, store: MemoryChunkStore) -> None:
        self.schema = schema
        self._store = store
        self._chunk_counts = tuple(dim.num_chunks for dim in schema.dimensions)

    # ------------------------------------------------------------------
    # region validation / geometry
    # ------------------------------------------------------------------
    def _check_region(self, region: Region) -> None:
        if len(region) != self.schema.ndim:
            raise ValueError(
                f"region has {len(region)} dimensions, array "
                f"{self.schema.name!r} has {self.schema.ndim}"
            )
        for (lo, hi), dim in zip(region, self.schema.dimensions):
            if lo >= hi:
                raise ValueError(f"empty region bounds ({lo}, {hi}) on {dim.name!r}")
            if lo < dim.start or hi > dim.end:
                raise ValueError(
                    f"region ({lo}, {hi}) outside dimension {dim.name!r} "
                    f"range [{dim.start}, {dim.end})"
                )

    def _pieces(self, region: Region) -> list[tuple[tuple, tuple, tuple, tuple]]:
        """Every chunk overlapping ``region``, as ``(chunk coordinates,
        slices into the region, slices into the chunk, chunk shape)``.

        The overlap is worked out once per dimension and combined, not
        once per chunk.
        """
        per_dim = []
        for (lo, hi), dim in zip(region, self.schema.dimensions):
            spans = []
            for index in range(dim.chunk_of(lo), dim.chunk_of(hi - 1) + 1):
                c_lo, c_hi = dim.chunk_bounds(index)
                s_lo, s_hi = max(c_lo, lo), min(c_hi, hi)
                region_slice = slice(s_lo - lo, s_hi - lo)
                chunk_slice = slice(s_lo - c_lo, s_hi - c_lo)
                spans.append((index, region_slice, chunk_slice, c_hi - c_lo))
            per_dim.append(spans)
        return [tuple(zip(*spans)) for spans in itertools.product(*per_dim)]

    # ------------------------------------------------------------------
    # reads and writes
    # ------------------------------------------------------------------
    def read(
        self, attribute: str, region: Region | None = None
    ) -> tuple[np.ndarray, ReadStats]:
        """Read a rectangular region of one attribute.

        Returns the dense region array and the I/O stats for the read.
        """
        attr = self.schema.attribute(attribute)
        if region is None:
            region = full_region(self.schema)
        self._check_region(region)

        out = np.zeros(region_shape(region), dtype=attr.numpy_dtype)
        chunks_read = 0
        cells_scanned = 0
        for coords, out_slices, chunk_slices, _ in self._pieces(region):
            key = (self.schema.name, attribute, coords)
            if key not in self._store:
                continue
            chunk = self._store.get(key)
            chunks_read += 1
            cells_scanned += chunk.size
            out[out_slices] = chunk[chunk_slices]
        return out, ReadStats(chunks_read=chunks_read, cells_scanned=cells_scanned)

    def _read_stats(self, attribute: str, region: Region | None = None) -> ReadStats:
        """The stats :meth:`read` would report, without copying any cells."""
        self.schema.attribute(attribute)
        if region is None:
            region = full_region(self.schema)
        self._check_region(region)
        chunks_read = 0
        cells_scanned = 0
        for coords, _, _, _ in self._pieces(region):
            key = (self.schema.name, attribute, coords)
            if key in self._store:
                chunks_read += 1
                cells_scanned += self._store.get(key).size
        return ReadStats(chunks_read=chunks_read, cells_scanned=cells_scanned)

    def read_chunk(
        self, coords: tuple[int, ...]
    ) -> tuple[dict[str, np.ndarray], ReadStats]:
        """Read every attribute of the one chunk at chunk coordinates ``coords``.

        Attribute for attribute this equals :meth:`read` over that chunk's
        bounds, stats included — an absent chunk reads back zero-filled and
        is not counted — without assembling a region.  The blocks are the
        store's own read-only arrays, not copies: a stored chunk is never
        written in place, and :meth:`write` replaces it, so a block keeps
        its bytes for as long as anyone holds it and can be handed to any
        number of readers.  Every absent chunk of one shape and dtype reads
        back as the same shared read-only zero block.
        """
        schema = self.schema
        if len(coords) != schema.ndim:
            raise ValueError(
                f"chunk coordinates have {len(coords)} dimensions, array "
                f"{schema.name!r} has {schema.ndim}"
            )
        coords = tuple(coords)
        for index, count in zip(coords, self._chunk_counts):
            if not 0 <= index < count:
                raise IndexError(
                    f"chunk {coords} outside array {schema.name!r} "
                    f"(has {self._chunk_counts} chunks)"
                )
        blocks: dict[str, np.ndarray] = {}
        chunks_read = 0
        cells_scanned = 0
        for attr in schema.attributes:
            try:
                block = self._store.get((schema.name, attr.name, coords))
            except KeyError:
                shape = tuple(
                    hi - lo
                    for lo, hi in map(Dimension.chunk_bounds, schema.dimensions, coords)
                )
                block = _zero_block(shape, attr.numpy_dtype)
            else:
                chunks_read += 1
                cells_scanned += block.size
            blocks[attr.name] = block
        return blocks, ReadStats(chunks_read=chunks_read, cells_scanned=cells_scanned)

    def write(
        self, attribute: str, data: np.ndarray, region: Region | None = None
    ) -> None:
        """Write a dense block of one attribute into a region.

        Partially-covered chunks are read-modified-written; untouched cells
        of such chunks retain their previous values (or zero).
        """
        attr = self.schema.attribute(attribute)
        if region is None:
            region = full_region(self.schema)
        self._check_region(region)
        data = np.asarray(data, dtype=attr.numpy_dtype)
        if data.shape != region_shape(region):
            raise ValueError(
                f"data shape {data.shape} does not match region shape "
                f"{region_shape(region)}"
            )

        for coords, data_slices, chunk_slices, chunk_shape in self._pieces(region):
            key = (self.schema.name, attribute, coords)
            if key in self._store:
                chunk = np.array(self._store.get(key), dtype=attr.numpy_dtype)
            else:
                chunk = np.zeros(chunk_shape, dtype=attr.numpy_dtype)
            chunk[chunk_slices] = data[data_slices]
            # A fresh array for each write: freezing it lets the store keep
            # it, and the chunk it replaces stays as readers saw it.
            chunk.flags.writeable = False
            self._store.put(key, chunk)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def drop(self) -> None:
        """Delete every chunk belonging to this array."""
        for key in list(self._store.keys()):
            if key[0] == self.schema.name:
                self._store.delete(key)
