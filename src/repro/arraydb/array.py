"""Chunked multidimensional arrays backed by a :class:`MemoryChunkStore`.

A :class:`ChunkedArray` binds an :class:`~repro.arraydb.schema.ArraySchema`
to a chunk store and provides region reads/writes in *array coordinates*
(which need not start at zero), plus whole-chunk reads in *chunk
coordinates*.  Region reads assemble the covering chunks; both kinds
report how many chunks and cells were touched, which feeds the executor's
cost accounting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.arraydb.schema import ArraySchema
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


class ChunkedArray:
    """A dense array stored as fixed-size chunks.

    Missing chunks read back as the schema attribute's fill value (zero),
    matching the behaviour of an empty SciDB array.
    """

    def __init__(self, schema: ArraySchema, store: MemoryChunkStore) -> None:
        self.schema = schema
        self._store = store

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

    def _covering_chunks(self, region: Region) -> list[tuple[int, ...]]:
        """Chunk coordinate tuples overlapping ``region``."""
        per_dim: list[range] = []
        for (lo, hi), dim in zip(region, self.schema.dimensions):
            first = dim.chunk_of(lo)
            last = dim.chunk_of(hi - 1)
            per_dim.append(range(first, last + 1))
        return [tuple(coords) for coords in itertools.product(*per_dim)]

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
        for coords in self._covering_chunks(region):
            key = (self.schema.name, attribute, coords)
            if key not in self._store:
                continue
            chunk = self._store.get(key)
            chunks_read += 1
            cells_scanned += chunk.size
            bounds = [
                dim.chunk_bounds(c) for dim, c in zip(self.schema.dimensions, coords)
            ]
            # Overlap of chunk bounds with the requested region, then the
            # corresponding slices into the output and chunk arrays.
            out_slices = []
            chunk_slices = []
            for (c_lo, c_hi), (r_lo, r_hi) in zip(bounds, region):
                lo = max(c_lo, r_lo)
                hi = min(c_hi, r_hi)
                out_slices.append(slice(lo - r_lo, hi - r_lo))
                chunk_slices.append(slice(lo - c_lo, hi - c_lo))
            out[tuple(out_slices)] = chunk[tuple(chunk_slices)]
        return out, ReadStats(chunks_read=chunks_read, cells_scanned=cells_scanned)

    def read_chunk(
        self, coords: tuple[int, ...]
    ) -> tuple[dict[str, np.ndarray], ReadStats]:
        """Read every attribute of the one chunk at chunk coordinates ``coords``.

        Attribute for attribute this equals :meth:`read` over that chunk's
        bounds, stats included — an absent chunk reads back zero-filled and
        is not counted — without assembling a region.  The blocks are fresh
        copies (never the store's own arrays) and read-only, so one block
        can be handed to any number of readers.
        """
        schema = self.schema
        if len(coords) != schema.ndim:
            raise ValueError(
                f"chunk coordinates have {len(coords)} dimensions, array "
                f"{schema.name!r} has {schema.ndim}"
            )
        # chunk_bounds rejects an index outside the dimension's chunk count.
        bounds = [dim.chunk_bounds(c) for dim, c in zip(schema.dimensions, coords)]
        coords = tuple(coords)
        blocks: dict[str, np.ndarray] = {}
        chunks_read = 0
        cells_scanned = 0
        for attr in schema.attributes:
            key = (schema.name, attr.name, coords)
            if key in self._store:
                block = np.array(self._store.get(key), dtype=attr.dtype, order="C")
                chunks_read += 1
                cells_scanned += block.size
            else:
                block = np.zeros([hi - lo for lo, hi in bounds], dtype=attr.dtype)
            block.setflags(write=False)
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

        for coords in self._covering_chunks(region):
            key = (self.schema.name, attribute, coords)
            bounds = [
                dim.chunk_bounds(c) for dim, c in zip(self.schema.dimensions, coords)
            ]
            chunk_shape = tuple(hi - lo for lo, hi in bounds)
            if key in self._store:
                chunk = np.array(self._store.get(key), dtype=attr.numpy_dtype)
            else:
                chunk = np.zeros(chunk_shape, dtype=attr.numpy_dtype)
            data_slices = []
            chunk_slices = []
            for (c_lo, c_hi), (r_lo, r_hi) in zip(bounds, region):
                lo = max(c_lo, r_lo)
                hi = min(c_hi, r_hi)
                data_slices.append(slice(lo - r_lo, hi - r_lo))
                chunk_slices.append(slice(lo - c_lo, hi - c_lo))
            chunk[tuple(chunk_slices)] = data[tuple(data_slices)]
            self._store.put(key, chunk)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def drop(self) -> None:
        """Delete every chunk belonging to this array."""
        for key in list(self._store.keys()):
            if key[0] == self.schema.name:
                self._store.delete(key)
