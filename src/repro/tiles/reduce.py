"""Multi-resolution tile reduction: coarse stand-ins for data tiles.

Progressive fidelity needs a cheap low-resolution representation of any
tile, two ways:

- :func:`downsample_tile` — block-average a full tile down by a factor
  (the payload a coarse *push* frame carries: a factor-4 reduction is
  16x fewer bytes on the wire),
- :func:`carve_from_ancestor` — slice a tile's footprint out of a
  *cached ancestor* pyramid level and upsample it back to full shape
  (the degraded-serving path: the quadtree guarantees the ancestor's
  sub-block covers exactly the same world region, so an overloaded
  service can answer from cache instead of queueing on the backend).

Both return **new** :class:`~repro.tiles.tile.DataTile` instances —
cached tiles are shared references and must never be mutated.  Fidelity
is expressed as the linear resolution fraction per axis: a factor-4
downsample (or a depth-2 ancestor carve) has fidelity ``0.25``; ``1.0``
is the full-resolution tile.
"""

from __future__ import annotations

import numpy as np

from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile

#: Linear downsampling factor (per axis) of a coarse stand-in tile: a
#: coarse push frame carries 1/16 of the cells, and degraded serving
#: carves from an ancestor at most ``log2(COARSE_REDUCTION)`` levels up.
COARSE_REDUCTION = 4


def _check_factor(factor: int) -> None:
    if not isinstance(factor, int) or factor < 2 or factor & (factor - 1):
        raise ValueError(
            f"reduction factor must be a power of two >= 2, got {factor!r}"
        )


def _block_reduce(array: np.ndarray, factor: int) -> np.ndarray:
    """Mean over ``factor x factor`` blocks, dtype preserved."""
    rows, cols = array.shape
    coarse = array.reshape(
        rows // factor, factor, cols // factor, factor
    ).mean(axis=(1, 3))
    return coarse.astype(array.dtype, copy=False)


def downsample_tile(tile: DataTile, factor: int) -> DataTile:
    """A coarse stand-in: every attribute block-averaged by ``factor``.

    The result keeps the tile's key (it stands in for the same world
    region) but carries ``factor**2`` fewer cells per attribute.
    """
    _check_factor(factor)
    rows, cols = tile.shape
    if rows % factor or cols % factor or rows < factor or cols < factor:
        raise ValueError(
            f"tile shape {tile.shape} is not divisible by factor {factor}"
        )
    return DataTile(
        key=tile.key,
        attributes={
            name: _block_reduce(array, factor)
            for name, array in tile.attributes.items()
        },
    )


def upsample_tile(tile: DataTile, factor: int) -> DataTile:
    """Nearest-neighbor upsample (inverse shape of :func:`downsample_tile`).

    Content stays coarse — each source cell is repeated into a
    ``factor x factor`` block — which is exactly what a client renders
    while it waits for the refinement frame.
    """
    _check_factor(factor)
    return DataTile(
        key=tile.key,
        attributes={
            name: np.repeat(np.repeat(array, factor, axis=0), factor, axis=1)
            for name, array in tile.attributes.items()
        },
    )


def carve_from_ancestor(ancestor: DataTile, key: TileKey) -> DataTile:
    """Carve ``key``'s footprint out of a cached ancestor tile.

    The quadtree invariant makes this exact: at depth ``d`` below the
    ancestor's level, ``key`` covers a ``(ts >> d) x (ts >> d)``
    sub-block of the ancestor's ``ts x ts`` payload.  The sub-block is
    upsampled back to the full tile shape, so the result is a
    full-shape, fidelity ``2**-d`` stand-in for the real tile.
    """
    depth = key.level - ancestor.key.level
    if depth < 1:
        raise ValueError(
            f"{ancestor.key} is not a proper ancestor of {key}"
        )
    if key.ancestor(ancestor.key.level) != ancestor.key:
        raise ValueError(f"{ancestor.key} does not contain {key}")
    scale = 1 << depth
    rows, cols = ancestor.shape
    sub_rows, sub_cols = rows // scale, cols // scale
    if sub_rows < 1 or sub_cols < 1 or rows % scale or cols % scale:
        raise ValueError(
            f"ancestor shape {ancestor.shape} cannot be split {scale} ways"
        )
    rx = key.x - (ancestor.key.x << depth)
    ry = key.y - (ancestor.key.y << depth)
    r0, c0 = ry * sub_rows, rx * sub_cols
    return DataTile(
        key=key,
        attributes={
            name: np.repeat(
                np.repeat(
                    array[r0 : r0 + sub_rows, c0 : c0 + sub_cols],
                    scale,
                    axis=0,
                ),
                scale,
                axis=1,
            )
            for name, array in ancestor.attributes.items()
        },
    )


def carve_fidelity(ancestor_level: int, level: int) -> float:
    """Fidelity of a depth-``level - ancestor_level`` ancestor carve."""
    depth = level - ancestor_level
    if depth < 1:
        raise ValueError(
            f"ancestor level {ancestor_level} is not above level {level}"
        )
    return 1.0 / (1 << depth)
