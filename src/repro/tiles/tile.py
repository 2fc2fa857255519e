"""The data tile itself: a key plus its attribute payloads."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tiles.key import TileKey


@dataclass(frozen=True)
class DataTile:
    """One fetched tile: its key and a dense block per attribute.

    All attribute blocks share the tile's shape.  Tiles are immutable —
    the middleware cache hands out shared references, so payloads must
    never be mutated in place.  The blocks of a tile fetched from the
    pyramid are the chunk store's own read-only arrays, so an attempt
    raises; and since a stored chunk is never written in place (a write
    replaces it), a fetched tile keeps its bytes for as long as it lives.
    """

    key: TileKey
    attributes: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError(f"tile {self.key} has no attributes")
        blocks = iter(self.attributes.values())
        shape = next(blocks).shape
        for block in blocks:
            if block.shape != shape:
                shapes = {name: arr.shape for name, arr in self.attributes.items()}
                raise ValueError(
                    f"tile {self.key} attribute shapes differ: {shapes}"
                )

    @property
    def shape(self) -> tuple[int, ...]:
        """The tile's cell dimensions."""
        return next(iter(self.attributes.values())).shape

    @property
    def nbytes(self) -> int:
        """Total payload size in bytes (used for cache budgeting)."""
        return sum(arr.nbytes for arr in self.attributes.values())

    def attribute(self, name: str) -> np.ndarray:
        """Fetch one attribute's block."""
        try:
            return self.attributes[name]
        except KeyError:
            raise KeyError(
                f"tile {self.key} has no attribute {name!r}; "
                f"available: {sorted(self.attributes)}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataTile):
            return NotImplemented
        if self.key != other.key:
            return False
        if set(self.attributes) != set(other.attributes):
            return False
        return all(
            np.array_equal(self.attributes[name], other.attributes[name])
            for name in self.attributes
        )

    def __hash__(self) -> int:
        return hash(self.key)
