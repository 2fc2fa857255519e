"""Signature interface and registry.

Adding a new signature to ForeCache requires exactly two things
(Section 4.3.3): an algorithm computing it over one data tile, and a
distance function if Chi-Squared does not apply.  :class:`Signature`
captures that contract; :class:`SignatureRegistry` is the lookup table
the SB recommender and metadata builder iterate over.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.signatures.distance import chi_squared_distance
from repro.tiles.tile import DataTile


class Signature(abc.ABC):
    """A compact numeric representation of one data tile."""

    #: Registry key, and the provider's vector key; subclasses override.
    name: str = "signature"

    @abc.abstractmethod
    def compute(self, tile: DataTile, attribute: str) -> np.ndarray:
        """Compute this signature over one attribute of one tile.

        Returns a 1-D float vector.  Must be deterministic: the signature
        provider keeps results by (tile key, signature name).
        """

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two signature vectors (default: Chi-Squared,
        which applies because all built-in signatures emit histograms)."""
        return chi_squared_distance(a, b)


class SignatureRegistry:
    """Name → signature instance mapping."""

    def __init__(self, signatures: tuple[Signature, ...] = ()) -> None:
        self._signatures: dict[str, Signature] = {}
        for signature in signatures:
            self.register(signature)

    def register(self, signature: Signature, overwrite: bool = False) -> None:
        """Add a signature; re-registering a name raises unless allowed."""
        if signature.name in self._signatures and not overwrite:
            raise ValueError(f"signature {signature.name!r} is already registered")
        self._signatures[signature.name] = signature

    def get(self, name: str) -> Signature:
        """Resolve a signature by name."""
        try:
            return self._signatures[name]
        except KeyError:
            raise KeyError(
                f"signature {name!r} is not registered; "
                f"available: {self.names()}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._signatures

    def names(self) -> list[str]:
        """All registered signature names, sorted."""
        return sorted(self._signatures)

    def __iter__(self):
        return iter(self._signatures.values())

    def __len__(self) -> int:
        return len(self._signatures)
