"""User-defined function (UDF) registry.

The paper computes NDSI via a SciDB UDF (``ndsi_func``, Section 5.1.2).
This module provides the registry the ``apply`` operator resolves UDF
names against.  Functions are vectorized: they receive numpy arrays (one
per input attribute) and must return an array of the same shape.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.arraydb.errors import UnknownFunctionError

UDF = Callable[..., np.ndarray]


class FunctionRegistry:
    """Name → vectorized UDF mapping."""

    def __init__(self) -> None:
        self._functions: dict[str, UDF] = {}

    def register(self, name: str, func: UDF, overwrite: bool = False) -> None:
        """Register a UDF under ``name``.

        Re-registering an existing name raises unless ``overwrite`` is set,
        to catch accidental collisions between modules.
        """
        if name in self._functions and not overwrite:
            raise ValueError(f"function {name!r} is already registered")
        self._functions[name] = func

    def get(self, name: str) -> UDF:
        """Resolve a UDF by name."""
        try:
            return self._functions[name]
        except KeyError:
            raise UnknownFunctionError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions


def _build_default_registry() -> FunctionRegistry:
    registry = FunctionRegistry()
    registry.register("identity", lambda a: np.asarray(a))
    registry.register("add", lambda a, b: np.asarray(a) + np.asarray(b))
    registry.register("sub", lambda a, b: np.asarray(a) - np.asarray(b))
    registry.register("mul", lambda a, b: np.asarray(a) * np.asarray(b))
    registry.register(
        "safe_div",
        lambda a, b: np.divide(
            a, b, out=np.zeros_like(np.asarray(a, dtype="float64")), where=b != 0
        ),
    )
    return registry


#: Process-wide default registry; ``Database`` uses it unless given another.
default_registry = _build_default_registry()
