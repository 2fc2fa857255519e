"""The NDSI function and the paper's Query 1, as a numpy build step.

The Normalized Difference Snow Index (Section 5.1)::

    NDSI = (VIS - SWIR) / (VIS + SWIR)

is close to +1 over snow and negative over bare ground.  The paper
computes it inside SciDB with a ``ndsi_func`` UDF and Query 1 from
Section 5.1.2 —
``store(apply(join(S_VIS, S_SWIR), ndsi, ndsi_func(...)), NDSI)``.
Here :func:`run_ndsi_query` reads both bands, applies :func:`ndsi_func`
with numpy and stores the result, charging the database what that query
cost: a whole scan of both bands plus one computed cell per cell for
the join and one for the apply.
"""

from __future__ import annotations

import numpy as np

from repro.arraydb.errors import SchemaError
from repro.arraydb.executor import Database
from repro.arraydb.schema import ArraySchema, Attribute, Dimension


def ndsi_func(vis: np.ndarray, swir: np.ndarray) -> np.ndarray:
    """Vectorized NDSI; cells where both bands are zero yield 0."""
    vis = np.asarray(vis, dtype="float64")
    swir = np.asarray(swir, dtype="float64")
    total = vis + swir
    return np.divide(
        vis - swir, total, out=np.zeros_like(total), where=total != 0
    )


def run_ndsi_query(db: Database, vis_array: str, swir_array: str, out_array: str) -> str:
    """Query 1: compute NDSI from the two band arrays and store it.

    Both bands must cover the same cells (same shape and origin), as the
    join requires; otherwise :class:`SchemaError`.  The stored array has
    the VIS band's dimensions in one chunk and a single float64 ``ndsi``
    attribute.  Returns the output array name.
    """
    vis_schema, swir_schema = db.schema(vis_array), db.schema(swir_array)
    if (vis_schema.shape, vis_schema.origin) != (swir_schema.shape, swir_schema.origin):
        raise SchemaError(
            f"band arrays are not cell-aligned: {vis_schema.origin}+"
            f"{vis_schema.shape} vs {swir_schema.origin}+{swir_schema.shape}"
        )
    ndsi = ndsi_func(
        db.read(vis_array, "reflectance"), db.read(swir_array, "reflectance")
    )
    dims = tuple(Dimension(d.name, d.start, d.end, d.length) for d in vis_schema.dimensions)
    db.create_array(
        ArraySchema(out_array, attributes=(Attribute("ndsi"),), dimensions=dims)
    ).write("ndsi", ndsi)
    db.execute((vis_array, swir_array), cells_computed=2 * ndsi.size)
    return out_array
