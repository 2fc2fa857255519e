"""A SciDB-like in-process array store: the backend ForeCache fetches from.

The ForeCache paper runs against SciDB 13.3, with every zoom level
precomputed offline as a materialised view (Section 5).  This package
provides the subset of an array DBMS that ForeCache exercises:

- multidimensional arrays with named dimensions and typed attributes
  (:mod:`repro.arraydb.schema`, :mod:`repro.arraydb.array`),
- chunked storage in memory (:mod:`repro.arraydb.storage`),
- a database with per-query cost accounting and a virtual clock,
  calibrated so that tile fetches cost what the paper measured on its
  SciDB testbed (:mod:`repro.arraydb.executor`,
  :mod:`repro.arraydb.cost`).  A tile fetch reads one whole chunk per
  attribute and is billed by the tile pyramid as one look-up query
  priced by :attr:`Database.cost_model`; the loaders that build the
  arrays bill each build step through :meth:`Database.execute`.

Example
-------
>>> from repro.arraydb import Database, ArraySchema, Dimension, Attribute
>>> import numpy as np
>>> db = Database()
>>> schema = ArraySchema(
...     "A",
...     attributes=(Attribute("v"),),
...     dimensions=(Dimension("x", 0, 8, 4), Dimension("y", 0, 8, 4)),
... )
>>> _ = db.create_array(schema)
>>> db.write("A", "v", np.arange(64.0).reshape(8, 8))
>>> db.read("A", "v", ((0, 4), (4, 8))).shape
(4, 4)
>>> blocks, read = db.array("A").read_chunk((0, 1))
>>> (float(blocks["v"][0, 0]), read.chunks_read, read.cells_scanned)
(4.0, 1, 16)
"""

from repro.arraydb.array import ChunkedArray
from repro.arraydb.cost import CostModel, QueryStats, VirtualClock
from repro.arraydb.errors import (
    ArrayDBError,
    ArrayExistsError,
    ArrayNotFoundError,
    SchemaError,
)
from repro.arraydb.executor import Database
from repro.arraydb.schema import ArraySchema, Attribute, Dimension
from repro.arraydb.storage import MemoryChunkStore

__all__ = [
    "ArrayDBError",
    "ArrayExistsError",
    "ArrayNotFoundError",
    "ArraySchema",
    "Attribute",
    "ChunkedArray",
    "CostModel",
    "Database",
    "Dimension",
    "MemoryChunkStore",
    "QueryStats",
    "SchemaError",
    "VirtualClock",
]
