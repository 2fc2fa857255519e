"""A SciDB-like in-process array DBMS substrate.

The ForeCache paper runs against SciDB 13.3.  This package provides the
subset of an array DBMS that ForeCache exercises:

- multidimensional arrays with named dimensions and typed attributes
  (:mod:`repro.arraydb.schema`, :mod:`repro.arraydb.array`),
- chunked storage in memory (:mod:`repro.arraydb.storage`),
- an AFL-style operator algebra — ``scan``, ``subarray``, ``regrid``,
  ``apply``, ``join``, ``project``, ``store`` — sufficient to express
  Query 1 of the paper (:mod:`repro.arraydb.query`),
- a query executor with per-query cost accounting and a virtual clock,
  calibrated so that tile fetches cost what the paper measured on its
  SciDB testbed (:mod:`repro.arraydb.executor`,
  :mod:`repro.arraydb.cost`).

Example
-------
>>> from repro.arraydb import Database, ArraySchema, Dimension, Attribute
>>> from repro.arraydb import query as Q
>>> import numpy as np
>>> db = Database()
>>> schema = ArraySchema(
...     "A",
...     attributes=(Attribute("v"),),
...     dimensions=(Dimension("x", 0, 8, 4), Dimension("y", 0, 8, 4)),
... )
>>> _ = db.create_array(schema)
>>> db.write("A", "v", np.arange(64.0).reshape(8, 8))
>>> result = db.execute(Q.regrid(Q.scan("A"), (2, 2)))
>>> result.attribute("v").shape
(4, 4)
"""

from repro.arraydb.array import ChunkedArray
from repro.arraydb.cost import CostModel, QueryStats, VirtualClock
from repro.arraydb.errors import (
    ArrayDBError,
    ArrayExistsError,
    ArrayNotFoundError,
    SchemaError,
    UnknownFunctionError,
)
from repro.arraydb.executor import ArrayResult, Database
from repro.arraydb.functions import FunctionRegistry, default_registry
from repro.arraydb.schema import ArraySchema, Attribute, Dimension
from repro.arraydb.storage import MemoryChunkStore

__all__ = [
    "ArrayDBError",
    "ArrayExistsError",
    "ArrayNotFoundError",
    "ArrayResult",
    "ArraySchema",
    "Attribute",
    "ChunkedArray",
    "CostModel",
    "Database",
    "Dimension",
    "FunctionRegistry",
    "MemoryChunkStore",
    "QueryStats",
    "SchemaError",
    "UnknownFunctionError",
    "VirtualClock",
    "default_registry",
]
