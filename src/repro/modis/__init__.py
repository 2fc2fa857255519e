"""Synthetic NASA-MODIS-style snow-cover data (Section 5.1).

The paper's evaluation browses one week of NASA MODIS satellite imagery,
reduced to a 2-D NDSI (Normalized Difference Snow Index) array with four
attributes: max / min / average NDSI and a land/sea mask.  Real MODIS
data is a 10 TB download, so this package synthesizes a world with the
same *visual structure*: continents, ocean, and spatially coherent
mountain ranges whose snow shows up as bright NDSI clusters — including
analogues of the three study regions (Rockies, Alps, Andes).

The NDSI itself is computed as the paper's Query 1 does
(``store(apply(join(S_VIS, S_SWIR), ndsi, ...), NDSI)``): ``ndsi_func``
applied to the two band arrays, stored as a new array and charged to
the database's cost ledger as that query.
"""

from repro.modis.dataset import MODISDataset
from repro.modis.ndsi import ndsi_func, run_ndsi_query
from repro.modis.regions import (
    Continent,
    DEFAULT_CONTINENTS,
    DEFAULT_RANGES,
    DEFAULT_TASKS,
    MountainRange,
    TaskSpec,
)
from repro.modis.synth import SyntheticWorld, ValueNoise

__all__ = [
    "Continent",
    "DEFAULT_CONTINENTS",
    "DEFAULT_RANGES",
    "DEFAULT_TASKS",
    "MODISDataset",
    "MountainRange",
    "SyntheticWorld",
    "TaskSpec",
    "ValueNoise",
    "ndsi_func",
    "run_ndsi_query",
]
