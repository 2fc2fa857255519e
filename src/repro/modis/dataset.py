"""End-to-end MODIS dataset construction (Section 5.1.1).

Mirrors the paper's preparation pipeline:

1. load each day's VIS and SWIR band arrays into the DBMS,
2. compute that day's NDSI from the two bands and store it as a new
   array, charged as the paper's Query 1,
3. flatten the week into a single 2-D array with four attributes —
   ``ndsi_avg``, ``ndsi_min``, ``ndsi_max``, and ``land_mask``,
4. build the zoom-level pyramid of data tiles over the flattened array.

The resulting :class:`MODISDataset` also carries the three study tasks
and the "what does the user see" helpers the simulated participants use
(snow fraction and clustered-snow saliency per tile).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.arraydb.cost import CostModel, VirtualClock
from repro.arraydb.executor import Database
from repro.arraydb.schema import ArraySchema, Attribute, Dimension
from repro.modis.ndsi import run_ndsi_query
from repro.modis.regions import TaskSpec, scaled_tasks
from repro.modis.synth import SyntheticWorld
from repro.tiles.key import TileKey
from repro.tiles.pyramid import TilePyramid

#: Attribute order of the flattened NDSI array.
NDSI_ATTRIBUTES = ("ndsi_avg", "ndsi_min", "ndsi_max", "land_mask")


def _remembered(view):
    """Work a view of a tile out once per dataset and argument set: the
    stored chunks it reads never change.  A dict comes back as the
    caller's own copy."""

    @functools.wraps(view)
    def remembered(self, *args, **kwargs):
        memo = self.__dict__.setdefault("_views", {})
        key = (view.__name__, args, tuple(kwargs.items()))
        found = memo.get(key)
        if found is None:
            found = memo[key] = view(self, *args, **kwargs)
        return dict(found) if isinstance(found, dict) else found

    return remembered


@dataclass
class MODISDataset:
    """A built synthetic MODIS dataset: DBMS, pyramid, world, and tasks."""

    db: Database
    pyramid: TilePyramid
    world: SyntheticWorld
    tasks: tuple[TaskSpec, ...]
    array_name: str

    #: Attribute rendered by the browsing interface (the heatmap's value).
    primary_attribute: str = "ndsi_avg"

    @classmethod
    def build(
        cls,
        size: int = 512,
        tile_size: int = 32,
        days: int = 3,
        seed: int = 7,
        db: Database | None = None,
        tasks: tuple[TaskSpec, ...] | None = None,
        array_name: str = "NDSI",
        keep_daily_arrays: bool = False,
    ) -> "MODISDataset":
        """Synthesize the world and build the tiled NDSI pyramid.

        ``size`` must be ``tile_size * 2^k``; the pyramid gets ``k + 1``
        zoom levels.  When no database is supplied, one is created with a
        cost model calibrated so a tile fetch costs the paper's measured
        984 ms cache-miss latency.

        Raises ``ValueError`` for ``days < 1`` or a ``size`` that is not
        ``tile_size * 2^k``, before anything is synthesised.
        """
        if days < 1:
            raise ValueError(f"days must be >= 1, got {days}")
        factor = size // tile_size if tile_size >= 1 else 0
        if factor < 1 or factor * tile_size != size or factor & (factor - 1):
            raise ValueError(
                f"size must be tile_size * 2^k, got size={size}, tile_size={tile_size}"
            )
        if tasks is None:
            # Task difficulty is calibrated for the 2048-cell study
            # raster; smaller worlds get proportionally relaxed tasks.
            tasks = scaled_tasks(size)
        if db is None:
            # Calibrated so that one tile query (all four attributes)
            # plus the middleware transfer overhead reproduces the
            # paper's 984 ms miss.
            from repro.middleware.latency import HIT_SECONDS, MISS_SECONDS

            db = Database(
                cost_model=CostModel.calibrated(
                    tile_cells=tile_size * tile_size * len(NDSI_ATTRIBUTES),
                    miss_seconds=MISS_SECONDS - HIT_SECONDS,
                ),
                clock=VirtualClock(),
            )
        world = SyntheticWorld(seed)

        running_sum: np.ndarray | None = None
        running_min: np.ndarray | None = None
        running_max: np.ndarray | None = None
        for day in range(days):
            vis, swir = world.bands(size, day)
            vis_name = f"S_VIS_day{day}"
            swir_name = f"S_SWIR_day{day}"
            _load_band(db, vis_name, vis)
            _load_band(db, swir_name, swir)
            day_array = run_ndsi_query(
                db, vis_name, swir_name, f"{array_name}_day{day}"
            )
            ndsi = db.read(day_array, "ndsi")
            if running_sum is None:
                running_sum = ndsi.copy()
                running_min = ndsi.copy()
                running_max = ndsi.copy()
            else:
                running_sum += ndsi
                np.minimum(running_min, ndsi, out=running_min)
                np.maximum(running_max, ndsi, out=running_max)
            if not keep_daily_arrays:
                db.drop_array(vis_name)
                db.drop_array(swir_name)
                db.drop_array(day_array)

        land = world.land_mask(size)
        flattened = {
            "ndsi_avg": running_sum / days,
            "ndsi_min": running_min,
            "ndsi_max": running_max,
            "land_mask": land,
        }

        schema = ArraySchema(
            array_name,
            attributes=tuple(Attribute(name) for name in NDSI_ATTRIBUTES),
            dimensions=(
                Dimension("y", 0, size, tile_size),
                Dimension("x", 0, size, tile_size),
            ),
        )
        array = db.create_array(schema)
        for name in NDSI_ATTRIBUTES:
            array.write(name, flattened[name])

        pyramid = TilePyramid.build(
            db,
            array_name,
            tile_size,
            attributes=NDSI_ATTRIBUTES,
            aggregates={"land_mask": "max"},
        )
        return cls(
            db=db,
            pyramid=pyramid,
            world=world,
            tasks=tuple(tasks),
            array_name=array_name,
        )

    # ------------------------------------------------------------------
    # "what the user sees" helpers
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        """Zoom levels in the pyramid."""
        return self.pyramid.num_levels

    def snow_fraction(self, key: TileKey, threshold: float = 0.0) -> float:
        """Fraction of a tile's land cells whose average NDSI exceeds
        ``threshold`` — the visual "how orange is this tile" cue the
        simulated user navigates by.  Reads bypass the executor (a human
        looking at an already-rendered tile costs no queries).
        """
        tile = self.pyramid.fetch_tile(key, charge=False)
        ndsi = tile.attribute(self.primary_attribute)
        return float(np.mean(ndsi > threshold))

    def max_ndsi(self, key: TileKey) -> float:
        """Largest per-cell average NDSI within a tile."""
        tile = self.pyramid.fetch_tile(key, charge=False)
        return float(tile.attribute(self.primary_attribute).max())

    @_remembered
    def saliency(self, key: TileKey, threshold: float = 0.0) -> float:
        """Visual attractiveness of a tile: mass of *clustered* snow.

        Users forage for "large clusters of orange pixels" (the paper's
        Figure 6); isolated bright cells — sensor speckle — do not draw
        the eye.  This is the fraction of cells belonging to connected
        above-threshold components of at least :data:`MIN_CLUSTER_CELLS`
        cells.
        """
        tile = self.pyramid.fetch_tile(key, charge=False)
        mask = tile.attribute(self.primary_attribute) > threshold
        return _cluster_mass(mask)

    @_remembered
    def quadrant_saliency(
        self, key: TileKey, threshold: float = 0.0
    ) -> dict[tuple[int, int], float]:
        """Clustered-snow mass per rendered quadrant (zoom-in choices)."""
        tile = self.pyramid.fetch_tile(key, charge=False)
        mask = tile.attribute(self.primary_attribute) > threshold
        h, w = mask.shape
        hy, hx = h // 2, w // 2
        return {
            (0, 0): _cluster_mass(mask[:hy, :hx]),
            (1, 0): _cluster_mass(mask[:hy, hx:]),
            (0, 1): _cluster_mass(mask[hy:, :hx]),
            (1, 1): _cluster_mass(mask[hy:, hx:]),
        }

    @_remembered
    def edge_saliency(
        self, key: TileKey, threshold: float = 0.0, strip: float = 0.3
    ) -> dict[str, float]:
        """Clustered-snow mass near each edge (pan choices)."""
        tile = self.pyramid.fetch_tile(key, charge=False)
        mask = tile.attribute(self.primary_attribute) > threshold
        h, w = mask.shape
        sy = max(1, int(round(h * strip)))
        sx = max(1, int(round(w * strip)))
        return {
            "left": _cluster_mass(mask[:, :sx]),
            "right": _cluster_mass(mask[:, w - sx :]),
            "up": _cluster_mass(mask[:sy, :]),
            "down": _cluster_mass(mask[h - sy :, :]),
        }

    def satisfies_task(self, key: TileKey, task: TaskSpec) -> bool:
        """True if a tile meets the task's requirements: correct level,
        inside the region, and *visibly* containing NDSI above the
        threshold (at least ``task.min_fraction`` of its cells)."""
        if key.level != task.target_level(self.num_levels):
            return False
        cx, cy = key.normalized_center()
        if not task.contains(cx, cy):
            return False
        return self.snow_fraction(key, task.ndsi_threshold) >= task.min_fraction


#: Connected components smaller than this read as noise, not clusters.
MIN_CLUSTER_CELLS = 4


def _cluster_mass(mask: np.ndarray) -> float:
    """Fraction of cells in connected components of meaningful size."""
    from scipy import ndimage

    if not mask.any():
        return 0.0
    labels, count = ndimage.label(mask)
    if count == 0:
        return 0.0
    sizes = np.bincount(labels.ravel())[1:]
    clustered = sizes[sizes >= MIN_CLUSTER_CELLS].sum()
    return float(clustered) / mask.size


def _load_band(db: Database, name: str, data: np.ndarray) -> None:
    """Create and bulk-load one band array (schema from Section 5.1.2)."""
    size = data.shape[0]
    schema = ArraySchema(
        name,
        attributes=(Attribute("reflectance"),),
        dimensions=(
            Dimension("y", 0, size, size),
            Dimension("x", 0, size, size),
        ),
    )
    db.create_array(schema)
    db.write(name, "reflectance", data)
