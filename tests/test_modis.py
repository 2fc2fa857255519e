"""Unit tests for the synthetic MODIS world, NDSI pipeline, and dataset."""

import numpy as np
import pytest

from repro.arraydb import (
    ArrayExistsError,
    ArrayNotFoundError,
    ArraySchema,
    Attribute,
    CostModel,
    Database,
    Dimension,
    SchemaError,
    VirtualClock,
)
from repro.modis.dataset import MODISDataset, NDSI_ATTRIBUTES, _cluster_mass
from repro.modis.ndsi import ndsi_func, run_ndsi_query
from repro.modis.regions import (
    DEFAULT_TASKS,
    Continent,
    MountainRange,
    TaskSpec,
    scaled_tasks,
)
from repro.modis.synth import SyntheticWorld, ValueNoise
from repro.tiles.key import TileKey


class TestValueNoise:
    def test_range(self):
        field = ValueNoise(seed=1).sample(64)
        assert field.min() >= 0.0
        assert field.max() <= 1.0

    def test_deterministic(self):
        a = ValueNoise(seed=3, octaves=3).sample(32)
        b = ValueNoise(seed=3, octaves=3).sample(32)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_field(self):
        a = ValueNoise(seed=1).sample(32)
        b = ValueNoise(seed=2).sample(32)
        assert not np.array_equal(a, b)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ValueNoise(seed=1, octaves=0)
        with pytest.raises(ValueError):
            ValueNoise(seed=1, base_frequency=0)
        with pytest.raises(ValueError):
            ValueNoise(seed=1).sample(0)


class TestSyntheticWorld:
    def test_elevation_peaks_on_ranges(self):
        world = SyntheticWorld(seed=7)
        elev = world.elevation(256)
        # Sample the Alps area vs open Pacific.
        alps = elev[int(0.28 * 256), int(0.53 * 256)]
        ocean = elev[int(0.5 * 256), int(0.02 * 256)]
        assert alps > ocean + 0.3

    def test_land_mask_binary(self):
        world = SyntheticWorld(seed=7)
        mask = world.land_mask(128)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_no_snow_on_ocean(self):
        world = SyntheticWorld(seed=7)
        snow = world.snow_fraction(128)
        land = world.land_mask(128)
        assert np.all(snow[land == 0.0] == 0.0)

    def test_terrain_cached(self):
        world = SyntheticWorld(seed=7)
        a = world.elevation(64)
        b = world.elevation(64)
        assert a is b

    def test_days_differ_but_terrain_holds(self):
        world = SyntheticWorld(seed=7)
        day0 = world.snow_fraction(128, day=0)
        day1 = world.snow_fraction(128, day=1)
        assert not np.array_equal(day0, day1)
        # Same mountains: snowy regions overlap heavily.
        overlap = ((day0 > 0.5) & (day1 > 0.5)).sum()
        assert overlap > 0.5 * min((day0 > 0.5).sum(), (day1 > 0.5).sum())

    def test_bands_anticorrelated_on_snow(self):
        world = SyntheticWorld(seed=7)
        vis, swir = world.bands(128)
        snow = world.snow_fraction(128)
        snowy = snow > 0.8
        if snowy.any():
            assert vis[snowy].mean() > swir[snowy].mean()


class TestNDSI:
    def test_ndsi_range(self):
        rng = np.random.default_rng(0)
        vis = rng.random((8, 8)) + 0.01
        swir = rng.random((8, 8)) + 0.01
        out = ndsi_func(vis, swir)
        assert np.all(out <= 1.0)
        assert np.all(out >= -1.0)

    def test_ndsi_snow_positive(self):
        assert ndsi_func(np.asarray([0.8]), np.asarray([0.1]))[0] > 0.7

    def test_ndsi_zero_bands(self):
        assert ndsi_func(np.asarray([0.0]), np.asarray([0.0]))[0] == 0.0

    @staticmethod
    def load_band(db, name, dims, value):
        db.create_array(
            ArraySchema(name, attributes=(Attribute("reflectance"),), dimensions=dims)
        )
        db.write(name, "reflectance", np.full([d.length for d in dims], value))

    def test_query1_pipeline(self, db):
        """The paper's Query 1: store(apply(join(VIS, SWIR), ndsi...))."""
        side = 8
        dims = (Dimension("y", 0, side, side), Dimension("x", 0, side, side))
        self.load_band(db, "S_VIS", dims, 0.8)
        self.load_band(db, "S_SWIR", dims, 0.2)
        out = run_ndsi_query(db, "S_VIS", "S_SWIR", "NDSI")
        result = db.read(out, "ndsi")
        np.testing.assert_allclose(result, np.full((side, side), 0.6))

    def test_query1_charges_the_scans_join_and_apply(self):
        """One query: both bands scanned whole, one computed cell per
        cell for the join and one for the apply."""
        cost = CostModel(0.05, 0.002, 1e-5, 1e-3)
        db = Database(cost_model=cost)
        dims = (Dimension("y", 0, 8, 4), Dimension("x", 0, 8, 8))
        self.load_band(db, "S_VIS", dims, 0.8)
        self.load_band(db, "S_SWIR", dims, 0.2)
        charged = []
        execute = db.execute
        db.execute = lambda *args, **kwargs: charged.append(execute(*args, **kwargs))
        run_ndsi_query(db, "S_VIS", "S_SWIR", "NDSI")
        [stats] = charged
        assert (stats.chunks_read, stats.cells_scanned, stats.cells_computed) == (4, 128, 128)
        assert stats.elapsed_seconds == cost.query_cost(4, 128, 128)
        assert db.schema("NDSI").chunk_shape == (8, 8)

    @pytest.mark.parametrize(
        "swir_dims",
        [
            pytest.param(
                (Dimension("y", 0, 8, 8), Dimension("x", 0, 4, 4)), id="other-shape"
            ),
            pytest.param(
                (Dimension("y", 2, 10, 8), Dimension("x", 0, 8, 8)), id="shifted-origin"
            ),
        ],
    )
    def test_query1_refuses_bands_that_are_not_cell_aligned(self, db, swir_dims):
        self.load_band(db, "S_VIS", (Dimension("y", 0, 8, 8), Dimension("x", 0, 8, 8)), 0.8)
        self.load_band(db, "S_SWIR", swir_dims, 0.2)
        with pytest.raises(SchemaError, match="not cell-aligned"):
            run_ndsi_query(db, "S_VIS", "S_SWIR", "NDSI")
        with pytest.raises(ArrayNotFoundError):
            db.array("NDSI")

    @pytest.mark.parametrize(
        "vis, swir, expected",
        [
            (1.0, 0.0, 1.0),
            (0.0, 1.0, -1.0),
            (0.5, 0.5, 0.0),
            (0.8, 0.2, 0.6),
            (0.0, 0.0, 0.0),
        ],
    )
    def test_ndsi_values(self, vis, swir, expected):
        [value] = ndsi_func(np.asarray([vis]), np.asarray([swir]))
        assert value == pytest.approx(expected)

    def test_ndsi_is_antisymmetric_in_the_bands(self):
        rng = np.random.default_rng(3)
        vis, swir = rng.random((2, 6, 6))
        np.testing.assert_array_equal(ndsi_func(vis, swir), -ndsi_func(swir, vis))

    def test_ndsi_of_plain_integers_is_float64(self):
        out = ndsi_func([3, 0], [1, 0])
        assert out.dtype == np.float64
        assert out.tolist() == [0.5, 0.0]

    def test_query1_matches_ndsi_func_across_chunks(self, db):
        """Bands stored in several chunks give ndsi_func's exact bytes."""
        dims = (Dimension("y", 0, 12, 4), Dimension("x", 0, 12, 5))
        rng = np.random.default_rng(11)
        bands = {}
        for name in ("S_VIS", "S_SWIR"):
            self.load_band(db, name, dims, 0.0)
            bands[name] = rng.random((12, 12))
            db.write(name, "reflectance", bands[name])
        run_ndsi_query(db, "S_VIS", "S_SWIR", "NDSI")
        expected = ndsi_func(bands["S_VIS"], bands["S_SWIR"])
        assert db.read("NDSI", "ndsi").tobytes() == expected.tobytes()

    def test_query1_keeps_the_vis_bands_coordinates(self, db):
        dims = (Dimension("lat", -4, 4, 2), Dimension("lon", 10, 18, 4))
        self.load_band(db, "S_VIS", dims, 0.8)
        self.load_band(db, "S_SWIR", dims, 0.2)
        run_ndsi_query(db, "S_VIS", "S_SWIR", "NDSI")
        schema = db.schema("NDSI")
        assert [d.name for d in schema.dimensions] == ["lat", "lon"]
        assert (schema.origin, schema.shape) == ((-4, 10), (8, 8))
        assert [str(a) for a in schema.attributes] == ["ndsi:float64"]

    @pytest.mark.parametrize("dtype", ["float32", "int32", "uint8"])
    def test_query1_stores_float64_whatever_the_band_dtype(self, db, dtype):
        dims = (Dimension("y", 0, 4, 4), Dimension("x", 0, 4, 4))
        for name, value in (("S_VIS", 3), ("S_SWIR", 1)):
            db.create_array(
                ArraySchema(
                    name, attributes=(Attribute("reflectance", dtype),), dimensions=dims
                )
            )
            db.write(name, "reflectance", np.full((4, 4), value))
        run_ndsi_query(db, "S_VIS", "S_SWIR", "NDSI")
        out = db.read("NDSI", "ndsi")
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.full((4, 4), 0.5))

    def test_query1_reads_unwritten_cells_as_zero(self):
        """Absent chunks are empty cells: NDSI 0 there, and not billed."""
        db = Database()
        dims = (Dimension("y", 0, 8, 4), Dimension("x", 0, 8, 8))
        for name, value in (("S_VIS", 0.8), ("S_SWIR", 0.2)):
            db.create_array(
                ArraySchema(name, attributes=(Attribute("reflectance"),), dimensions=dims)
            )
            db.write(name, "reflectance", np.full((4, 8), value), ((0, 4), (0, 8)))
        charged = []
        execute = db.execute
        db.execute = lambda *args, **kwargs: charged.append(execute(*args, **kwargs))
        run_ndsi_query(db, "S_VIS", "S_SWIR", "NDSI")
        out = db.read("NDSI", "ndsi")
        np.testing.assert_allclose(out[:4], 0.6)
        np.testing.assert_array_equal(out[4:], 0.0)
        [stats] = charged
        assert (stats.chunks_read, stats.cells_scanned, stats.cells_computed) == (2, 64, 128)

    def test_query1_refuses_an_existing_output_without_charging(self):
        clock = VirtualClock()
        db = Database(clock=clock)
        dims = (Dimension("y", 0, 4, 4), Dimension("x", 0, 4, 4))
        self.load_band(db, "S_VIS", dims, 0.8)
        self.load_band(db, "S_SWIR", dims, 0.2)
        self.load_band(db, "NDSI", dims, 7.0)
        with pytest.raises(ArrayExistsError):
            run_ndsi_query(db, "S_VIS", "S_SWIR", "NDSI")
        assert clock.now() == 0.0
        np.testing.assert_array_equal(db.read("NDSI", "reflectance"), 7.0)

    @pytest.mark.parametrize("missing", ["S_VIS", "S_SWIR"])
    def test_query1_needs_both_bands(self, db, missing):
        dims = (Dimension("y", 0, 4, 4), Dimension("x", 0, 4, 4))
        for name in {"S_VIS", "S_SWIR"} - {missing}:
            self.load_band(db, name, dims, 0.5)
        with pytest.raises(ArrayNotFoundError):
            run_ndsi_query(db, "S_VIS", "S_SWIR", "NDSI")

    def test_query1_output_is_served_as_one_chunk(self):
        clock = VirtualClock()
        db = Database(clock=clock)
        dims = (Dimension("y", 0, 8, 4), Dimension("x", 0, 8, 4))
        self.load_band(db, "S_VIS", dims, 0.8)
        self.load_band(db, "S_SWIR", dims, 0.2)
        run_ndsi_query(db, "S_VIS", "S_SWIR", "NDSI")
        booted = clock.now()
        blocks, read = db.array("NDSI").read_chunk((0, 0))
        assert (read.chunks_read, read.cells_scanned) == (1, 64)
        assert blocks["ndsi"].tobytes() == db.read("NDSI", "ndsi").tobytes()
        assert clock.now() == booted  # reading is free; a tile fetch is charged


class TestTaskSpec:
    def test_target_level(self):
        task = TaskSpec(1, "t", (0.1, 0.1, 0.2, 0.2), target_depth=1, ndsi_threshold=0.5)
        assert task.target_level(7) == 5

    def test_target_level_too_shallow(self):
        task = TaskSpec(1, "t", (0.1, 0.1, 0.2, 0.2), target_depth=5, ndsi_threshold=0.5)
        with pytest.raises(ValueError):
            task.target_level(3)

    def test_contains(self):
        task = TaskSpec(1, "t", (0.1, 0.1, 0.3, 0.4), target_depth=0, ndsi_threshold=0.5)
        assert task.contains(0.2, 0.2)
        assert not task.contains(0.5, 0.2)

    def test_rejects_bad_bbox(self):
        with pytest.raises(ValueError):
            TaskSpec(1, "t", (0.5, 0.1, 0.3, 0.4), target_depth=0, ndsi_threshold=0.5)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="target_depth"):
            TaskSpec(1, "t", (0.1, 0.1, 0.3, 0.4), target_depth=-1, ndsi_threshold=0.5)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            TaskSpec(
                1, "t", (0.1, 0.1, 0.3, 0.4),
                target_depth=0, ndsi_threshold=0.5, min_fraction=0.0,
            )

    def test_default_tasks_match_paper(self):
        assert [t.task_id for t in DEFAULT_TASKS] == [1, 2, 3]
        assert DEFAULT_TASKS[1].ndsi_threshold == pytest.approx(0.50)
        assert DEFAULT_TASKS[2].ndsi_threshold == pytest.approx(0.25)


class TestScaledTasks:
    def test_full_scale_unchanged(self):
        assert scaled_tasks(2048) == DEFAULT_TASKS
        assert scaled_tasks(4096) == DEFAULT_TASKS

    def test_half_scale_relaxed(self):
        tasks = scaled_tasks(1024)
        for scaled, original in zip(tasks, DEFAULT_TASKS):
            assert scaled.min_fraction < original.min_fraction
            assert scaled.ndsi_threshold <= original.ndsi_threshold
            assert scaled.tiles_to_find <= original.tiles_to_find
            # Geometry is untouched.
            assert scaled.bbox == original.bbox
            assert scaled.target_depth == original.target_depth

    def test_quarter_scale_more_relaxed(self):
        half = scaled_tasks(1024)
        quarter = scaled_tasks(512)
        for h, q in zip(half, quarter):
            assert q.min_fraction <= h.min_fraction
            assert q.ndsi_threshold <= h.ndsi_threshold

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            scaled_tasks(0)


class TestMountainRange:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            MountainRange("r", 0, 0, 1, 1, width=0.0, height=1.0)
        with pytest.raises(ValueError):
            MountainRange("r", 0, 0, 1, 1, width=0.1, height=0.0)


class TestContinent:
    @pytest.mark.parametrize("rx, ry", [(0.0, 0.1), (0.1, -0.1)])
    def test_rejects_nonpositive_radii(self, rx, ry):
        with pytest.raises(ValueError, match="radii must be positive"):
            Continent("c", 0.5, 0.5, rx, ry)


class TestClusterMass:
    def test_empty_mask(self):
        assert _cluster_mass(np.zeros((8, 8), dtype=bool)) == 0.0

    def test_single_large_cluster(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:6, 2:6] = True
        assert _cluster_mass(mask) == pytest.approx(16 / 64)

    def test_speckle_ignored(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, 0] = True
        mask[4, 4] = True
        mask[7, 7] = True
        assert _cluster_mass(mask) == 0.0


class TestMODISDataset:
    def test_attributes(self, tiny_dataset):
        assert tiny_dataset.pyramid.attributes == NDSI_ATTRIBUTES

    def test_levels(self, tiny_dataset):
        assert tiny_dataset.num_levels == 3

    def test_ndsi_bounds(self, tiny_dataset):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(0, 0, 0), charge=False)
        ndsi = tile.attribute("ndsi_avg")
        assert ndsi.min() >= -1.0
        assert ndsi.max() <= 1.0

    def test_min_below_max(self, small_dataset):
        tile = small_dataset.pyramid.fetch_tile(TileKey(2, 1, 1), charge=False)
        assert np.all(
            tile.attribute("ndsi_min") <= tile.attribute("ndsi_max") + 1e-12
        )

    def test_each_task_is_satisfiable(self, small_dataset):
        """Every task must have at least tiles_to_find qualifying tiles."""
        for task in small_dataset.tasks:
            level = task.target_level(small_dataset.num_levels)
            keys = small_dataset.pyramid.grid.keys_at_level(level)
            satisfying = [
                k for k in keys if small_dataset.satisfies_task(k, task)
            ]
            assert len(satisfying) >= task.tiles_to_find, task.name

    def test_satisfies_requires_target_level(self, small_dataset):
        task = small_dataset.tasks[0]
        level = task.target_level(small_dataset.num_levels)
        keys = small_dataset.pyramid.grid.keys_at_level(level)
        satisfying = [k for k in keys if small_dataset.satisfies_task(k, task)]
        parent = satisfying[0].parent
        assert not small_dataset.satisfies_task(parent, task)

    def test_saliency_bounded(self, small_dataset):
        for key in [TileKey(0, 0, 0), TileKey(2, 1, 1)]:
            assert 0.0 <= small_dataset.saliency(key, 0.3) <= 1.0

    def test_snow_fraction_monotone_in_threshold(self, small_dataset):
        key = TileKey(2, 1, 1)
        low = small_dataset.snow_fraction(key, 0.0)
        high = small_dataset.snow_fraction(key, 0.5)
        assert high <= low

    def test_deterministic_build(self):
        a = MODISDataset.build(size=128, tile_size=32, days=1, seed=3)
        b = MODISDataset.build(size=128, tile_size=32, days=1, seed=3)
        ta = a.pyramid.fetch_tile(TileKey(1, 1, 0), charge=False)
        tb = b.pyramid.fetch_tile(TileKey(1, 1, 0), charge=False)
        assert ta == tb

    def test_build_charges_a_fixed_virtual_time(self):
        """The build's queries cost exactly what they always have: the
        cost model prices counts, so the clock is the same on any host."""
        dataset = MODISDataset.build(size=128, tile_size=32, days=1, seed=7)
        assert dataset.db.clock.now() == 109.953

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"days": 0}, "days"),
            ({"days": -2}, "days"),
            ({"size": 500}, "tile_size"),
            ({"size": 96}, "tile_size"),
            ({"size": 16}, "tile_size"),
            ({"size": 0}, "tile_size"),
            ({"tile_size": 0}, "tile_size"),
            ({"tile_size": -32}, "tile_size"),
        ],
    )
    def test_refuses_bad_arguments_before_synthesising(self, monkeypatch, kwargs, match):
        calls = []
        monkeypatch.setattr(
            SyntheticWorld, "bands", lambda self, size, day=0: calls.append(day)
        )
        with pytest.raises(ValueError, match=match):
            MODISDataset.build(**{"size": 64, "tile_size": 32, "days": 1, **kwargs})
        assert calls == []
