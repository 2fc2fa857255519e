"""Tests for the Section 6 extensions: multi-user serving and rendering."""

import numpy as np
import pytest

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.latency import HIT_SECONDS
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.service import ForeCacheService
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.render import render_ascii, render_ppm, snow_colormap
from repro.tiles.tile import DataTile


def momentum_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(grid, {model.name: model}, SingleModelStrategy(model.name))


def multiuser_service(pyramid, k: int) -> ForeCacheService:
    """Section 6.2's scheme: one shared cache whose prefetch region holds
    the whole budget ``k``, split fairly across the open sessions."""
    return ForeCacheService(
        pyramid,
        ServiceConfig(
            prefetch=PrefetchPolicy(k=k, share_budget=True),
            cache=CacheConfig(prefetch_capacity=k),
        ),
    )


class TestSharedBudgetSessions:
    """Shared-budget sessions, keyed by user id, on one ForeCacheService."""

    @pytest.fixture
    def server(self, small_dataset):
        server = multiuser_service(small_dataset.pyramid, 8)
        grid = small_dataset.pyramid.grid
        server.open_session(momentum_engine(grid), 1)
        server.open_session(momentum_engine(grid), 2)
        return server

    def test_registration(self, server, small_dataset):
        assert server.session_ids == [1, 2]
        with pytest.raises(ValueError):
            server.open_session(momentum_engine(small_dataset.pyramid.grid), 1)

    def test_unknown_user_rejected(self, server):
        with pytest.raises(KeyError):
            server.request(9, None, TileKey(0, 0, 0))

    def test_users_share_the_cache(self, server):
        """A tile user 1 paid for is a hit for user 2 — Section 6.2's
        cross-user sharing."""
        key = TileKey(2, 1, 1)
        first = server.request(1, None, key)
        assert not first.hit
        second = server.request(2, None, key)
        assert second.hit
        assert second.latency_seconds == pytest.approx(HIT_SECONDS)

    def test_prefetch_budget_shared_fairly(self, server):
        server.request(1, None, TileKey(2, 1, 1))
        server.request(2, None, TileKey(2, 2, 2))
        usage = server.cache_manager.cache.model_usage()
        # Both users' model predictions occupy the shared region.
        assert sum(usage.values()) <= 8
        prefetched = server.cache_manager.cache.prefetched_keys
        near_1 = [k for k in prefetched if k.manhattan_distance(TileKey(2, 1, 1)) <= 3]
        near_2 = [k for k in prefetched if k.manhattan_distance(TileKey(2, 2, 2)) <= 3]
        assert near_1 and near_2

    def test_per_user_recorders(self, server):
        server.request(1, None, TileKey(0, 0, 0))
        assert server.session(1).recorder.count == 1
        assert server.session(2).recorder.count == 0

    def test_remove_user(self, server):
        server.close_session(2)
        assert server.session_ids == [1]
        with pytest.raises(KeyError):
            server.close_session(2)

    def test_single_user_gets_full_budget(self, small_dataset):
        server = multiuser_service(small_dataset.pyramid, 6)
        server.open_session(momentum_engine(small_dataset.pyramid.grid), 1)
        server.request(1, None, TileKey(2, 1, 1))
        assert len(server.cache_manager.cache.prefetched_keys) == 6


class TestRendering:
    def _tile(self) -> DataTile:
        gradient = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
        return DataTile(key=TileKey(0, 0, 0), attributes={"v": gradient})

    def test_ascii_dimensions(self):
        art = render_ascii(self._tile(), "v", width=16)
        lines = art.splitlines()
        assert len(lines) == 16
        assert all(len(line) == 32 for line in lines)  # 2 chars per cell

    def test_ascii_brightness_follows_values(self):
        art = render_ascii(self._tile(), "v", width=8)
        lines = art.splitlines()
        # Bottom rows hold the largest values -> brightest glyphs.
        assert lines[0][0] == " "
        assert lines[-1][-1] == "@"

    def test_ascii_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            render_ascii(self._tile(), "v", width=1)

    def test_colormap_bounds(self):
        rgb = snow_colormap(np.asarray([0.0, 0.5, 1.0]))
        assert rgb.dtype == np.uint8
        assert rgb.shape == (3, 3)
        # Low values are blue-ish, high values near-white.
        assert rgb[0][2] > rgb[0][0]
        assert rgb[2].min() > 180

    def test_ppm_roundtrip(self, tmp_path):
        path = render_ppm(self._tile(), "v", tmp_path / "tile.ppm", scale=2)
        data = path.read_bytes()
        assert data.startswith(b"P6\n64 64\n255\n")
        # Header + 64*64 RGB pixels.
        assert len(data) == len(b"P6\n64 64\n255\n") + 64 * 64 * 3

    def test_ppm_rejects_bad_scale(self, tmp_path):
        with pytest.raises(ValueError):
            render_ppm(self._tile(), "v", tmp_path / "x.ppm", scale=0)

    def test_render_real_tile(self, small_dataset, tmp_path):
        tile = small_dataset.pyramid.fetch_tile(TileKey(0, 0, 0), charge=False)
        art = render_ascii(tile, "ndsi_avg")
        assert len(art.splitlines()) == 32
        render_ppm(tile, "ndsi_avg", tmp_path / "world.ppm")
        assert (tmp_path / "world.ppm").stat().st_size > 1000
