"""Unit tests for value-based signatures and the registry."""

import numpy as np
import pytest

from repro.signatures.base import Signature, SignatureRegistry
from repro.signatures.histogram import HistogramSignature
from repro.signatures.stats import NormalSignature
from repro.signatures.toolbox import LinearCorrelationSignature, OutlierCountSignature
from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile


def tile_of(values: np.ndarray) -> DataTile:
    return DataTile(key=TileKey(0, 0, 0), attributes={"v": np.asarray(values)})


class TestNormalSignature:
    def test_unit_mass(self):
        sig = NormalSignature()
        vec = sig.compute(tile_of(np.random.default_rng(0).normal(0, 0.2, (8, 8))), "v")
        assert vec.sum() == pytest.approx(1.0)
        assert len(vec) == 16

    def test_mean_shifts_mass(self):
        sig = NormalSignature(bins=8)
        low = sig.compute(tile_of(np.full((4, 4), -0.8)), "v")
        high = sig.compute(tile_of(np.full((4, 4), 0.8)), "v")
        assert np.argmax(low) < np.argmax(high)

    def test_constant_tile_handled(self):
        sig = NormalSignature()
        vec = sig.compute(tile_of(np.zeros((4, 4))), "v")
        assert np.all(np.isfinite(vec))
        assert vec.sum() == pytest.approx(1.0)

    def test_wider_std_spreads_mass(self):
        sig = NormalSignature(bins=8)
        narrow = sig.compute(tile_of(np.random.default_rng(0).normal(0, 0.05, 256)), "v")
        wide = sig.compute(tile_of(np.random.default_rng(0).normal(0, 0.5, 256)), "v")
        assert narrow.max() > wide.max()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            NormalSignature(bins=1)
        with pytest.raises(ValueError):
            NormalSignature(value_range=(1.0, -1.0))


class TestHistogramSignature:
    def test_unit_mass(self):
        sig = HistogramSignature()
        vec = sig.compute(tile_of(np.linspace(-1, 1, 64).reshape(8, 8)), "v")
        assert vec.sum() == pytest.approx(1.0)

    def test_bin_placement(self):
        sig = HistogramSignature(bins=4, value_range=(0.0, 1.0))
        vec = sig.compute(tile_of(np.full((4, 4), 0.9)), "v")
        assert vec[3] == pytest.approx(1.0)

    def test_out_of_range_clipped(self):
        sig = HistogramSignature(bins=4, value_range=(0.0, 1.0))
        vec = sig.compute(tile_of(np.full((4, 4), 5.0)), "v")
        assert vec.sum() == pytest.approx(1.0)

    def test_identical_tiles_identical_signatures(self):
        sig = HistogramSignature()
        values = np.random.default_rng(1).uniform(-1, 1, (8, 8))
        a = sig.compute(tile_of(values), "v")
        b = sig.compute(tile_of(values.copy()), "v")
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            HistogramSignature(bins=0)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="empty value range"):
            HistogramSignature(value_range=(0.5, 0.5))

    def test_all_nan_tile_is_the_zero_vector(self):
        sig = HistogramSignature(bins=4)
        vec = sig.compute(tile_of(np.full((4, 4), np.nan)), "v")
        np.testing.assert_array_equal(vec, np.zeros(4))
        assert vec.dtype == np.float64


class TestToolboxSignatures:
    def test_outlier_no_outliers(self):
        sig = OutlierCountSignature()
        vec = sig.compute(tile_of(np.random.default_rng(0).normal(0, 1, 1000)), "v")
        # Nearly all mass within 3 sigma.
        assert vec[:3].sum() > 0.95

    def test_outlier_detects_spikes(self):
        sig = OutlierCountSignature()
        values = np.zeros(100)
        values[:3] = 100.0
        vec = sig.compute(tile_of(values), "v")
        assert vec[-1] > 0.0

    def test_outlier_constant(self):
        vec = OutlierCountSignature().compute(tile_of(np.ones(16)), "v")
        assert vec[0] == pytest.approx(1.0)

    def test_outlier_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            OutlierCountSignature(edges=(1.0, 0.5))

    def test_correlation_rising_east(self):
        sig = LinearCorrelationSignature()
        yy, xx = np.mgrid[0:8, 0:8]
        vec = sig.compute(tile_of(xx.astype(float)), "v")
        assert vec[0] > 0.9  # strong +x correlation
        assert vec[1] == pytest.approx(0.5)  # no y correlation

    def test_correlation_constant_is_neutral(self):
        vec = LinearCorrelationSignature().compute(tile_of(np.ones((4, 4))), "v")
        np.testing.assert_allclose(vec, [0.5, 0.5])


class TestRegistry:
    def test_register_and_get(self):
        registry = SignatureRegistry((NormalSignature(),))
        assert isinstance(registry.get("normal"), NormalSignature)

    def test_duplicate_rejected(self):
        registry = SignatureRegistry((NormalSignature(),))
        with pytest.raises(ValueError):
            registry.register(NormalSignature())

    def test_overwrite_allowed(self):
        registry = SignatureRegistry((NormalSignature(),))
        registry.register(NormalSignature(bins=8), overwrite=True)
        assert registry.get("normal").bins == 8

    def test_missing_signature(self):
        with pytest.raises(KeyError):
            SignatureRegistry().get("nope")

    def test_names_sorted(self):
        registry = SignatureRegistry((HistogramSignature(), NormalSignature()))
        assert registry.names() == ["histogram", "normal"]

    def test_iteration_and_len(self):
        registry = SignatureRegistry((HistogramSignature(), NormalSignature()))
        assert len(registry) == 2
        assert all(isinstance(s, Signature) for s in registry)
