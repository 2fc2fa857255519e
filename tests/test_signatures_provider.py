"""Unit tests for the signature provider and selection."""

import numpy as np
import pytest

from repro.signatures.base import SignatureRegistry
from repro.signatures.histogram import HistogramSignature
from repro.signatures.provider import SignatureProvider
from repro.signatures.selection import select_best_signature
from repro.signatures.stats import NormalSignature
from repro.tiles.key import TileKey


@pytest.fixture
def cheap_provider(small_dataset):
    registry = SignatureRegistry((NormalSignature(), HistogramSignature()))
    return SignatureProvider(small_dataset.pyramid, registry, "ndsi_avg")


class TestProvider:
    def test_vector_computed_and_cached(self, cheap_provider):
        key = TileKey(1, 0, 0)
        first = cheap_provider.vector(key, "histogram")
        assert first.dtype == np.float64
        assert cheap_provider.vector(key, "histogram") is first

    def test_unknown_signature(self, cheap_provider):
        with pytest.raises(KeyError):
            cheap_provider.vector(TileKey(0, 0, 0), "nope")

    def test_unknown_attribute_rejected(self, small_dataset):
        registry = SignatureRegistry((NormalSignature(),))
        with pytest.raises(ValueError):
            SignatureProvider(small_dataset.pyramid, registry, "nope")

    @pytest.mark.parametrize("name", ["normal", "histogram"])
    def test_vectors_are_the_signature_of_each_tile(self, cheap_provider, name):
        pyramid = cheap_provider.pyramid
        signature = cheap_provider.registry.get(name)
        for level in range(3):
            for key in pyramid.grid.keys_at_level(level):
                tile = pyramid.fetch_tile(key, charge=False)
                np.testing.assert_array_equal(
                    cheap_provider.vector(key, name),
                    signature.compute(tile, "ndsi_avg"),
                )

    def test_each_vector_is_computed_once(self, small_dataset):
        computed = []

        class Counting(NormalSignature):
            def compute(self, tile, attribute):
                computed.append(tile.key)
                return super().compute(tile, attribute)

        provider = SignatureProvider(
            small_dataset.pyramid, SignatureRegistry((Counting(),)), "ndsi_avg"
        )
        keys = list(small_dataset.pyramid.grid.keys_at_level(1))
        for _ in range(3):
            for key in keys:
                provider.vector(key, "normal")
        assert computed == keys

    def test_vectors_are_read_without_charging_the_backend(self):
        from repro.arraydb import (
            ArraySchema, Attribute, CostModel, Database, Dimension, VirtualClock,
        )
        from repro.tiles.pyramid import TilePyramid

        clock = VirtualClock()
        db = Database(cost_model=CostModel(per_query_overhead=0.5), clock=clock)
        db.create_array(ArraySchema(
            "S",
            attributes=(Attribute("v"),),
            dimensions=(Dimension("y", 0, 16, 16), Dimension("x", 0, 16, 16)),
        ))
        db.write("S", "v", np.random.default_rng(2).uniform(-1, 1, (16, 16)))
        pyramid = TilePyramid.build(db, "S", tile_size=4)
        provider = SignatureProvider(
            pyramid, SignatureRegistry((HistogramSignature(),)), "v"
        )
        before = clock.now()
        for key in pyramid.grid.all_keys():
            assert provider.vector(key, "histogram").sum() == pytest.approx(1.0)
        assert clock.now() == before

    def test_distance_fn(self, cheap_provider):
        histogram = cheap_provider.distance_fn("histogram")
        assert histogram == cheap_provider.registry.get("histogram").distance
        assert histogram(np.ones(4), np.ones(4)) == 0.0


class TestSelection:
    def test_selects_a_registered_signature(self, cheap_provider, small_study):
        result = select_best_signature(
            cheap_provider, small_study.traces[:2], k=3
        )
        assert result.best in {"normal", "histogram"}
        assert set(result.scores) == {"normal", "histogram"}
        assert all(0.0 <= v <= 1.0 for v in result.scores.values())

    def test_empty_traces_rejected(self, cheap_provider):
        with pytest.raises(ValueError):
            select_best_signature(cheap_provider, [])

    def test_explicit_subset(self, cheap_provider, small_study):
        result = select_best_signature(
            cheap_provider, small_study.traces[:1], signature_names=["normal"], k=2
        )
        assert result.best == "normal"
