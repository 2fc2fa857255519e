"""Shared fixtures: small worlds, studies, and signature providers.

Heavy artifacts (datasets, studies, vocabularies) are session-scoped —
tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arraydb import ArraySchema, Attribute, Database, Dimension
from repro.modis.dataset import MODISDataset
from repro.signatures.base import SignatureRegistry
from repro.signatures.densesift import DenseSIFTSignature
from repro.signatures.histogram import HistogramSignature
from repro.signatures.provider import SignatureProvider
from repro.signatures.sift import SIFTSignature
from repro.signatures.stats import NormalSignature
from repro.signatures.visualwords import train_vocabulary, training_descriptors
from repro.users.study import run_study


@pytest.fixture
def segment_encodes(monkeypatch) -> list:
    """Every wire segment encoded while the test runs, as ``(tile,
    binary)``: the server's encoder, wrapped to count its calls."""
    from repro.middleware import protocol

    calls = []
    encode = protocol._encode_tile_segment

    def counting(tile, binary):
        calls.append((tile, binary))
        return encode(tile, binary)

    monkeypatch.setattr(protocol, "_encode_tile_segment", counting)
    return calls


@pytest.fixture
def db() -> Database:
    """A fresh in-memory array database."""
    return Database()


@pytest.fixture
def small_array(db: Database):
    """An 8x8 array with one attribute holding 0..63, chunked 4x4."""
    schema = ArraySchema(
        "A",
        attributes=(Attribute("v"),),
        dimensions=(Dimension("y", 0, 8, 4), Dimension("x", 0, 8, 4)),
    )
    db.create_array(schema)
    db.write("A", "v", np.arange(64, dtype="float64").reshape(8, 8))
    return db.array("A")


@pytest.fixture(scope="session")
def tiny_dataset() -> MODISDataset:
    """A 3-level world (128px, 32px tiles) — fast, for geometry tests."""
    return MODISDataset.build(size=128, tile_size=32, days=1, seed=7)


@pytest.fixture(scope="session")
def small_dataset() -> MODISDataset:
    """A 6-level world (1024px, 32px tiles) — has real snow structure
    and satisfiable (scaled) study tasks."""
    return MODISDataset.build(size=1024, tile_size=32, days=1, seed=7)


@pytest.fixture(scope="session")
def small_study(small_dataset):
    """A 4-user study over the small world."""
    return run_study(small_dataset, num_users=4, seed=17)


@pytest.fixture(scope="session")
def small_vocabulary(small_dataset):
    """A small visual vocabulary trained on the small world."""
    training = training_descriptors(
        small_dataset.pyramid, "ndsi_avg", seed=0, max_tiles_per_level=12
    )
    return train_vocabulary(training, num_words=12, seed=0)


@pytest.fixture(scope="session")
def signature_registry(small_vocabulary) -> SignatureRegistry:
    """All four Table 2 signatures."""
    return SignatureRegistry(
        (
            NormalSignature(),
            HistogramSignature(),
            SIFTSignature(small_vocabulary),
            DenseSIFTSignature(small_vocabulary),
        )
    )


@pytest.fixture(scope="session")
def provider(small_dataset, signature_registry) -> SignatureProvider:
    """Signature provider over the small world."""
    return SignatureProvider(small_dataset.pyramid, signature_registry, "ndsi_avg")
