"""Each piece of per-tile vision work at an experiment context's boot
happens once, and the answers stay what they were.

The descriptors the visual vocabulary trains on are the training tiles'
``sift`` vectors too, encoded by :class:`SIFTSignature`, so booting the
context and replaying a trace extracts SIFT descriptors at most once per
tile.  The study's saliency views are remembered per dataset, which
leaves every value, and so every study trace, unchanged.
"""

import collections
import hashlib
import json

import numpy as np
import pytest

import repro.modis.dataset as dataset_module
import repro.signatures.sift as sift_module
from repro.experiments import context as context_module
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import hybrid_factory
from repro.modis.dataset import MODISDataset, _cluster_mass
from repro.signatures.gradients import normalize_tile_values

#: sha256 over the 256 px, 4-user context's study traces as sorted JSON,
#: recorded at the commit before the saliency memo (cf1d731).
STUDY_256_SHA256 = "bcabc5eb2b1d12bbcf2d0ec2d26f51cc2a50f70c73ce306ba211e4e9561c2a45"


@pytest.fixture(scope="module")
def booted():
    """A freshly built 256 px, 4-user context after one trace's replay,
    and how often SIFT extraction saw each image on the way."""
    extracted = collections.Counter()
    extract = sift_module.extract_sift_descriptors

    def counting(image, **options):
        extracted[image.tobytes()] += 1
        return extract(image, **options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(context_module, "_context_cache", {})
        patch.setattr(sift_module, "extract_sift_descriptors", counting)
        context = ExperimentContext.build(size=256, num_users=4)
        engine = hybrid_factory(context)(context.study.traces[1:])
        for request in context.study.traces[0].requests:
            engine.observe(request.move, request.tile)
            engine.predict(8)
    return context, extracted


def test_boot_and_replay_extract_sift_once_per_tile(booted):
    context, extracted = booted
    # Tiles that show the same image (open ocean) share one entry.
    tiles_showing = collections.Counter(
        normalize_tile_values(
            context.pyramid.fetch_tile(key, charge=False).attribute(context.attribute)
        ).tobytes()
        for key in context.grid.all_keys()
    )
    assert extracted
    assert {i: n for i, n in extracted.items() if n > tiles_showing[i]} == {}


def test_every_sift_vector_held_is_what_the_signature_computes(booted):
    context, _ = booted
    sift = context.provider.registry.get("sift")
    held = [
        (key, vector)
        for (key, name), vector in context.provider._vectors.items()
        if name == "sift"
    ]
    assert len(held) > 0
    for key, vector in held:
        computed = np.asarray(
            sift.compute(context.pyramid.fetch_tile(key, charge=False), context.attribute),
            "float64",
        )
        assert vector.dtype == computed.dtype
        assert vector.tobytes() == computed.tobytes(), key


def _snow(dataset, key, threshold):
    tile = dataset.pyramid.fetch_tile(key, charge=False)
    return tile.attribute(dataset.primary_attribute) > threshold


def test_the_saliency_memo_answers_what_cluster_mass_does(monkeypatch):
    dataset = MODISDataset.build(size=128, tile_size=32, days=1, seed=7)
    views = [
        (key, threshold)
        for key in dataset.pyramid.grid.all_keys()
        for threshold in (0.0, 0.2)
    ]
    for key, threshold in views:
        mask = _snow(dataset, key, threshold)
        h, w = mask.shape
        assert dataset.saliency(key, threshold) == _cluster_mass(mask)
        assert dataset.quadrant_saliency(key, threshold) == {
            (0, 0): _cluster_mass(mask[: h // 2, : w // 2]),
            (1, 0): _cluster_mass(mask[: h // 2, w // 2 :]),
            (0, 1): _cluster_mass(mask[h // 2 :, : w // 2]),
            (1, 1): _cluster_mass(mask[h // 2 :, w // 2 :]),
        }
        for strip in (0.3, 0.5):
            sy, sx = max(1, round(h * strip)), max(1, round(w * strip))
            assert dataset.edge_saliency(key, threshold, strip) == {
                "left": _cluster_mass(mask[:, :sx]),
                "right": _cluster_mass(mask[:, w - sx :]),
                "up": _cluster_mass(mask[:sy, :]),
                "down": _cluster_mass(mask[h - sy :, :]),
            }

    # Every view is remembered: asking again labels nothing.
    calls = []
    monkeypatch.setattr(
        dataset_module, "_cluster_mass", lambda mask: calls.append(mask) or 0.0
    )
    for key, threshold in views:
        dataset.saliency(key, threshold)
        dataset.quadrant_saliency(key, threshold)
        dataset.edge_saliency(key, threshold, 0.5)
    assert calls == []


def test_a_returned_saliency_dict_is_the_callers_own(tiny_dataset):
    key = tiny_dataset.pyramid.grid.root
    quadrants = tiny_dataset.quadrant_saliency(key)
    edges = tiny_dataset.edge_saliency(key)
    expected = (dict(quadrants), dict(edges))
    quadrants[(0, 0)] = -1.0
    quadrants.clear()
    edges["left"] = -1.0
    assert (tiny_dataset.quadrant_saliency(key), tiny_dataset.edge_saliency(key)) == expected


def test_the_study_traces_are_unchanged():
    study = ExperimentContext.build(size=256, num_users=4).study
    text = json.dumps([trace.to_dict() for trace in study.traces], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == STUDY_256_SHA256
