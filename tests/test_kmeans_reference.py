"""Differential check of the visual vocabulary's k-means against scipy.

``kmeans_plus_plus`` is ``scipy.cluster.vq.kmeans2(data, k, minit="++",
seed=seed)`` in numpy, so that fitting a vocabulary never loads
``scipy.cluster``.  The vocabulary centres, and every SIFT and denseSIFT
signature encoded against them, depend on it draw for draw, so the tests
require scipy's centres byte for byte and its labels exactly: on random
inputs, on inputs with many duplicates (where a near-tie between two
centres decides a label), on barely more points than clusters, on an
input that leaves a cluster empty, and on the descriptors the 256 px
experiment context trains its vocabulary on.  A rounding slip rarely
flips a label or a seeding draw, so the two distance computations are
also held, bit for bit, to the distances ``vq`` and the seeding's
``cdist`` report.
"""

import warnings

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2, vq
from scipy.spatial.distance import cdist

from repro.experiments.context import ExperimentContext
from repro.signatures.visualwords import (
    _column_distances,
    _nearest,
    kmeans_plus_plus,
    training_descriptors,
)


def assert_matches_scipy(data, k, seed):
    with warnings.catch_warnings():
        # scipy warns when a cluster empties; the port keeps its centre
        # without a word, and the empty-cluster test asserts the warning.
        warnings.simplefilter("ignore")
        centres, labels = kmeans2(data, k, minit="++", seed=seed)
    got_centres, got_labels = kmeans_plus_plus(data, k, seed)
    assert got_centres.dtype == centres.dtype
    assert got_centres.tobytes() == centres.tobytes()
    np.testing.assert_array_equal(got_labels, labels)


@pytest.mark.parametrize("dim", [2, 16, 128])
def test_seeding_distance_is_cdists(dim):
    rng = np.random.default_rng(dim)
    data, point = rng.normal(size=(300, dim)), rng.normal(size=dim)
    expected = cdist(point[None], data, "sqeuclidean")[0]
    got = _column_distances(np.ascontiguousarray(data.T), point)
    assert got.tobytes() == expected.tobytes()


# Below 5 dimensions scipy labels by a plain sum of squared differences,
# from 5 on through BLAS: both rules are covered.
@pytest.mark.parametrize("dim", [2, 4, 5, 16, 128])
def test_nearest_centre_is_vqs(dim):
    rng = np.random.default_rng(dim)
    data = rng.normal(size=(300, dim))
    centres = data[rng.choice(300, size=24, replace=False)] + rng.normal(size=(24, dim))
    labels, squared = _nearest(data, np.ascontiguousarray(data.T), centres)
    expected_labels, expected_distances = vq(data, centres)
    np.testing.assert_array_equal(labels, expected_labels)
    assert np.sqrt(np.maximum(squared, 0.0)).tobytes() == expected_distances.tobytes()


# Below 5 dimensions scipy labels by a plain sum of squared differences,
# from 5 on through BLAS: both rules are covered.
@pytest.mark.parametrize("dim", [2, 4, 5, 16, 128])
@pytest.mark.parametrize("seed", range(4))
def test_random_inputs(dim, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(int(rng.integers(40, 400)), dim))
    assert_matches_scipy(data, int(rng.integers(2, 33)), seed)


@pytest.mark.parametrize("decimals", [1, 2])
@pytest.mark.parametrize("dim", [3, 8, 128])
@pytest.mark.parametrize("seed", range(4))
def test_inputs_with_many_duplicates(decimals, dim, seed):
    rng = np.random.default_rng(100 + seed)
    data = np.round(rng.normal(size=(300, dim)), decimals)
    assert_matches_scipy(data, 24, seed)


@pytest.mark.parametrize("dim", [2, 128])
@pytest.mark.parametrize("k", [2, 5, 31])
def test_barely_more_points_than_clusters(dim, k):
    data = np.random.default_rng(k).normal(size=(k + 1, dim))
    assert_matches_scipy(data, k, seed=k)


#: Six distinct points and one duplicate from which ``kmeans2(k=3,
#: minit="++", seed=21548)`` empties its third cluster and keeps its
#: centre for the last nine iterations.
EMPTYING = [[16, 2], [8, 0], [17, 2], [26, 1], [26, 1], [28, 0], [12, 2]]


@pytest.mark.parametrize("dim", [2, 8])
def test_an_empty_cluster_keeps_its_centre(dim):
    data = np.zeros((len(EMPTYING), dim))
    data[:, :2] = EMPTYING
    with pytest.warns(UserWarning, match="clusters is empty"):
        _, labels = kmeans2(data, 3, minit="++", seed=21548)
    assert 2 not in labels
    assert_matches_scipy(data, 3, seed=21548)


def test_the_context_vocabularys_descriptors():
    context = ExperimentContext.build(size=256, num_users=4)
    training = training_descriptors(
        context.pyramid, context.attribute, seed=7, max_tiles_per_level=48
    )
    data = np.vstack([block for block in training.values() if block.shape[0]])
    assert data.shape[0] > 32
    assert_matches_scipy(data, 32, seed=7)
