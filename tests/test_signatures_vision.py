"""Unit tests for SIFT, denseSIFT, and visual vocabularies."""

import numpy as np
import pytest

from repro.signatures.densesift import DenseSIFTSignature, extract_dense_descriptors
from repro.signatures import sift
from repro.signatures.gradients import (
    DESCRIPTOR_DIM,
    WINDOW,
    build_scale_space,
    descriptor_at,
    difference_of_gaussians,
    dominant_orientation,
    normalize_tile_values,
    polar_gradients,
)
from repro.signatures.sift import SIFTSignature, extract_sift_descriptors
from repro.signatures.visualwords import VisualVocabulary
from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile


def blob_image(size: int = 32, centers=((16, 16),), sigma: float = 2.5) -> np.ndarray:
    """An image with Gaussian blobs — guaranteed DoG extrema."""
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size))
    for cy, cx in centers:
        img += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
    return img


class TestGradients:
    def test_scale_space_monotone_smoothing(self):
        img = np.random.default_rng(0).random((32, 32))
        stack = build_scale_space(img, num_scales=4)
        stds = [layer.std() for layer in stack]
        assert stds == sorted(stds, reverse=True)

    def test_scale_space_needs_three(self):
        with pytest.raises(ValueError):
            build_scale_space(np.zeros((8, 8)), num_scales=2)

    def test_dog_shape(self):
        img = np.zeros((16, 16))
        dogs = difference_of_gaussians(build_scale_space(img, 5))
        assert dogs.shape == (4, 16, 16)

    def test_polar_gradients_angles_in_range(self):
        img = np.random.default_rng(1).random((16, 16))
        mag, ang = polar_gradients(img)
        assert mag.min() >= 0.0
        assert ang.min() >= 0.0
        assert ang.max() < 2 * np.pi

    def test_dominant_orientation_of_ramp(self):
        yy, xx = np.mgrid[0:32, 0:32].astype(float)
        mag, ang = polar_gradients(xx)  # gradient points +x
        orientation = dominant_orientation(mag, ang, 16, 16)
        assert abs(orientation) < 0.5 or abs(orientation - 2 * np.pi) < 0.5

    def test_descriptor_dimension(self):
        img = blob_image()
        mag, ang = polar_gradients(img)
        vec = descriptor_at(mag, ang, 16, 16)
        assert vec is not None
        assert vec.shape == (DESCRIPTOR_DIM,)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_descriptor_near_border_is_none(self):
        img = blob_image()
        mag, ang = polar_gradients(img)
        assert descriptor_at(mag, ang, 2, 2) is None

    def test_descriptor_flat_patch_is_none(self):
        mag = np.zeros((32, 32))
        ang = np.zeros((32, 32))
        assert descriptor_at(mag, ang, 16, 16) is None

    def test_normalize_tile_values(self):
        values = np.asarray([[-1.0, 0.0], [1.0, 2.0]])
        out = normalize_tile_values(values)
        np.testing.assert_allclose(out, [[0.0, 0.5], [1.0, 1.0]])

    def test_normalize_rejects_empty_range(self):
        with pytest.raises(ValueError):
            normalize_tile_values(np.zeros(2), (1.0, 1.0))


class TestSIFT:
    def test_blob_produces_keypoints(self):
        descriptors = extract_sift_descriptors(blob_image(), contrast_threshold=0.001)
        assert descriptors.shape[0] >= 1

    def test_flat_image_no_keypoints(self):
        descriptors = extract_sift_descriptors(np.zeros((32, 32)))
        assert descriptors.shape == (0, DESCRIPTOR_DIM)

    def test_describes_the_strongest_keypoints_first(self, monkeypatch):
        """Of all DoG extrema, the ``max_keypoints`` strongest responses
        are described, strongest first."""
        half = WINDOW // 2
        responses, octave_of, described = {}, {}, []
        detect, describe = sift._detect_in_octave, sift.descriptor_at

        def spy_detect(image, octave, *args):
            octave_of[image.shape] = octave
            keypoints = detect(image, octave, *args)
            for kp in keypoints:
                responses[kp.octave, kp.y, kp.x] = kp.response
            return keypoints

        def spy_describe(magnitude, angle, py, px, orientation):
            h, w = magnitude.shape
            octave = octave_of[h - 2 * half, w - 2 * half]
            described.append(responses[octave, py - half, px - half])
            return describe(magnitude, angle, py, px, orientation)

        monkeypatch.setattr(sift, "_detect_in_octave", spy_detect)
        monkeypatch.setattr(sift, "descriptor_at", spy_describe)
        image = np.random.default_rng(0).random((64, 64))
        extract_sift_descriptors(image, contrast_threshold=0.0001, max_keypoints=5)
        assert len(responses) > 5
        assert described == sorted(responses.values(), reverse=True)[:5]

    def test_max_keypoints_respected(self):
        img = np.random.default_rng(0).random((64, 64))
        descriptors = extract_sift_descriptors(
            img, contrast_threshold=0.0001, max_keypoints=5
        )
        assert descriptors.shape[0] <= 5

    def test_descriptors_shape(self):
        descriptors = extract_sift_descriptors(blob_image(), contrast_threshold=0.001)
        assert descriptors.ndim == 2
        assert descriptors.shape[1] == DESCRIPTOR_DIM

    def test_flat_image_empty_descriptors(self):
        descriptors = extract_sift_descriptors(np.zeros((32, 32)))
        assert descriptors.shape == (0, DESCRIPTOR_DIM)

    def test_similar_blobs_have_similar_descriptors(self):
        a = extract_sift_descriptors(blob_image(centers=((14, 14),)), contrast_threshold=0.001)
        b = extract_sift_descriptors(blob_image(centers=((18, 18),)), contrast_threshold=0.001)
        assert a.shape[0] >= 1 and b.shape[0] >= 1
        # Best-match distance should be small for the same structure.
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min()
        assert d < 0.8


class TestDenseSIFT:
    def test_grid_positions(self):
        positions, descriptors = extract_dense_descriptors(
            blob_image(size=32), stride=8
        )
        assert positions.shape[0] == descriptors.shape[0]
        assert descriptors.shape[1] == DESCRIPTOR_DIM
        assert positions.shape[0] == 9  # 3x3 grid at stride 8 in 32px

    def test_flat_image_empty(self):
        positions, descriptors = extract_dense_descriptors(np.zeros((32, 32)))
        assert descriptors.shape[0] == 0

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            extract_dense_descriptors(np.zeros((32, 32)), stride=0)


class TestVisualVocabulary:
    def _descriptors(self, n=60, dim=8, clusters=3, seed=0):
        rng = np.random.default_rng(seed)
        centers = rng.random((clusters, dim)) * 10
        return np.vstack([
            centers[i % clusters] + rng.normal(0, 0.05, dim) for i in range(n)
        ])

    def test_fit_recovers_cluster_count(self):
        vocab = VisualVocabulary.fit(self._descriptors(), num_words=3)
        assert vocab.num_words == 3

    def test_fit_shrinks_when_few_descriptors(self):
        descriptors = np.asarray([[0.0, 0.0], [1.0, 1.0]])
        vocab = VisualVocabulary.fit(descriptors, num_words=10)
        assert vocab.num_words == 2

    def test_assign_nearest(self):
        vocab = VisualVocabulary(np.asarray([[0.0, 0.0], [10.0, 10.0]]))
        words = vocab.assign(np.asarray([[0.1, 0.1], [9.5, 9.9]]))
        assert list(words) == [0, 1]

    def test_assign_dim_mismatch(self):
        vocab = VisualVocabulary(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            vocab.assign(np.zeros((1, 5)))

    def test_encode_counts_mass(self):
        vocab = VisualVocabulary(np.asarray([[0.0, 0.0], [10.0, 10.0]]))
        hist = vocab.encode(np.asarray([[0.0, 0.1], [0.1, 0.0], [9.9, 10.0]]))
        # Soft assignment preserves one unit of mass per descriptor.
        assert hist.sum() == pytest.approx(3.0)
        assert hist[0] > hist[1]

    def test_encode_empty_is_zero(self):
        vocab = VisualVocabulary(np.zeros((4, 8)))
        hist = vocab.encode(np.zeros((0, 8)))
        np.testing.assert_array_equal(hist, np.zeros(4))

    def test_encode_normalized_option(self):
        vocab = VisualVocabulary(np.asarray([[0.0], [10.0]]))
        hist = vocab.encode(np.asarray([[0.0], [0.1], [9.9]]), normalize=True)
        assert hist.sum() == pytest.approx(1.0)

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            VisualVocabulary.fit(np.zeros((0, 4)))

    @pytest.mark.parametrize("shape", [(4,), (0, 4), (2, 2, 2)])
    def test_centers_must_be_a_nonempty_matrix(self, shape):
        with pytest.raises(ValueError, match="centers must be"):
            VisualVocabulary(np.zeros(shape))

    def test_assign_no_descriptors(self):
        vocab = VisualVocabulary(np.zeros((2, 4)))
        words = vocab.assign(np.zeros((0, 4)))
        assert words.shape == (0,)

    def test_encode_dim_mismatch(self):
        vocab = VisualVocabulary(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="descriptor dim 5"):
            vocab.encode(np.zeros((1, 5)))

    def test_training_on_flat_imagery_is_refused(self, db):
        from repro.arraydb import ArraySchema, Attribute, Dimension
        from repro.signatures.visualwords import train_vocabulary
        from repro.tiles.pyramid import TilePyramid

        schema = ArraySchema(
            "F",
            attributes=(Attribute("v"),),
            dimensions=(Dimension("y", 0, 64, 64), Dimension("x", 0, 64, 64)),
        )
        db.create_array(schema)
        db.write("F", "v", np.zeros((64, 64)))
        pyramid = TilePyramid.build(db, "F", tile_size=32)
        with pytest.raises(ValueError, match="no descriptors found"):
            train_vocabulary(pyramid, "v", num_words=4)


class TestSignaturesOnTiles:
    def _tile(self, values) -> DataTile:
        return DataTile(key=TileKey(0, 0, 0), attributes={"v": values})

    def test_sift_signature_vector_length(self, small_vocabulary):
        sig = SIFTSignature(small_vocabulary)
        rng = np.random.default_rng(0)
        tile = self._tile(rng.uniform(-1, 1, (32, 32)))
        vec = sig.compute(tile, "v")
        assert len(vec) == small_vocabulary.num_words

    def test_densesift_signature_vector_length(self, small_vocabulary):
        sig = DenseSIFTSignature(small_vocabulary, pool=2)
        tile = self._tile(np.random.default_rng(0).uniform(-1, 1, (32, 32)))
        vec = sig.compute(tile, "v")
        assert len(vec) == 4 * small_vocabulary.num_words

    def test_densesift_rejects_bad_pool(self, small_vocabulary):
        with pytest.raises(ValueError):
            DenseSIFTSignature(small_vocabulary, pool=0)

    def test_ocean_tile_is_empty_signature(self, small_dataset, small_vocabulary):
        """Flat ocean tiles carry no landmarks."""
        sig = SIFTSignature(small_vocabulary)
        deepest = small_dataset.num_levels - 1
        ocean = None
        for key in small_dataset.pyramid.grid.keys_at_level(deepest):
            tile = small_dataset.pyramid.fetch_tile(key, charge=False)
            if tile.attribute("land_mask").max() == 0.0:
                ocean = tile
                break
        assert ocean is not None, "no fully-ocean tile found"
        vec = sig.compute(ocean, "ndsi_avg")
        assert vec.sum() == pytest.approx(0.0)
