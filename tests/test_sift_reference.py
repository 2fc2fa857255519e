"""Differential check of SIFT extraction against its straightforward form.

``extract_sift_descriptors`` blurs with cached kernels, finds extrema
with numpy 3-tap passes, tests candidates as arrays and describes a
tile's keypoints in one batch; ``extract_dense_descriptors`` shares the
batched describe.  Those are speed-ups only: every descriptor must stay
byte-identical.  The ``_reference_*`` functions below are the plain
versions — ``ndimage.gaussian_filter``, 3x3x3 ``maximum_filter`` /
``minimum_filter``, one Python loop over candidates, one histogram per
keypoint — and the tests require the library to match them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.modis.dataset import MODISDataset
from repro.signatures.densesift import extract_dense_descriptors
from repro.signatures.gradients import (
    DESCRIPTOR_DIM,
    GRID,
    ORIENT_BINS,
    WINDOW,
    gaussian_blur,
    normalize_tile_values,
    polar_gradients,
)
from repro.signatures.sift import extract_sift_descriptors


def _reference_gaussian_blur(image, sigma):
    return ndimage.gaussian_filter(
        np.asarray(image, dtype="float64"), sigma=sigma, mode="reflect"
    )


def _reference_build_scale_space(image, num_scales=5, sigma0=1.6):
    k = 2.0 ** (1.0 / (num_scales - 2))
    return [_reference_gaussian_blur(image, sigma0 * k**i) for i in range(num_scales)]


def _reference_detect_in_octave(
    image, octave, num_scales, sigma0, contrast_threshold, edge_ratio
):
    """(response, octave, y, x) of every DoG extremum, in (scale, y, x) order."""
    scale_space = _reference_build_scale_space(image, num_scales, sigma0)
    dogs = np.stack([b - a for a, b in zip(scale_space, scale_space[1:])], axis=0)
    footprint = np.ones((3, 3, 3), dtype=bool)
    local_max = ndimage.maximum_filter(dogs, footprint=footprint, mode="nearest")
    local_min = ndimage.minimum_filter(dogs, footprint=footprint, mode="nearest")
    is_extremum = ((dogs == local_max) | (dogs == local_min)) & (
        np.abs(dogs) > contrast_threshold
    )
    is_extremum[0] = False
    is_extremum[-1] = False

    edge_limit = (edge_ratio + 1.0) ** 2 / edge_ratio
    h, w = image.shape
    keypoints = []
    for s, y, x in zip(*np.nonzero(is_extremum)):
        if y < 1 or x < 1 or y >= h - 1 or x >= w - 1:
            continue
        dog = dogs[s]
        dxx = dog[y, x + 1] + dog[y, x - 1] - 2.0 * dog[y, x]
        dyy = dog[y + 1, x] + dog[y - 1, x] - 2.0 * dog[y, x]
        dxy = 0.25 * (
            dog[y + 1, x + 1]
            - dog[y + 1, x - 1]
            - dog[y - 1, x + 1]
            + dog[y - 1, x - 1]
        )
        trace = dxx + dyy
        det = dxx * dyy - dxy * dxy
        if det <= 0 or trace * trace / det >= edge_limit:
            continue
        keypoints.append((float(abs(dog[y, x])), octave, int(y), int(x)))
    return keypoints


def _reference_dominant_orientation(magnitude, angle, y, x, radius=6, bins=36):
    h, w = magnitude.shape
    y0, y1 = max(0, y - radius), min(h, y + radius + 1)
    x0, x1 = max(0, x - radius), min(w, x + radius + 1)
    mag = magnitude[y0:y1, x0:x1]
    ang = angle[y0:y1, x0:x1]
    yy, xx = np.mgrid[y0:y1, x0:x1]
    weight = mag * np.exp(-((yy - y) ** 2 + (xx - x) ** 2) / (2.0 * radius**2))
    hist, _ = np.histogram(ang, bins=bins, range=(0.0, 2.0 * np.pi), weights=weight)
    if hist.sum() == 0:
        return 0.0
    peak = int(np.argmax(hist))
    return (peak + 0.5) * 2.0 * np.pi / bins


def _reference_descriptor_at(magnitude, angle, y, x, orientation=0.0):
    h, w = magnitude.shape
    half = WINDOW // 2
    y0, x0 = y - half, x - half
    if y0 < 0 or x0 < 0 or y0 + WINDOW > h or x0 + WINDOW > w:
        return None
    mag = magnitude[y0 : y0 + WINDOW, x0 : x0 + WINDOW]
    ang = (angle[y0 : y0 + WINDOW, x0 : x0 + WINDOW] - orientation) % (2.0 * np.pi)

    offsets = np.arange(WINDOW) - (half - 0.5)
    gauss = np.exp(-(offsets[:, None] ** 2 + offsets[None, :] ** 2) / (2.0 * half**2))
    weight = mag * gauss

    cell = WINDOW // GRID
    descriptor = np.zeros((GRID, GRID, ORIENT_BINS), dtype="float64")
    bin_index = np.floor(ang / (2.0 * np.pi) * ORIENT_BINS).astype(int) % ORIENT_BINS
    for gy in range(GRID):
        for gx in range(GRID):
            sl = (
                slice(gy * cell, (gy + 1) * cell),
                slice(gx * cell, (gx + 1) * cell),
            )
            descriptor[gy, gx] = np.bincount(
                bin_index[sl].ravel(),
                weights=weight[sl].ravel(),
                minlength=ORIENT_BINS,
            )

    vector = descriptor.ravel()
    norm = np.linalg.norm(vector)
    if norm == 0:
        return None
    vector = np.minimum(vector / norm, 0.2)
    norm = np.linalg.norm(vector)
    if norm == 0:
        return None
    return vector / norm


def _reference_extract_sift(
    image,
    num_scales=6,
    sigma0=1.6,
    contrast_threshold=0.001,
    edge_ratio=10.0,
    max_keypoints=64,
    upsample=2,
    num_octaves=3,
):
    image = np.asarray(image, dtype="float64")
    if upsample > 1:
        image = ndimage.zoom(image, upsample, order=1)
    octaves = [image]
    for _ in range(1, num_octaves):
        if min(octaves[-1].shape) < 2 * WINDOW:
            break
        octaves.append(_reference_gaussian_blur(octaves[-1], 2.0 * sigma0)[::2, ::2])
    half = WINDOW // 2
    gradients = [polar_gradients(np.pad(img, half, mode="reflect")) for img in octaves]
    keypoints = []
    for octave, octave_image in enumerate(octaves):
        keypoints.extend(
            _reference_detect_in_octave(
                octave_image, octave, num_scales, sigma0, contrast_threshold, edge_ratio
            )
        )
    keypoints.sort(key=lambda kp: -kp[0])
    descriptors = []
    for _, octave, y, x in keypoints[:max_keypoints]:
        magnitude, angle = gradients[octave]
        orientation = _reference_dominant_orientation(magnitude, angle, y + half, x + half)
        vector = _reference_descriptor_at(
            magnitude, angle, y + half, x + half, orientation
        )
        if vector is not None:
            descriptors.append(vector)
    if not descriptors:
        return np.zeros((0, DESCRIPTOR_DIM), dtype="float64")
    return np.stack(descriptors)


def _reference_extract_dense(image, stride=8):
    image = np.asarray(image, dtype="float64")
    magnitude, angle = polar_gradients(image)
    h, w = image.shape
    positions, descriptors = [], []
    for y in range(stride, h, stride):
        for x in range(stride, w, stride):
            vector = _reference_descriptor_at(magnitude, angle, y, x)
            if vector is not None:
                positions.append((y, x))
                descriptors.append(vector)
    if not descriptors:
        return np.zeros((0, 2), dtype=int), np.zeros((0, DESCRIPTOR_DIM))
    return np.asarray(positions, dtype=int), np.stack(descriptors)


def _assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def blob_image(size, seed):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    image = np.zeros((size, size))
    for cy, cx, sigma in zip(rng.random(4) * size, rng.random(4) * size, 1.5 + 3 * rng.random(4)):
        image += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
    return image


SIZES = (8, 13, 16, 24, 32, 48, 64, 96)
CONTRAST_THRESHOLDS = (0.0001, 0.001, 0.01)


@pytest.mark.parametrize(
    "size, tile_size, days, seed, num_tiles",
    [(512, 32, 2, 7, 341), (256, 32, 1, 3, 85), (256, 64, 1, 11, 21)],
)
def test_every_tile_of_three_worlds(size, tile_size, days, seed, num_tiles):
    pyramid = MODISDataset.build(
        size=size, tile_size=tile_size, days=days, seed=seed
    ).pyramid
    tiles = 0
    for level in range(pyramid.grid.num_levels):
        for key in pyramid.grid.keys_at_level(level):
            image = normalize_tile_values(
                pyramid.fetch_tile(key, charge=False).attribute("ndsi_avg")
            )
            _assert_same_bytes(
                extract_sift_descriptors(image), _reference_extract_sift(image)
            )
            tiles += 1
    assert tiles == num_tiles


@pytest.mark.parametrize("contrast_threshold", CONTRAST_THRESHOLDS)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", ["blob", "random"])
def test_blob_and_random_images(kind, size, contrast_threshold):
    for seed in range(3):
        if kind == "blob":
            image = blob_image(size, seed)
        else:
            image = np.random.default_rng(seed).random((size, size))
        _assert_same_bytes(
            extract_sift_descriptors(image, contrast_threshold=contrast_threshold),
            _reference_extract_sift(image, contrast_threshold=contrast_threshold),
        )


@pytest.mark.parametrize("size", SIZES)
def test_dense_descriptors(size):
    for seed in range(3):
        for image in (blob_image(size, seed), np.random.default_rng(seed).random((size, size))):
            for stride in (3, 8):
                positions, descriptors = extract_dense_descriptors(image, stride)
                expected_positions, expected = _reference_extract_dense(image, stride)
                _assert_same_bytes(positions, expected_positions)
                _assert_same_bytes(descriptors, expected)


# 4 * 0.625 = 2.5 and 4 * 1.625 = 6.5 are ties where int(4 s + 0.5) and
# round(4 s) pick different kernel radii.
@pytest.mark.parametrize("sigma", [0.5, 0.625, 1.6, 1.625, 2.2627416997969525, 3.2])
def test_blur_is_gaussian_filter(sigma):
    image = np.random.default_rng(0).random((40, 29))
    _assert_same_bytes(gaussian_blur(image, sigma), _reference_gaussian_blur(image, sigma))


@pytest.mark.parametrize("sigma0", [0.625, 1.625])
def test_kernel_radius_ties(sigma0):
    for seed in range(3):
        image = np.random.default_rng(seed).random((32, 32))
        _assert_same_bytes(
            extract_sift_descriptors(image, sigma0=sigma0),
            _reference_extract_sift(image, sigma0=sigma0),
        )


@settings(max_examples=60, deadline=None)
@given(
    height=st.integers(8, 48),
    width=st.integers(8, 48),
    seed=st.integers(0, 2**32 - 1),
    blobs=st.booleans(),
    num_scales=st.integers(3, 7),
    sigma0=st.sampled_from([0.625, 1.0, 1.6, 1.625, 2.0]),
    contrast_threshold=st.sampled_from([0.0, 0.0001, 0.001, 0.01]),
    edge_ratio=st.sampled_from([2.0, 10.0, 50.0]),
    max_keypoints=st.integers(0, 80),
    upsample=st.integers(1, 3),
    num_octaves=st.integers(1, 4),
)
def test_property_matches_reference(
    height, width, seed, blobs, num_scales, sigma0, contrast_threshold,
    edge_ratio, max_keypoints, upsample, num_octaves,
):
    if blobs:
        image = blob_image(max(height, width), seed)[:height, :width]
    else:
        image = np.random.default_rng(seed).random((height, width))
    params = dict(
        num_scales=num_scales,
        sigma0=sigma0,
        contrast_threshold=contrast_threshold,
        edge_ratio=edge_ratio,
        max_keypoints=max_keypoints,
        upsample=upsample,
        num_octaves=num_octaves,
    )
    _assert_same_bytes(
        extract_sift_descriptors(image, **params), _reference_extract_sift(image, **params)
    )
