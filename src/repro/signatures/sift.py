"""SIFT keypoints and the SIFT bag-of-words signature (Table 2, row 3).

SIFT finds distinct "landmarks" — in our satellite heatmaps, the edges
and texture of snowy mountain clusters — and describes each with a 128-d
gradient histogram.  The tile signature is a histogram over a k-means
visual vocabulary of those descriptors, so two tiles with similar
landmarks (e.g. two snowy ranges) land close under the Chi-Squared
distance even when their layouts differ.

Implemented from scratch (the paper uses OpenCV): multi-octave DoG
extrema detection with contrast and edge-response filtering, dominant
orientation assignment, and the standard 4x4x8 descriptor.  As in Lowe's
SIFT the input is first doubled; data tiles are small (32-64 px), so
without the doubling most extrema sit too close to the border to
describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.signatures.base import Signature
from repro.signatures.gradients import (
    DESCRIPTOR_DIM,
    WINDOW,
    build_scale_space,
    descriptor_at,
    difference_of_gaussians,
    dominant_orientation,
    gaussian_blur,
    normalize_tile_values,
    polar_gradients,
)
from repro.tiles.tile import DataTile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.signatures.visualwords import VisualVocabulary


@dataclass(frozen=True)
class Keypoint:
    """A detected scale-space extremum.

    ``y``/``x`` are coordinates within the keypoint's octave image; each
    octave halves the resolution of the (upsampled) input.
    """

    y: int
    x: int
    octave: int
    scale_index: int
    response: float


def _detect_in_octave(
    image: np.ndarray,
    octave: int,
    num_scales: int,
    sigma0: float,
    contrast_threshold: float,
    edge_ratio: float,
) -> list[Keypoint]:
    """DoG extrema within one octave image."""
    from scipy import ndimage

    dogs = difference_of_gaussians(build_scale_space(image, num_scales, sigma0))
    footprint = np.ones((3, 3, 3), dtype=bool)
    local_max = ndimage.maximum_filter(dogs, footprint=footprint, mode="nearest")
    local_min = ndimage.minimum_filter(dogs, footprint=footprint, mode="nearest")
    is_extremum = ((dogs == local_max) | (dogs == local_min)) & (
        np.abs(dogs) > contrast_threshold
    )
    # Interior scales only: the first/last DoG slice has no scale neighbor.
    is_extremum[0] = False
    is_extremum[-1] = False

    edge_limit = (edge_ratio + 1.0) ** 2 / edge_ratio
    h, w = image.shape
    keypoints: list[Keypoint] = []
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
        keypoints.append(
            Keypoint(
                y=int(y),
                x=int(x),
                octave=octave,
                scale_index=int(s),
                response=float(abs(dog[y, x])),
            )
        )
    return keypoints


def _octave_images(
    image: np.ndarray, num_octaves: int, sigma0: float, upsample: int
) -> list[np.ndarray]:
    """The (upsampled) base image and its blurred-and-halved successors."""
    from scipy import ndimage

    image = np.asarray(image, dtype="float64")
    if upsample > 1:
        image = ndimage.zoom(image, upsample, order=1)
    octaves = [image]
    for _ in range(1, num_octaves):
        previous = octaves[-1]
        if min(previous.shape) < 2 * WINDOW:
            break
        octaves.append(gaussian_blur(previous, 2.0 * sigma0)[::2, ::2])
    return octaves


def extract_sift_descriptors(
    image: np.ndarray,
    num_scales: int = 6,
    sigma0: float = 1.6,
    contrast_threshold: float = 0.001,
    edge_ratio: float = 10.0,
    max_keypoints: int = 64,
    upsample: int = 2,
    num_octaves: int = 3,
) -> np.ndarray:
    """Detect keypoints and describe each; returns shape ``(N, 128)``.

    Keypoints are DoG extrema across octaves, strongest responses first,
    at most ``max_keypoints`` of them.  A pixel is a candidate when it
    is the maximum or minimum of its 26-neighborhood in the octave's DoG
    stack, its |response| clears the contrast threshold, and its Hessian
    trace/determinant ratio rejects edge-like responses (ratio test with
    ``r = edge_ratio``).  Keypoints whose descriptor window leaves their
    octave image are dropped, so N can be smaller than the keypoint
    count (possibly zero for flat tiles — e.g. open ocean).
    """
    octaves = _octave_images(image, num_octaves, sigma0, upsample)
    # Descriptors are computed on reflect-padded gradients so keypoints
    # near tile borders — common on 32-64 px tiles — still get a full
    # window instead of being discarded.
    half = WINDOW // 2
    gradients = [
        polar_gradients(np.pad(img, half, mode="reflect")) for img in octaves
    ]
    keypoints: list[Keypoint] = []
    for octave, octave_image in enumerate(octaves):
        keypoints.extend(
            _detect_in_octave(
                octave_image,
                octave,
                num_scales,
                sigma0,
                contrast_threshold,
                edge_ratio,
            )
        )
    keypoints.sort(key=lambda kp: -kp.response)
    keypoints = keypoints[:max_keypoints]

    descriptors = []
    for kp in keypoints:
        magnitude, angle = gradients[kp.octave]
        py, px = kp.y + half, kp.x + half
        orientation = dominant_orientation(magnitude, angle, py, px)
        vector = descriptor_at(magnitude, angle, py, px, orientation)
        if vector is not None:
            descriptors.append(vector)
    if not descriptors:
        return np.zeros((0, DESCRIPTOR_DIM), dtype="float64")
    return np.stack(descriptors)


class SIFTSignature(Signature):
    """Bag-of-visual-words histogram of SIFT descriptors."""

    name = "sift"

    def __init__(
        self,
        vocabulary: "VisualVocabulary",
        value_range: tuple[float, float] = (-1.0, 1.0),
        contrast_threshold: float = 0.001,
    ) -> None:
        self.vocabulary = vocabulary
        self.value_range = value_range
        self.contrast_threshold = contrast_threshold

    def compute(self, tile: DataTile, attribute: str) -> np.ndarray:
        image = normalize_tile_values(tile.attribute(attribute), self.value_range)
        descriptors = extract_sift_descriptors(
            image, contrast_threshold=self.contrast_threshold
        )
        return self.vocabulary.encode(descriptors)
