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


def _extreme_of_neighbours(op, dogs: np.ndarray) -> np.ndarray:
    """``op`` (``np.maximum`` or ``np.minimum``) over the 3x3x3
    neighbourhood of every cell not on the DoG stack's faces.

    Max and min are exact, so three separable 3-tap passes give what
    ``ndimage.maximum_filter`` / ``minimum_filter`` give there.
    """
    m = op(op(dogs[:-2], dogs[1:-1]), dogs[2:])
    m = op(op(m[:, :-2], m[:, 1:-1]), m[:, 2:])
    return op(op(m[:, :, :-2], m[:, :, 1:-1]), m[:, :, 2:])


def _detect_in_octave(
    image: np.ndarray,
    num_scales: int,
    sigma0: float,
    contrast_threshold: float,
    edge_ratio: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DoG extrema within one octave image: their ``(y, x, response)``,
    in (scale, y, x) order."""
    dogs = difference_of_gaussians(build_scale_space(image, num_scales, sigma0))
    # Only interior scales (the first/last DoG slice has no scale
    # neighbor) and interior pixels (the Hessian needs all four
    # neighbors) are candidates, so no neighbourhood leaves the stack.
    centre = dogs[1:-1, 1:-1, 1:-1]
    is_extremum = (
        (centre == _extreme_of_neighbours(np.maximum, dogs))
        | (centre == _extreme_of_neighbours(np.minimum, dogs))
    ) & (np.abs(centre) > contrast_threshold)
    s, y, x = (index + 1 for index in np.nonzero(is_extremum))

    value = dogs[s, y, x]
    dxx = dogs[s, y, x + 1] + dogs[s, y, x - 1] - 2.0 * value
    dyy = dogs[s, y + 1, x] + dogs[s, y - 1, x] - 2.0 * value
    dxy = 0.25 * (
        dogs[s, y + 1, x + 1]
        - dogs[s, y + 1, x - 1]
        - dogs[s, y - 1, x + 1]
        + dogs[s, y - 1, x - 1]
    )
    trace = dxx + dyy
    det = dxx * dyy - dxy * dxy
    # Reject edge-like responses: principal-curvature ratio above r.
    edge_limit = (edge_ratio + 1.0) ** 2 / edge_ratio
    keep = det > 0
    keep[keep] = trace[keep] * trace[keep] / det[keep] < edge_limit
    return y[keep], x[keep], np.abs(value[keep])


def _octave_images(
    image: np.ndarray, num_octaves: int, sigma0: float, upsample: int
) -> list[np.ndarray]:
    """The (upsampled) base image and its blurred-and-halved successors."""
    from scipy import ndimage

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

    Keypoints are DoG extrema across octaves, strongest responses first
    (ties in octave, scale, y, x order), at most ``max_keypoints`` of
    them.  A pixel is a candidate when it is the maximum or minimum of
    its 26-neighborhood in the octave's DoG stack, its |response|
    clears the contrast threshold, and its Hessian trace/determinant
    ratio rejects edge-like responses (ratio test with
    ``r = edge_ratio``).  Keypoints whose window holds no gradient are
    dropped, so N can be smaller than the keypoint count (possibly zero
    for flat tiles — e.g. open ocean).  The image must be finite.
    """
    image = np.asarray(image, dtype="float64")
    if image.ndim != 2:
        raise ValueError(f"SIFT needs a 2-D image, got {image.ndim}-D")
    if num_scales < 3:
        raise ValueError(f"scale space needs >= 3 scales, got {num_scales}")
    if num_octaves < 1:
        raise ValueError(f"num_octaves must be >= 1, got {num_octaves}")
    if upsample < 1:
        raise ValueError(f"upsample must be >= 1, got {upsample}")
    if max_keypoints < 0:
        raise ValueError(f"max_keypoints must be >= 0, got {max_keypoints}")

    octaves = _octave_images(image, num_octaves, sigma0, upsample)
    found = [
        _detect_in_octave(
            octave_image, num_scales, sigma0, contrast_threshold, edge_ratio
        )
        for octave_image in octaves
    ]
    octave = np.concatenate(
        [np.full(len(ys), index) for index, (ys, _, _) in enumerate(found)]
    )
    ys, xs, responses = (np.concatenate(column) for column in zip(*found))
    ranked = np.argsort(-responses, kind="stable")[:max_keypoints]

    # Descriptors are computed on reflect-padded gradients so keypoints
    # near tile borders — common on 32-64 px tiles — still get a full
    # window instead of being discarded.
    half = WINDOW // 2
    kept = np.zeros(len(ranked), dtype=bool)
    descriptors = np.empty((len(ranked), DESCRIPTOR_DIM))
    chosen_octave = octave[ranked]
    for index in np.unique(chosen_octave):
        rank = np.flatnonzero(chosen_octave == index)
        py, px = ys[ranked[rank]] + half, xs[ranked[rank]] + half
        magnitude, angle = polar_gradients(
            np.pad(octaves[index], half, mode="reflect")
        )
        orientation = dominant_orientation(magnitude, angle, py, px)
        described, vectors = descriptor_at(magnitude, angle, py, px, orientation)
        kept[rank[described]] = True
        descriptors[rank[described]] = vectors
    return descriptors[kept]


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
        return self.encode(
            extract_sift_descriptors(image, contrast_threshold=self.contrast_threshold)
        )

    def encode(self, descriptors: np.ndarray) -> np.ndarray:
        """The signature of a tile with these SIFT descriptors."""
        return self.vocabulary.encode(descriptors)
