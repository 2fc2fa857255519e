"""Shared scale-space and gradient machinery for SIFT-style signatures.

Implements the standard building blocks on numpy, with scipy's 1-D
correlation for the blur: Gaussian scale space, difference-of-Gaussians,
polar gradients, dominant orientations and the 4x4x8
gradient-orientation descriptor.  Orientations and descriptors are
worked out for a whole batch of points at once — one tile's keypoints,
or one dense grid — with a single ``bincount`` per batch.

``sift.py`` doubles each (32-64 px) tile and detects across up to three
octaves; ``densesift.py`` describes a regular grid on the tile itself.
"""

from __future__ import annotations

import functools

import numpy as np

#: Descriptor layout: GRID x GRID spatial cells, ORIENT_BINS orientation
#: bins each -> 4 * 4 * 8 = 128 dimensions, as in Lowe's SIFT.
GRID = 4
ORIENT_BINS = 8
WINDOW = 16
DESCRIPTOR_DIM = GRID * GRID * ORIENT_BINS

_TWO_PI = 2.0 * np.pi

#: Orientation assignment: a 36-bin histogram of the gradient angles in
#: the (2 * 6 + 1)^2 window around a point, weighted by magnitude and a
#: Gaussian of the offset from the point.
_ORIENT_RADIUS = 6
_ORIENT_HIST_BINS = 36


def _window_gaussian(size: int, sigma: float) -> np.ndarray:
    """exp(-(dy^2 + dx^2) / (2 sigma^2)) over a ``size`` x ``size``
    window, offsets from its centre, row-major."""
    offsets = np.arange(size) - (size - 1) / 2
    squared = offsets[:, None] ** 2 + offsets[None, :] ** 2
    return np.exp(-squared / (2.0 * sigma**2)).ravel()


@functools.lru_cache(maxsize=64)
def _gaussian_weights(sigma: float) -> np.ndarray:
    """The correlation weights ``ndimage.gaussian_filter1d`` uses.

    Same radius (``int(4 * sigma + 0.5)``), same formula and
    normalisation, reversed; so a blur with them is the same C call as
    ``gaussian_filter``'s, with the same bytes out.
    """
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = (phi / phi.sum())[::-1].copy()
    weights.flags.writeable = False
    return weights


def _blur_into(image: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
    """``ndimage.gaussian_filter(image, sigma, mode="reflect")`` written
    into ``out``: axis 0, then axis 1 in place, as scipy does."""
    from scipy import ndimage

    weights = _gaussian_weights(sigma)
    ndimage.correlate1d(image, weights, 0, out, mode="reflect")
    return ndimage.correlate1d(out, weights, 1, out, mode="reflect")


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-blur a 2-D image (reflect boundary)."""
    image = np.asarray(image, dtype="float64")
    return _blur_into(image, sigma, np.empty(image.shape))


def build_scale_space(
    image: np.ndarray, num_scales: int = 5, sigma0: float = 1.6
) -> np.ndarray:
    """Progressively blurred copies, stacked into ``(num_scales, H, W)``:
    sigma_i = sigma0 * 2^(i / (n - 2))."""
    if num_scales < 3:
        raise ValueError(f"scale space needs >= 3 scales, got {num_scales}")
    image = np.asarray(image, dtype="float64")
    k = 2.0 ** (1.0 / (num_scales - 2))
    stack = np.empty((num_scales, *image.shape))
    for i in range(num_scales):
        _blur_into(image, sigma0 * k**i, stack[i])
    return stack


def difference_of_gaussians(scale_space: np.ndarray) -> np.ndarray:
    """Stacked DoG responses, shape ``(num_scales - 1, H, W)``."""
    return scale_space[1:] - scale_space[:-1]


def polar_gradients(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel gradient (magnitude, angle in [0, 2*pi))."""
    gy, gx = np.gradient(np.asarray(image, dtype="float64"))
    magnitude = np.hypot(gx, gy)
    angle = np.arctan2(gy, gx) % _TWO_PI
    return magnitude, angle


def _windows(image: np.ndarray, top: np.ndarray, left: np.ndarray, size: int) -> np.ndarray:
    """The ``size`` x ``size`` windows whose corners are (top, left), one
    row-major row each: shape ``(len(top), size * size)``."""
    width = image.shape[1]
    offsets = (np.arange(size)[:, None] * width + np.arange(size)).ravel()
    return image.take((top * width + left)[:, None] + offsets)


def dominant_orientation(
    magnitude: np.ndarray, angle: np.ndarray, ys: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """Peak of the magnitude-weighted orientation histogram around each
    (ys[i], xs[i]); 0 where the window holds no gradient.

    Every window must lie inside the image: SIFT orients on
    reflect-padded gradients, where it never clips.  The bins are
    ``np.histogram``'s over [0, 2*pi), edge corrections included, and
    each bin sums its window's pixels in row-major order, as
    ``np.histogram`` does for one point.
    """
    radius = _ORIENT_RADIUS
    size = 2 * radius + 1
    ang = _windows(angle, ys - radius, xs - radius, size)
    weight = _windows(magnitude, ys - radius, xs - radius, size)
    weight *= _window_gaussian(size, radius)
    edges = np.linspace(0.0, _TWO_PI, _ORIENT_HIST_BINS + 1)
    index = (ang / _TWO_PI * _ORIENT_HIST_BINS).astype(np.intp)
    index[index == _ORIENT_HIST_BINS] -= 1
    index[ang < edges[index]] -= 1
    index[(ang >= edges[index + 1]) & (index != _ORIENT_HIST_BINS - 1)] += 1
    count = len(ys)
    index += np.arange(count)[:, None] * _ORIENT_HIST_BINS
    hist = np.bincount(
        index.ravel(), weights=weight.ravel(), minlength=count * _ORIENT_HIST_BINS
    ).reshape(count, _ORIENT_HIST_BINS)
    orientation = (hist.argmax(axis=1) + 0.5) * 2.0 * np.pi / _ORIENT_HIST_BINS
    orientation[hist.sum(axis=1) == 0] = 0.0
    return orientation


def descriptor_at(
    magnitude: np.ndarray,
    angle: np.ndarray,
    ys: np.ndarray,
    xs: np.ndarray,
    orientations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The 128-d gradient descriptors centred at each (ys[i], xs[i]).

    Returns ``(kept, vectors)``: a boolean mask over the points, and one
    row per kept point.  The WINDOW x WINDOW patch around a point is
    split into a GRID x GRID grid of cells; each cell accumulates an
    ORIENT_BINS-bin histogram of gradient angles relative to the
    point's orientation, weighted by magnitude and a Gaussian window.
    A point is dropped when its window falls outside the image
    (keypoints that close to the border are discarded, as in SIFT) or
    holds no gradient.  Each bin sums its cell's pixels in row-major
    order, whatever the batch.

    Rotation invariance is approximated by rotating the *angles* only;
    the sampling window stays axis-aligned.  Data tiles render in a fixed
    screen orientation, so full patch rotation adds cost without changing
    matches.
    """
    h, w = magnitude.shape
    half = WINDOW // 2
    top, left = ys - half, xs - half
    kept = (top >= 0) & (left >= 0) & (top + WINDOW <= h) & (left + WINDOW <= w)
    top, left, orientations = top[kept], left[kept], orientations[kept]
    weight = _windows(magnitude, top, left, WINDOW)
    weight *= _window_gaussian(WINDOW, half)
    ang = (_windows(angle, top, left, WINDOW) - orientations[:, None]) % _TWO_PI
    bin_index = np.floor(ang / _TWO_PI * ORIENT_BINS).astype(int) % ORIENT_BINS
    # Each window pixel's cell, as an offset into the 128-d vector.
    cell = np.arange(WINDOW) // (WINDOW // GRID)
    bin_index += ((cell[:, None] * GRID + cell) * ORIENT_BINS).ravel()
    count = len(top)
    bin_index += np.arange(count)[:, None] * DESCRIPTOR_DIM
    vectors = np.bincount(
        bin_index.ravel(), weights=weight.ravel(), minlength=count * DESCRIPTOR_DIM
    ).reshape(count, DESCRIPTOR_DIM)

    # np.linalg.norm per row: norm(axis=1) sums in another order.
    norms = np.array([np.linalg.norm(vector) for vector in vectors])
    nonzero = norms != 0
    kept[kept] = nonzero
    # Clip large components and renormalize (illumination robustness).
    vectors = np.minimum(vectors[nonzero] / norms[nonzero, None], 0.2)
    norms = np.array([np.linalg.norm(vector) for vector in vectors])
    return kept, vectors / norms.reshape(-1, 1)


def normalize_tile_values(
    values: np.ndarray, value_range: tuple[float, float] = (-1.0, 1.0)
) -> np.ndarray:
    """Map tile values into [0, 1] the way the renderer's colormap does,
    so gradient structure matches what the user literally sees."""
    lo, hi = value_range
    if hi <= lo:
        raise ValueError(f"empty value range {value_range}")
    return np.clip((np.asarray(values, dtype="float64") - lo) / (hi - lo), 0.0, 1.0)
