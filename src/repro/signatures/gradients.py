"""Shared scale-space and gradient machinery for SIFT-style signatures.

Implements the standard building blocks from scratch on numpy/scipy:
Gaussian scale space, difference-of-Gaussians, polar gradients, and the
4x4x8 gradient-orientation descriptor.  Tiles are small fixed-size
rasters (32-64 px), so a single octave of scale space suffices — the
multi-octave image-doubling of full SIFT buys nothing at this size.
"""

from __future__ import annotations

import numpy as np

#: Descriptor layout: GRID x GRID spatial cells, ORIENT_BINS orientation
#: bins each -> 4 * 4 * 8 = 128 dimensions, as in Lowe's SIFT.
GRID = 4
ORIENT_BINS = 8
WINDOW = 16
DESCRIPTOR_DIM = GRID * GRID * ORIENT_BINS


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-blur a 2-D image (reflect boundary)."""
    from scipy import ndimage

    return ndimage.gaussian_filter(
        np.asarray(image, dtype="float64"), sigma=sigma, mode="reflect"
    )


def build_scale_space(
    image: np.ndarray, num_scales: int = 5, sigma0: float = 1.6
) -> list[np.ndarray]:
    """Progressively blurred copies: sigma_i = sigma0 * 2^(i / (n - 2))."""
    if num_scales < 3:
        raise ValueError(f"scale space needs >= 3 scales, got {num_scales}")
    k = 2.0 ** (1.0 / (num_scales - 2))
    return [gaussian_blur(image, sigma0 * k**i) for i in range(num_scales)]


def difference_of_gaussians(scale_space: list[np.ndarray]) -> np.ndarray:
    """Stacked DoG responses, shape ``(num_scales - 1, H, W)``."""
    return np.stack(
        [b - a for a, b in zip(scale_space, scale_space[1:])], axis=0
    )


def polar_gradients(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel gradient (magnitude, angle in [0, 2*pi))."""
    gy, gx = np.gradient(np.asarray(image, dtype="float64"))
    magnitude = np.hypot(gx, gy)
    angle = np.arctan2(gy, gx) % (2.0 * np.pi)
    return magnitude, angle


def dominant_orientation(
    magnitude: np.ndarray,
    angle: np.ndarray,
    y: int,
    x: int,
    radius: int = 6,
    bins: int = 36,
) -> float:
    """Peak of the magnitude-weighted orientation histogram around (y, x)."""
    h, w = magnitude.shape
    y0, y1 = max(0, y - radius), min(h, y + radius + 1)
    x0, x1 = max(0, x - radius), min(w, x + radius + 1)
    mag = magnitude[y0:y1, x0:x1]
    ang = angle[y0:y1, x0:x1]
    yy, xx = np.mgrid[y0:y1, x0:x1]
    weight = mag * np.exp(-((yy - y) ** 2 + (xx - x) ** 2) / (2.0 * radius**2))
    hist, _ = np.histogram(
        ang, bins=bins, range=(0.0, 2.0 * np.pi), weights=weight
    )
    if hist.sum() == 0:
        return 0.0
    peak = int(np.argmax(hist))
    return (peak + 0.5) * 2.0 * np.pi / bins


def descriptor_at(
    magnitude: np.ndarray,
    angle: np.ndarray,
    y: int,
    x: int,
    orientation: float = 0.0,
) -> np.ndarray | None:
    """The 128-d gradient descriptor centered at (y, x).

    The WINDOW x WINDOW patch around the point is split into a GRID x GRID
    grid of cells; each cell accumulates an ORIENT_BINS-bin histogram of
    gradient angles relative to ``orientation``, weighted by magnitude and
    a Gaussian window.  Returns None when the window falls outside the
    image (keypoints that close to the border are discarded, as in SIFT).

    Rotation invariance is approximated by rotating the *angles* only;
    the sampling window stays axis-aligned.  Data tiles render in a fixed
    screen orientation, so full patch rotation adds cost without changing
    matches.
    """
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
    vector = vector / norm
    # Clip large components and renormalize (illumination robustness).
    vector = np.minimum(vector, 0.2)
    norm = np.linalg.norm(vector)
    if norm == 0:
        return None
    return vector / norm


def normalize_tile_values(
    values: np.ndarray, value_range: tuple[float, float] = (-1.0, 1.0)
) -> np.ndarray:
    """Map tile values into [0, 1] the way the renderer's colormap does,
    so gradient structure matches what the user literally sees."""
    lo, hi = value_range
    if hi <= lo:
        raise ValueError(f"empty value range {value_range}")
    return np.clip((np.asarray(values, dtype="float64") - lo) / (hi - lo), 0.0, 1.0)
