"""Procedural generation of MODIS-style reflectance bands.

:class:`SyntheticWorld` produces, at any raster resolution, the two band
arrays the NDSI needs (visible light and short-wave infrared), plus a
land/sea mask.  Snow cover follows the physical intuition the paper's
dataset exhibits: it concentrates on mountain ranges and near the poles,
in spatially coherent clusters — the "clusters of orange pixels" users
forage for in Figure 6.

Determinism: everything derives from the constructor seed, so the same
seed always produces the same world (and therefore reproducible traces
and experiment results).
"""

from __future__ import annotations

import numpy as np

from repro.modis.regions import (
    Continent,
    DEFAULT_CONTINENTS,
    DEFAULT_RANGES,
    MountainRange,
)


class ValueNoise:
    """Seeded multi-octave value noise on the unit square.

    Each octave is a random lattice bilinearly interpolated to the target
    resolution; octave amplitudes halve as frequencies double.  Output is
    normalized to ``[0, 1]``.
    """

    def __init__(self, seed: int, octaves: int = 4, base_frequency: int = 4) -> None:
        if octaves < 1:
            raise ValueError(f"octaves must be >= 1, got {octaves}")
        if base_frequency < 1:
            raise ValueError(f"base_frequency must be >= 1, got {base_frequency}")
        self.seed = seed
        self.octaves = octaves
        self.base_frequency = base_frequency

    def sample(self, size: int) -> np.ndarray:
        """Render the noise field onto a ``size x size`` grid."""
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        rng = np.random.default_rng(self.seed)
        total = np.zeros((size, size), dtype="float64")
        amplitude = 1.0
        norm = 0.0
        for octave in range(self.octaves):
            freq = self.base_frequency * (2**octave)
            lattice = rng.random((freq + 1, freq + 1))
            layer = _bilinear_upsample(lattice, size)
            layer *= amplitude
            total += layer
            norm += amplitude
            amplitude *= 0.5
        total /= norm
        lo, hi = total.min(), total.max()
        if hi > lo:
            total -= lo
            total /= hi - lo
        return total


def _bilinear_upsample(lattice: np.ndarray, size: int) -> np.ndarray:
    """Bilinearly interpolate a ``(f+1, f+1)`` lattice onto ``size x size``."""
    freq = lattice.shape[0] - 1
    coords = np.linspace(0.0, freq, size, endpoint=False) + 0.5 * freq / size
    i0 = np.clip(coords.astype(int), 0, freq - 1)
    i1 = i0 + 1
    frac = coords - i0
    fy = frac[:, None]
    fx = frac
    # Separable bilinear interpolation: weight the (size, f+1) lattice
    # rows first, then gather columns, so each corner's term is one
    # size x size array.  Per cell this is the same arithmetic, summed
    # in the same ((top + bottom) + right_top) + right_bottom order.
    upper = lattice[i0] * (1 - fy)
    lower = lattice[i1] * fy
    out = np.take(upper, i0, axis=1)
    out *= 1 - fx
    term = np.take(lower, i0, axis=1)
    term *= 1 - fx
    out += term
    term = np.take(upper, i1, axis=1)
    term *= fx
    out += term
    term = np.take(lower, i1, axis=1)
    term *= fx
    out += term
    return out


def _unit_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center coordinates on the unit square: returns (x, y) grids."""
    centers = (np.arange(size) + 0.5) / size
    y = centers[:, None] * np.ones((1, size))
    x = np.ones((size, 1)) * centers[None, :]
    return x, y


#: Half-width, in standard deviations, of the window a terrain Gaussian
#: is evaluated on.  exp(-x) rounds to exactly 0.0 once x > ~745.1,
#: i.e. beyond ~38.6 deviations; 40 leaves a margin.
_GAUSSIAN_REACH = 40.0


def _cells_within(centers: np.ndarray, lo: float, hi: float) -> slice:
    """Slice of the cells whose center lies in ``[lo, hi]``, plus one
    cell on each side."""
    start = int(np.searchsorted(centers, lo, side="left")) - 1
    stop = int(np.searchsorted(centers, hi, side="right")) + 1
    return slice(max(start, 0), stop)


def _segment_distance(
    x: np.ndarray, y: np.ndarray, x0: float, y0: float, x1: float, y1: float
) -> np.ndarray:
    """Euclidean distance from each grid point to a line segment."""
    dx, dy = x1 - x0, y1 - y0
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return np.hypot(x - x0, y - y0)
    t = np.clip(((x - x0) * dx + (y - y0) * dy) / length_sq, 0.0, 1.0)
    px = x0 + t * dx
    py = y0 + t * dy
    return np.hypot(x - px, y - py)


class SyntheticWorld:
    """A deterministic world with continents, mountains, and snow."""

    def __init__(
        self,
        seed: int = 7,
        ranges: tuple[MountainRange, ...] = DEFAULT_RANGES,
        continents: tuple[Continent, ...] = DEFAULT_CONTINENTS,
    ) -> None:
        self.seed = seed
        self.ranges = ranges
        self.continents = continents
        # Terrain is day-independent and expensive at full resolution, so
        # cache it per raster size (days only perturb weather).
        self._elevation_cache: dict[int, np.ndarray] = {}
        self._land_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # terrain
    # ------------------------------------------------------------------
    def elevation(self, size: int) -> np.ndarray:
        """Elevation in [0, ~1.4]: ridge Gaussians, discrete peaks along
        each ridge, and rolling noise.

        The peaks matter: real mountain ranges are chains of distinct
        summits, and those summits are the blob-like "landmarks" the
        SIFT signature detects.  A smooth ridge alone has no interior
        extrema for DoG detection to find.
        """
        cached = self._elevation_cache.get(size)
        if cached is not None:
            return cached
        centers = (np.arange(size) + 0.5) / size
        elev = np.zeros((size, size), dtype="float64")
        for ridge_index, ridge in enumerate(self.ranges):
            # Each Gaussian is evaluated only on the cells within
            # _GAUSSIAN_REACH widths of it: beyond that its exp() is
            # exactly 0.0, and adding 0.0 leaves elev unchanged.
            reach = _GAUSSIAN_REACH * ridge.width
            rows = _cells_within(
                centers, min(ridge.y0, ridge.y1) - reach, max(ridge.y0, ridge.y1) + reach
            )
            cols = _cells_within(
                centers, min(ridge.x0, ridge.x1) - reach, max(ridge.x0, ridge.x1) + reach
            )
            dist = _segment_distance(
                centers[None, cols], centers[rows, None],
                ridge.x0, ridge.y0, ridge.x1, ridge.y1,
            )
            elev[rows, cols] += 0.35 * ridge.height * np.exp(-0.5 * (dist / ridge.width) ** 2)
            rng = np.random.default_rng(self.seed * 1000 + ridge_index)
            length = float(np.hypot(ridge.x1 - ridge.x0, ridge.y1 - ridge.y0))
            num_peaks = max(3, int(length / (2.2 * ridge.width)))
            for _ in range(num_peaks):
                t = rng.random()
                jitter = rng.normal(scale=0.6 * ridge.width, size=2)
                px = ridge.x0 + t * (ridge.x1 - ridge.x0) + jitter[0]
                py = ridge.y0 + t * (ridge.y1 - ridge.y0) + jitter[1]
                sigma = ridge.width * rng.uniform(0.3, 0.55)
                height = ridge.height * rng.uniform(0.55, 1.3)
                reach = _GAUSSIAN_REACH * sigma
                rows = _cells_within(centers, py - reach, py + reach)
                cols = _cells_within(centers, px - reach, px + reach)
                d2 = (centers[None, cols] - px) ** 2 + (centers[rows, None] - py) ** 2
                elev[rows, cols] += height * np.exp(-0.5 * d2 / sigma**2)
        rolling = ValueNoise(self.seed + 11, octaves=5, base_frequency=6).sample(size)
        rolling *= 0.15
        elev += rolling
        self._elevation_cache[size] = elev
        return elev

    def land_mask(self, size: int) -> np.ndarray:
        """1.0 on land, 0.0 on ocean (noise-perturbed continent edges)."""
        cached = self._land_cache.get(size)
        if cached is not None:
            return cached
        x, y = _unit_grid(size)
        field = np.full((size, size), -1.0, dtype="float64")
        for continent in self.continents:
            d = np.sqrt(
                ((x - continent.cx) / continent.rx) ** 2
                + ((y - continent.cy) / continent.ry) ** 2
            )
            field = np.maximum(field, 1.0 - d)
        edge_noise = ValueNoise(self.seed + 23, octaves=4, base_frequency=8).sample(size)
        field += 0.25 * (edge_noise - 0.5)
        result = (field > 0.0).astype("float64")
        self._land_cache[size] = result
        return result

    def _coldness(self, size: int) -> np.ndarray:
        """Latitude-driven cold: strong near both poles, weak at equator."""
        _, y = _unit_grid(size)
        north = np.exp(-0.5 * (y / 0.22) ** 2)
        south = np.exp(-0.5 * ((1.0 - y) / 0.10) ** 2)
        return north + 1.4 * south

    def snow_fraction(self, size: int, day: int = 0) -> np.ndarray:
        """Per-cell snow cover fraction in [0, 1] for one synthetic day.

        Days share the same underlying terrain; day-to-day weather is a
        small seeded perturbation (the paper flattens one week of data).
        Snow within a range is *patchy* — real MODIS snow maps show
        valley/ridge texture at fine scales, which is what SIFT keys on —
        so a high-frequency texture field modulates the smooth extent.
        """
        elev = self.elevation(size)
        cold = self._coldness(size)
        weather = ValueNoise(
            self.seed + 101 * (day + 1), octaves=4, base_frequency=12
        ).sample(size)
        score = 2.4 * elev + 1.1 * cold + 0.5 * (weather - 0.5) - 1.45
        snow = 1.0 / (1.0 + np.exp(-6.0 * score))
        texture = ValueNoise(
            self.seed + 401 * (day + 1), octaves=5, base_frequency=24
        ).sample(size)
        snow = snow * (0.55 + 0.9 * texture)
        snow = np.clip(snow, 0.0, 1.0) * self.land_mask(size)
        return self._add_speckle(snow, size, day)

    def _add_speckle(self, snow: np.ndarray, size: int, day: int) -> np.ndarray:
        """Scatter isolated bright cells (sensor speckle / patchy frost).

        Real MODIS snow maps are full of single bright pixels that carry
        no visual structure: a histogram counts them like snow, but a
        human (and SIFT) sees no cluster worth visiting.  The rate rises
        toward cold latitudes.  Speckle is sampled at the raster
        resolution — it models per-pixel sensor-scale effects.
        """
        rng = np.random.default_rng(self.seed + 733 * (day + 1))
        salt = rng.random((size, size))
        cold = np.clip(self._coldness(size), 0.0, 1.5) / 1.5
        rate = 0.015 + 0.05 * cold
        speckle = (salt < rate) & (self.land_mask(size) > 0)
        return np.where(speckle, np.maximum(snow, 0.9), snow)

    # ------------------------------------------------------------------
    # reflectance bands
    # ------------------------------------------------------------------
    def bands(self, size: int, day: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(VIS, SWIR) reflectance bands for one synthetic day.

        Snow reflects strongly in visible light and weakly in short-wave
        infrared, which is exactly the contrast the NDSI ratio measures:
        full snow here yields NDSI near +0.8, bare ground near -0.33.
        """
        snow = self.snow_fraction(size, day)
        sensor_vis = ValueNoise(
            self.seed + 211 * (day + 1), octaves=2, base_frequency=16
        ).sample(size)
        sensor_swir = ValueNoise(
            self.seed + 307 * (day + 1), octaves=2, base_frequency=16
        ).sample(size)
        vis = 0.20 + 0.60 * snow + 0.04 * (sensor_vis - 0.5)
        swir = 0.40 - 0.30 * snow + 0.04 * (sensor_swir - 0.5)
        return (
            np.clip(vis, 0.01, 1.0).astype("float64"),
            np.clip(swir, 0.01, 1.0).astype("float64"),
        )
