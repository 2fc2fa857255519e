"""Differential check of the world synthesis against its straightforward form.

``SyntheticWorld.elevation`` evaluates each terrain Gaussian only on a
window around it, and ``_bilinear_upsample`` / ``ValueNoise.sample`` reuse
their temporaries.  Those are speed-ups only: every output must stay
byte-identical.  The ``_reference_*`` functions below are the plain
versions — every Gaussian over the whole grid, four full-size corner
products — and the tests require the library to match them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.modis import synth
from repro.modis.regions import DEFAULT_RANGES, MountainRange
from repro.modis.synth import (
    SyntheticWorld,
    ValueNoise,
    _bilinear_upsample,
    _segment_distance,
    _unit_grid,
)


def _reference_bilinear_upsample(lattice: np.ndarray, size: int) -> np.ndarray:
    freq = lattice.shape[0] - 1
    coords = np.linspace(0.0, freq, size, endpoint=False) + 0.5 * freq / size
    i0 = np.clip(coords.astype(int), 0, freq - 1)
    frac = coords - i0
    top = lattice[i0][:, i0]
    bottom = lattice[i0 + 1][:, i0]
    right_top = lattice[i0][:, i0 + 1]
    right_bottom = lattice[i0 + 1][:, i0 + 1]
    fy = frac[:, None]
    fx = frac[None, :]
    return (
        top * (1 - fy) * (1 - fx)
        + bottom * fy * (1 - fx)
        + right_top * (1 - fy) * fx
        + right_bottom * fy * fx
    )


class _ReferenceValueNoise(ValueNoise):
    def sample(self, size: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        total = np.zeros((size, size), dtype="float64")
        amplitude = 1.0
        norm = 0.0
        for octave in range(self.octaves):
            freq = self.base_frequency * (2**octave)
            lattice = rng.random((freq + 1, freq + 1))
            total += amplitude * _reference_bilinear_upsample(lattice, size)
            norm += amplitude
            amplitude *= 0.5
        total /= norm
        lo, hi = total.min(), total.max()
        if hi > lo:
            total = (total - lo) / (hi - lo)
        return total


def _reference_elevation(
    world: SyntheticWorld, size: int, noise: type[ValueNoise] = _ReferenceValueNoise
) -> np.ndarray:
    x, y = _unit_grid(size)
    elev = np.zeros((size, size), dtype="float64")
    for ridge_index, ridge in enumerate(world.ranges):
        dist = _segment_distance(x, y, ridge.x0, ridge.y0, ridge.x1, ridge.y1)
        elev += 0.35 * ridge.height * np.exp(-0.5 * (dist / ridge.width) ** 2)
        rng = np.random.default_rng(world.seed * 1000 + ridge_index)
        length = float(np.hypot(ridge.x1 - ridge.x0, ridge.y1 - ridge.y0))
        num_peaks = max(3, int(length / (2.2 * ridge.width)))
        for _ in range(num_peaks):
            t = rng.random()
            jitter = rng.normal(scale=0.6 * ridge.width, size=2)
            px = ridge.x0 + t * (ridge.x1 - ridge.x0) + jitter[0]
            py = ridge.y0 + t * (ridge.y1 - ridge.y0) + jitter[1]
            sigma = ridge.width * rng.uniform(0.3, 0.55)
            height = ridge.height * rng.uniform(0.55, 1.3)
            d2 = (x - px) ** 2 + (y - py) ** 2
            elev += height * np.exp(-0.5 * d2 / sigma**2)
    rolling = noise(world.seed + 11, octaves=5, base_frequency=6).sample(size)
    return elev + 0.15 * rolling


class _ReferenceWorld(SyntheticWorld):
    """The world as the reference functions build it.

    ``land_mask``, ``snow_fraction`` and ``bands`` are inherited; the
    tests run them with ``synth.ValueNoise`` patched to the reference
    noise, so every field they combine is a reference field.
    """

    def elevation(self, size: int) -> np.ndarray:
        cached = self._elevation_cache.get(size)
        if cached is None:
            cached = self._elevation_cache[size] = _reference_elevation(self, size)
        return cached


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SEEDS = (0, 1, 3, 7, 11, 42)
SIZES = (16, 32, 64, 100, 128, 256, 512)
DAYS = (0, 2)


def _fields(world: SyntheticWorld, size: int) -> dict[str, np.ndarray]:
    fields = {
        "elevation": world.elevation(size),
        "land_mask": world.land_mask(size),
    }
    for day in DAYS:
        fields[f"snow_fraction day {day}"] = world.snow_fraction(size, day)
        vis, swir = world.bands(size, day)
        fields[f"VIS day {day}"] = vis
        fields[f"SWIR day {day}"] = swir
    return fields


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_world_matches_reference_bit_for_bit(monkeypatch, seed, size):
    fields = _fields(SyntheticWorld(seed), size)
    with monkeypatch.context() as patch:
        patch.setattr(synth, "ValueNoise", _ReferenceValueNoise)
        expected = _fields(_ReferenceWorld(seed), size)
    differing = [name for name in expected if not _same_bytes(fields[name], expected[name])]
    assert differing == []


class _SilentNoise(ValueNoise):
    def sample(self, size: int) -> np.ndarray:
        return np.zeros((size, size))


#: One short range in mid-ocean: far from it, elevation is set by its
#: own Gaussians' smallest terms alone.
LONE_RANGE = (MountainRange("lone", 0.45, 0.5, 0.55, 0.52, width=0.01, height=1.0),)


@pytest.mark.parametrize("ranges", [LONE_RANGE, DEFAULT_RANGES], ids=["lone", "default"])
@pytest.mark.parametrize("size", (64, 100, 512))
@pytest.mark.parametrize("seed", (0, 7, 42))
def test_terrain_gaussians_match_reference_bit_for_bit(monkeypatch, seed, size, ranges):
    """The Gaussian sum alone, with the rolling noise silenced.

    The rolling noise added to elevation is ~1e-2 or more almost
    everywhere, which absorbs any term below ~1e-18, so the world test
    above cannot see how far out each Gaussian is evaluated.  Here terms
    down to the smallest subnormal set the bits, so a window any
    narrower than where exp() underflows to 0.0 fails.
    """
    world = SyntheticWorld(seed, ranges=ranges)
    with monkeypatch.context() as patch:
        patch.setattr(synth, "ValueNoise", _SilentNoise)
        got = world.elevation(size)
    expected = _reference_elevation(world, size, noise=_SilentNoise)
    assert _same_bytes(got, expected)


@settings(max_examples=60, deadline=None)
@given(
    lattice=st.integers(1, 64).flatmap(
        lambda freq: hnp.arrays(
            np.float64,
            (freq + 1, freq + 1),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    ),
    size=st.integers(1, 300),
)
def test_bilinear_upsample_matches_reference(lattice, size):
    assert _same_bytes(
        _bilinear_upsample(lattice, size), _reference_bilinear_upsample(lattice, size)
    )


@pytest.mark.parametrize("octaves, base_frequency", [(1, 1), (4, 4), (5, 6), (2, 16)])
@pytest.mark.parametrize("size", [1, 7, 64, 129])
def test_value_noise_matches_reference(octaves, base_frequency, size):
    noise = ValueNoise(5, octaves=octaves, base_frequency=base_frequency)
    reference = _ReferenceValueNoise(5, octaves=octaves, base_frequency=base_frequency)
    assert _same_bytes(noise.sample(size), reference.sample(size))
