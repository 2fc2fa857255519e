"""The worlds the build makes do not drift by a bit.

``experiments/world_build.py --digest`` hashes every tile of every level
of four worlds (each attribute's dtype, shape and bytes) together with
the virtual clock after the build.  These are its outputs, recorded on
numpy 2.4 / x86-64: a change to how the bands, NDSI, zoom levels or
their charges are computed must leave all four unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "world_build", ROOT / "experiments" / "world_build.py"
)
world_build = importlib.util.module_from_spec(spec)
spec.loader.exec_module(world_build)

#: (size, tile_size, days, seed) -> (sha256, virtual clock after the build).
DIGESTS = {
    (512, 32, 1, 7): (
        "4089e368024ef90502d457638ed21fc5f20d3392ee28860a3a52455fe9b97fc2",
        3213.713999999999,
    ),
    (256, 32, 1, 7): (
        "725133f546d8342a0215555ceddeae6b19c8abe73a8214293f9589ee9f47bc6d",
        620.1734999999999,
    ),
    (512, 32, 3, 7): (
        "e5929340320f52464b14358272491ee4b456d70c09c814d16694d0b5fd137296",
        3584.564249999999,
    ),
    (128, 16, 2, 3): (
        "e0dbff606d600e624fd70dac919e6257f6965dfaf641da0fcc3342e8b3084e24",
        666.7106249999998,
    ),
}


def test_the_script_hashes_these_worlds():
    assert tuple(DIGESTS) == world_build.DIGEST_WORLDS


@pytest.mark.parametrize("world", list(DIGESTS), ids=lambda w: "/".join(map(str, w)))
def test_world_digest_and_clock(world):
    assert world_build.digest(*world) == DIGESTS[world]
