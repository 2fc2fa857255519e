#!/usr/bin/env python
"""What building the tile world costs, and a digest of what it builds.

Every server, cluster worker and most test modules call
``MODISDataset.build`` once at boot, so its first call in a fresh
interpreter is part of every wire workload's ``setup_s``.  By default
this script times that call for the benchmark world (512 px, 32 px
tiles, 1 day, seed 7): ``--runs`` fresh interpreters, each importing
``repro.middleware`` first as a server does, and prints each run's
seconds, minor page faults and max RSS, then the median seconds as
``world build s``.  CI prints that line in the ``test`` job's summary;
nothing gates on it.

``--digest`` instead prints, for four worlds, a sha256 over every
tile of every level (each attribute's dtype, shape and bytes) and the
virtual clock after the build.  A change that claims to build the same
world faster must leave every digest unchanged.

Usage (from the repository root, no install needed)::

    python experiments/world_build.py [--runs 3]
    python experiments/world_build.py --digest
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

#: One timed first build; prints "seconds minor_faults max_rss_mb".
FIRST_BUILD = """
import resource, time
import repro.middleware
from repro.modis.dataset import MODISDataset
start = time.perf_counter()
MODISDataset.build(size=512, tile_size=32, days=1, seed=7)
seconds = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(seconds, usage.ru_minflt, usage.ru_maxrss / 1024)
"""

#: (size, tile_size, days, seed) of the worlds --digest hashes.
DIGEST_WORLDS = ((512, 32, 1, 7), (256, 32, 1, 7), (512, 32, 3, 7), (128, 16, 2, 3))


def first_builds(runs: int) -> list[tuple[float, int, float]]:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    results = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", FIRST_BUILD],
            env=env, check=True, capture_output=True, text=True,
        ).stdout.split()
        results.append((float(out[0]), int(out[1]), float(out[2])))
    return results


def digest(size: int, tile_size: int, days: int, seed: int) -> tuple[str, float]:
    from repro.modis.dataset import MODISDataset

    dataset = MODISDataset.build(size=size, tile_size=tile_size, days=days, seed=seed)
    pyramid = dataset.pyramid
    sha = hashlib.sha256()
    for level in range(pyramid.grid.num_levels):
        for key in pyramid.grid.keys_at_level(level):
            tile = pyramid.fetch_tile(key, charge=False)
            for name in pyramid.attributes:
                block = tile.attribute(name)
                sha.update(repr((key, name, str(block.dtype), block.shape)).encode())
                sha.update(block.tobytes())
    clock = dataset.db.clock.now()
    sha.update(repr(clock).encode())
    return sha.hexdigest(), clock


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="fresh interpreters to time")
    parser.add_argument("--digest", action="store_true", help="hash the built worlds instead")
    args = parser.parse_args()
    if args.digest:
        for world in DIGEST_WORLDS:
            sha, clock = digest(*world)
            print("size, tile, days, seed", world, sha, "clock", repr(clock))
        return
    runs = first_builds(args.runs)
    for seconds, faults, rss in runs:
        print(f"first build {seconds:.3f} s  minor faults {faults}  max RSS {rss:.1f} MB")
    print("world build s            ", round(statistics.median(r[0] for r in runs), 3))


if __name__ == "__main__":
    main()
