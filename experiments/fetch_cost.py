#!/usr/bin/env python
"""What a tile fetch costs: microseconds per fetch and heap bytes kept.

A cache miss and every prefetched prediction are one charged
``TilePyramid.fetch_tile_timed`` call, a single-chunk read from the
array DBMS.  By default this script times that call over every tile of
the benchmark world (512 px, 32 px tiles, 1 day, seed 7; 341 tiles) in
``--runs`` fresh interpreters, each pinned to one CPU, and prints each
run's microseconds per fetch (the best of 20 passes), then their median
as ``tile fetch us/fetch``.

``--heap`` instead prints one exact count: the heap bytes, as
``tracemalloc`` sees them, that holding a charged fetch of every tile
of that world keeps alive, per tile.  A fetch that copies its payload
keeps the payload; one that hands out the store's own chunks keeps
only the tile object.  CI prints that line in the ``test`` job's
summary; nothing gates on it.

Usage (from the repository root, no install needed)::

    python experiments/fetch_cost.py [--runs 3]
    python experiments/fetch_cost.py --heap
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

#: The benchmark world, as ``benchmarks/perf`` builds it.
WORLD = dict(size=512, tile_size=32, days=1, seed=7)

#: One timed run on one CPU; prints the best pass's microseconds per fetch.
TIMED_RUN = """
import os, time
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import fetch_cost
pyramid, keys = fetch_cost.world()
fetch = pyramid.fetch_tile_timed
best = float("inf")
for _ in range(20):
    start = time.perf_counter()
    for key in keys:
        fetch(key)
    best = min(best, time.perf_counter() - start)
print(best / len(keys) * 1e6)
"""


def world() -> tuple:
    """The benchmark world's pyramid and every tile key, coarsest first."""
    from repro.modis.dataset import MODISDataset

    pyramid = MODISDataset.build(**WORLD).pyramid
    grid = pyramid.grid
    keys = [key for level in range(grid.num_levels) for key in grid.keys_at_level(level)]
    return pyramid, keys


def heap_bytes_per_tile() -> tuple[float, int]:
    """Heap bytes kept alive per tile while holding a charged fetch of
    every tile, and the number of tiles."""
    import gc
    import tracemalloc

    pyramid, keys = world()
    pyramid.fetch_tile(keys[0])  # warm any first-call state
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    held = [pyramid.fetch_tile(key) for key in keys]
    gc.collect()
    kept = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return kept / len(held), len(held)


def timed_runs(runs: int) -> list[float]:
    here = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, (str(SRC), here, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", TIMED_RUN],
                env=env, check=True, capture_output=True, text=True,
            ).stdout
        )
        for _ in range(runs)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="fresh interpreters to time")
    parser.add_argument("--heap", action="store_true", help="count heap bytes kept instead")
    args = parser.parse_args()
    if args.heap:
        per_tile, tiles = heap_bytes_per_tile()
        print("heap bytes kept per fetched tile", round(per_tile, 1), "over", tiles, "tiles")
        return
    runs = timed_runs(args.runs)
    for us in runs:
        print(f"one run {us:.2f} us/fetch")
    print("tile fetch us/fetch      ", round(statistics.median(runs), 2))


if __name__ == "__main__":
    main()
