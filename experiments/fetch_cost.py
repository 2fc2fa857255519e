#!/usr/bin/env python
"""What a tile fetch costs: microseconds per fetch and heap bytes kept.

A cache miss and every prefetched prediction are one charged
``TilePyramid.fetch_tile_timed`` call.  The first fetch of a key reads
its chunks from the array DBMS into the pyramid's tile table; every
later one is a look-up there, charged the same.  By default this script
times that call over every tile of the benchmark world (512 px, 32 px
tiles, 1 day, seed 7; 341 tiles) in ``--runs`` fresh interpreters, each
pinned to one CPU.  Each pass fetches every tile from a fresh pyramid
over the world's views (an empty table), then every tile again.  It
prints each run's microseconds per first and per repeat fetch (the best
of 20 passes each), then their medians as ``tile fetch us/first fetch``
and ``tile fetch us/repeat fetch``: cold traffic pays the first.

``--heap`` instead prints one exact count: the heap bytes, as
``tracemalloc`` sees them, that a charged fetch of every tile of that
world from an empty tile table leaves alive, per tile, while the fetched
tiles are held.  The pyramid keeps one table entry per tile (the tile,
the virtual seconds a fetch of it is charged), so that is what the
count covers.  A fetch that copies
its payload keeps the payload too; one that hands out the store's own
chunks keeps only the entry.  CI prints that line in the ``test`` job's
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

#: One timed run on one CPU; prints the best pass's microseconds per
#: first fetch and per repeat fetch.
TIMED_RUN = """
import os, time
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import fetch_cost
pyramid, keys = fetch_cost.world()
best = [float("inf")] * 2
for _ in range(20):
    fetch = fetch_cost.empty_table(pyramid).fetch_tile_timed
    for i in range(2):
        start = time.perf_counter()
        for key in keys:
            fetch(key)
        best[i] = min(best[i], time.perf_counter() - start)
print(*(seconds / len(keys) * 1e6 for seconds in best))
"""


def world() -> tuple:
    """The benchmark world's pyramid and every tile key, coarsest first."""
    from repro.modis.dataset import MODISDataset

    pyramid = MODISDataset.build(**WORLD).pyramid
    grid = pyramid.grid
    keys = [key for level in range(grid.num_levels) for key in grid.keys_at_level(level)]
    return pyramid, keys


def empty_table(pyramid):
    """A fresh pyramid over ``pyramid``'s views: its tile table is empty."""
    from repro.tiles.pyramid import TilePyramid

    return TilePyramid(
        pyramid.db, pyramid.source, pyramid.tile_size, pyramid.num_levels,
        pyramid.attributes,
    )


def heap_bytes_per_tile() -> tuple[float, int]:
    """Heap bytes kept alive per tile by a charged fetch of every tile
    from an empty tile table, the tiles held; and the number of tiles."""
    import gc
    import tracemalloc

    pyramid, keys = world()
    pyramid.fetch_tile(keys[0])  # warm any first-call state
    pyramid = empty_table(pyramid)
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    held = [pyramid.fetch_tile(key) for key in keys]
    gc.collect()
    kept = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return kept / len(held), len(held)


def timed_runs(runs: int) -> list[tuple[float, float]]:
    here = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, (str(SRC), here, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return [
        tuple(map(float, subprocess.run(
            [sys.executable, "-c", TIMED_RUN],
            env=env, check=True, capture_output=True, text=True,
        ).stdout.split()))
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
    for first, repeat in runs:
        print(f"one run {first:.2f} us/first fetch, {repeat:.2f} us/repeat fetch")
    for i, which in enumerate(("first", "repeat")):
        median = statistics.median(run[i] for run in runs)
        print(f"tile fetch us/{which} fetch".ljust(28), round(median, 2))


if __name__ == "__main__":
    main()
