#!/usr/bin/env python
"""How much code and surface ``src/repro`` has, held to a committed budget.

Prints two kinds of lines.  *Budgeted* counts depend on the source
alone, so they read the same on every Python and every host:

- ``wc -l`` of ``src/repro/middleware/*.py`` plus ``core/popularity.py``
  (each file, then the total) and of all of ``src/repro``;
- the surface counts: config fields, sweep parameters, scheduler
  constructor parameters, replay front ends, middleware exports, wire
  messages and their declared fields, ``SharedHotspotRegistry`` public
  names and the endpoint constructors' parameters;
- the functions only the fast tier reaches, which
  ``experiments/uncalled.py`` holds equal to the entries of
  ``experiments/fast_only_allowlist.txt``.

*Print-only* lines vary across Python versions or hosts: the orjson
version the wire reads with, what a fresh serving process imports, the
binary blob bytes per tile with the zlib build that wrote them, and the
JSON and binary wire-segment bytes a server keeps if it sends every
tile of the 256 px world in both encodings (its memory bound: one
segment per tile per encoding sent).

``experiments/scoreboard_budget.txt`` holds one ``budget  name`` per
budgeted count.  The exit status is 1 if a count exceeds its budget or
if the budget file and the budgeted counts do not name the same
counts; 0 otherwise.  Raising a budget is a line in a reviewed diff.

Usage (from the repository root, no install needed)::

    python experiments/scoreboard.py
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from uncalled import FAST_ONLY_ALLOWLIST, allowlist  # noqa: E402
from wire_cost import BUDGET_NAMES as WIRE_COST_BUDGETS  # noqa: E402

BUDGET = ROOT / "experiments" / "scoreboard_budget.txt"

#: The eight constructors a server, router or cluster is configured through.
ENDPOINTS = (
    "ForeCacheService", "ForeCacheSocketServer",
    "ThreadedSocketServer", "TileServiceRouter", "ThreadedRouter",
    "ThreadedClusterServer", "ProcessCluster", "WorkerSpec",
)

#: What every server, router and worker loads before it serves, counted
#: in a fresh interpreter: scipy coming back shows here.
SERVING_PATH = """
import sys
import repro.middleware, repro.middleware.cluster
print(len(sys.modules), any(name.split('.')[0] == 'scipy' for name in sys.modules))
"""


def lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def budgeted() -> dict:
    """``{name: count}`` of every count the budget holds."""
    import repro.middleware as middleware
    from repro.core.popularity import SharedHotspotRegistry
    from repro.experiments.sweep.spec import FRONTENDS, PARAMETER_DOMAINS
    from repro.middleware.protocol import MESSAGE_TYPES
    from repro.middleware.push import PushScheduler

    def ctor(cls) -> int:
        return len(inspect.signature(cls).parameters)

    repro = SRC / "repro"
    sized = sorted((repro / "middleware").glob("*.py")) + [repro / "core" / "popularity.py"]
    for path in sized:
        print(f"{lines(path):>7} {path.relative_to(ROOT).as_posix()}")
    return {
        "middleware + popularity lines": sum(map(lines, sized)),
        "src/repro lines": sum(map(lines, repro.rglob("*.py"))),
        "PrefetchPolicy fields": len(dataclasses.fields(middleware.PrefetchPolicy)),
        "ServiceConfig fields": len(dataclasses.fields(middleware.ServiceConfig)),
        "sweep PARAMETER_DOMAINS": len(PARAMETER_DOMAINS),
        "PrefetchScheduler params": ctor(middleware.PrefetchScheduler),
        "PushScheduler params": ctor(PushScheduler),
        "FRONTENDS": len(FRONTENDS),
        "repro.middleware.__all__": len(middleware.__all__),
        "MESSAGE_TYPES": len(MESSAGE_TYPES),
        "declared wire fields": sum(len(cls.wire_fields) for cls in MESSAGE_TYPES.values()),
        "SharedHotspotRegistry": sum(
            not name.startswith("_") for name in vars(SharedHotspotRegistry)
        ),
        "endpoint ctor params": sum(ctor(getattr(middleware, name)) for name in ENDPOINTS),
        "fast-only functions": len(allowlist(FAST_ONLY_ALLOWLIST)),
    }


def print_only() -> None:
    import zlib

    import orjson

    from repro.middleware.protocol import (
        TilePayload,
        _encode_tile_segment,
        _payload_descriptor,
    )
    from repro.modis.dataset import MODISDataset

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    modules, scipy = subprocess.run(
        [sys.executable, "-c", SERVING_PATH], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.split()
    print(f"{'orjson (the wire reader)':<30} {orjson.__version__}")
    print(f"{'serving-path modules':<30} {modules}")
    print(f"{'scipy on the serving path':<30} {'yes' if scipy == 'True' else 'no'}")
    # The finest level of the 256 px world, binary payloads.
    pyramid = MODISDataset.build(size=256, tile_size=32, days=1, seed=7).pyramid
    keys = list(pyramid.grid.keys_at_level(pyramid.grid.num_levels - 1))
    sizes = [
        len(_payload_descriptor(TilePayload.from_tile(pyramid.fetch_tile(key), binary=True))[1])
        for key in keys
    ]
    print(f"{'mean blob bytes per tile':<30} {sum(sizes) / len(sizes)} over {len(sizes)} tiles")
    tiles = [pyramid.fetch_tile(key) for key in pyramid.grid.all_keys()]
    for name, binary in (("JSON", False), ("binary", True)):
        total = sum(sum(map(len, _encode_tile_segment(tile, binary))) for tile in tiles)
        print(f"{name + ' segments, every tile':<30} {total} bytes over {len(tiles)} tiles")
    print(f"{'zlib runtime':<30} {zlib.ZLIB_RUNTIME_VERSION}")


def main() -> int:
    counts = budgeted()
    budget = {}
    for line in BUDGET.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            value, _, name = line.partition(" ")
            budget[name.strip()] = int(value)
    failed = False
    for name, count in counts.items():
        limit = budget.get(name)
        print(f"{name:<30} {count:>6}  (budget {limit})")
        if limit is None or count > limit:
            print(f"{BUDGET.name}: {name} is {count}, budget {limit}", file=sys.stderr)
            failed = True
    # experiments/wire_cost.py holds its own lines of the file.
    for name in sorted(set(budget) - set(counts) - set(WIRE_COST_BUDGETS.values())):
        print(f"{BUDGET.name}: {name} is not a count this script prints", file=sys.stderr)
        failed = True
    print_only()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
