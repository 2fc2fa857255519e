#!/usr/bin/env python
"""What SIFT extraction costs per tile, and a digest of what it extracts.

Every process that runs the paper's two-level engine builds an
``ExperimentContext`` at boot, which extracts SIFT descriptors from the
vocabulary tiles and then from every other tile whose signature is
asked for.
By default this script times ``extract_sift_descriptors`` over every
tile of the 512 px world (32 px tiles, 2 days, seed 7; 341 tiles) in
``--runs`` fresh interpreters, each pinned to one CPU, and prints each
run's milliseconds per tile, then their median as
``sift extraction ms/tile``.  CI prints that line in the ``test`` job's
summary; nothing gates on it.

``--digest`` instead prints a sha256 over every tile's descriptors for
three worlds, and one over the 256 px experiment context's vocabulary
centres and every tile's ``sift`` and ``densesift`` vector.  A change
that claims to extract the same descriptors faster must leave every
digest unchanged.

``--boot`` instead boots the context ``facade_study`` serves from (512
px, 6 users) and replays the held-out users' traces once through a
``k=5`` service session, as its warm-up cycle does.  It prints the
seconds of each phase (world build; study, which includes importing
``scipy.ndimage``; vocabulary; warm-up), how
many times SIFT descriptors were extracted, how many times the study
labelled a snow mask (``_cluster_mass``), and how many scipy modules the
process loaded.  The counts are exact; CI prints them in the ``test``
job's summary and nothing gates on them.

Usage (from the repository root, no install needed)::

    python experiments/sift_cost.py [--runs 3]
    python experiments/sift_cost.py --digest
    python experiments/sift_cost.py --boot
"""

import argparse
import collections
import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

#: One timed pass over the bench world's tiles on one CPU; prints ms per tile.
TIMED_PASS = """
import os, time
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import sift_cost
from repro.signatures.sift import extract_sift_descriptors
images = sift_cost.tile_images(512, 32, 2, 7)
extract_sift_descriptors(images[0])  # loads scipy.ndimage
start = time.perf_counter()
for image in images:
    extract_sift_descriptors(image)
print((time.perf_counter() - start) / len(images) * 1e3)
"""

#: (size, tile_size, days, seed) of the worlds whose tiles --digest hashes.
DIGEST_WORLDS = ((512, 32, 2, 7), (256, 32, 1, 3), (256, 64, 1, 11))


def tile_images(size: int, tile_size: int, days: int, seed: int) -> list:
    """Every tile of every level, as the SIFT signature sees it."""
    from repro.modis.dataset import MODISDataset
    from repro.signatures.gradients import normalize_tile_values

    pyramid = MODISDataset.build(
        size=size, tile_size=tile_size, days=days, seed=seed
    ).pyramid
    return [
        normalize_tile_values(pyramid.fetch_tile(key, charge=False).attribute("ndsi_avg"))
        for level in range(pyramid.grid.num_levels)
        for key in pyramid.grid.keys_at_level(level)
    ]


def timed_passes(runs: int) -> list[float]:
    here = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, (str(SRC), here, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", TIMED_PASS],
                env=env, check=True, capture_output=True, text=True,
            ).stdout
        )
        for _ in range(runs)
    ]


def _update(sha, label, block) -> None:
    sha.update(repr((label, str(block.dtype), block.shape)).encode())
    sha.update(block.tobytes())


def world_digest(world: tuple[int, int, int, int]) -> tuple[str, int]:
    from repro.signatures.sift import extract_sift_descriptors

    sha = hashlib.sha256()
    images = tile_images(*world)
    for index, image in enumerate(images):
        _update(sha, index, extract_sift_descriptors(image))
    return sha.hexdigest(), len(images)


def context_digest() -> str:
    from repro.experiments.context import ExperimentContext

    context = ExperimentContext.build(size=256, num_users=4)
    sha = hashlib.sha256()
    _update(sha, "centers", context.provider.registry.get("sift").vocabulary.centers)
    for level in range(context.grid.num_levels):
        for key in context.grid.keys_at_level(level):
            for name in ("sift", "densesift"):
                _update(sha, (key, name), context.provider.vector(key, name))
    return sha.hexdigest()


#: The context ``facade_study`` boots, and the users its warm-up replays
#: (the engine trains on the others).
BOOT_CONTEXT = dict(size=512, num_users=6)
HELD_OUT_USERS = (1, 2)


def boot_counts() -> tuple[dict, collections.Counter]:
    """Seconds per boot phase, and calls to the counted functions."""
    import repro.experiments.context as context_module
    import repro.modis.dataset as dataset_module
    import repro.signatures.sift as sift_module
    from repro.experiments.runner import hybrid_factory
    from repro.middleware import ForeCacheService, PrefetchPolicy, ServiceConfig

    seconds: dict = collections.defaultdict(float)
    calls: collections.Counter = collections.Counter()

    def patch(owner, name, wrap):
        setattr(owner, name, wrap(getattr(owner, name)))

    def timed(phase):
        def wrap(inner):
            def run(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return inner(*args, **kwargs)
                finally:
                    seconds[phase] += time.perf_counter() - start
            return run
        return wrap

    def counted(inner):
        def run(*args, **kwargs):
            calls[inner.__name__] += 1
            return inner(*args, **kwargs)
        return run

    patch(dataset_module.MODISDataset, "build", lambda inner: staticmethod(timed("build")(inner)))
    patch(context_module, "run_study", timed("study"))
    patch(context_module, "training_descriptors", timed("vocabulary"))
    patch(context_module, "train_vocabulary", timed("vocabulary"))
    patch(sift_module, "extract_sift_descriptors", counted)
    patch(dataset_module, "_cluster_mass", counted)

    context = context_module.ExperimentContext.build(**BOOT_CONTEXT)
    traces = context.study.traces
    engine = hybrid_factory(context)([t for t in traces if t.user_id not in HELD_OUT_USERS])
    start = time.perf_counter()
    with ForeCacheService(context.pyramid, ServiceConfig(prefetch=PrefetchPolicy(k=5))) as service:
        session = service.open_session(engine)
        for trace in traces:
            if trace.user_id in HELD_OUT_USERS:
                engine.reset()
                for request in trace.requests:
                    session.request(request.move, request.tile)
    seconds["warm-up"] = time.perf_counter() - start
    return seconds, calls


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="fresh interpreters to time")
    parser.add_argument("--digest", action="store_true", help="hash the descriptors instead")
    parser.add_argument("--boot", action="store_true", help="count a facade_study boot's work")
    args = parser.parse_args()
    if args.boot:
        seconds, calls = boot_counts()
        scipy = [name for name in sys.modules if name.split(".")[0] == "scipy"]
        print("boot phase seconds   ", "  ".join(f"{k} {v:.3f}" for k, v in seconds.items()))
        print("sift extractions     ", calls["extract_sift_descriptors"])
        print("_cluster_mass calls  ", calls["_cluster_mass"])
        print("scipy modules loaded ", len(scipy))
        return
    if args.digest:
        for world in DIGEST_WORLDS:
            sha, tiles = world_digest(world)
            print("size, tile, days, seed", world, f"{tiles} tiles", sha)
        print("context 256 vocabulary + sift/densesift vectors", context_digest())
        return
    runs = timed_passes(args.runs)
    for ms in runs:
        print(f"one pass {ms:.3f} ms/tile")
    print("sift extraction ms/tile  ", round(statistics.median(runs), 3))


if __name__ == "__main__":
    main()
