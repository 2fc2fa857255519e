"""Cross-user shared hotspot prediction on convergent workloads.

The serving-layer claim of this PR made measurable: when many users
converge on the same region, a *live* shared popularity model lets
later users' prefetching profit from earlier users' traffic.  The
workload (``repro.users.convergent``) approaches one hot tile along
L-shaped paths from four corners with a momentum-hostile turn in each;
the cache is the Section 5.2.2 one-slot shape, so a hit is exactly a
correct prediction — cache warming cannot masquerade as prediction
sharing.

Asserted:

- ``shared_hotspots="boost"`` strictly beats ``"off"`` on cross-user
  (users 2..N) hit rate — the isolated baseline physically cannot learn
  the turn, the shared model can;
- ``"observe"`` replays bit-identically to ``"off"`` (collection alone
  changes nothing) while still accumulating the popularity signal;
- the background scheduler path under ``"boost"`` serves the same
  workload cleanly (smoke: threaded sessions, shared worker pool).
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.core.engine import PredictionEngine
from repro.core.allocation import SingleModelStrategy
from repro.experiments.sweep.run import replay_walks
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.service import ForeCacheService
from repro.modis.dataset import MODISDataset
from repro.recommenders.hotspot import HotspotRecommender
from repro.users.convergent import convergent_walks, cross_user_hit_rate

pytestmark = pytest.mark.bench

#: Convergent users; REPRO_USERS scales it inside a [3, 12] band.
NUM_USERS = max(3, min(12, int(os.environ.get("REPRO_USERS", "8"))))


@pytest.fixture(scope="module")
def pyramid():
    return MODISDataset.build(size=256, tile_size=32, days=1, seed=3).pyramid


def engine_factory(grid):
    def factory() -> PredictionEngine:
        model = HotspotRecommender(num_hotspots=1, proximity=4)
        return PredictionEngine(
            grid, {model.name: model}, SingleModelStrategy(model.name)
        )

    return factory


def run_mode(pyramid, mode: str, walks):
    """Sequential deterministic replay; returns per-user recorders."""
    config = ServiceConfig(
        prefetch=PrefetchPolicy(k=1, shared_hotspots=mode),
        # One prefetch slot, one recent slot: a hit IS a correct
        # prediction (the Section 5.2.2 equivalence).
        cache=CacheConfig(recent_capacity=1, prefetch_capacity=1),
    )
    recorders, _, _ = replay_walks(
        pyramid, config, walks, engine_factory(pyramid.grid)
    )
    return recorders


def test_shared_boost_beats_isolated_cross_user_hit_rate(pyramid):
    """The headline claim: cross-user hit rate under live sharing
    strictly exceeds the isolated baseline on convergent traces."""
    walks = convergent_walks(pyramid.grid, num_users=NUM_USERS)
    results = {
        mode: run_mode(pyramid, mode, walks) for mode in ("off", "boost")
    }
    rates = {
        mode: cross_user_hit_rate(recorders)
        for mode, recorders in results.items()
    }

    print()
    for mode, recorders in results.items():
        per_user = " ".join(
            f"{recorder.hits}/{recorder.count}" for recorder in recorders
        )
        print(
            f"{NUM_USERS} users/{mode:<6}: cross-user hit rate "
            f"{rates[mode]:.3f}   (per user: {per_user})"
        )

    for mode, recorders in results.items():
        assert len(recorders) == NUM_USERS
        assert all(
            recorder.count == len(walks[0]) for recorder in recorders
        )
    # Strict: later users get hits predicted from other users' behavior.
    assert rates["boost"] > rates["off"]
    # The first user has no one to learn from: cold start must not be
    # where the win comes from.
    assert results["boost"][0].hits <= results["off"][0].hits + 1


def test_observe_mode_replays_identically_to_off(pyramid):
    walks = convergent_walks(pyramid.grid, num_users=NUM_USERS)
    off = [r.to_dict() for r in run_mode(pyramid, "off", walks)]
    observe = [r.to_dict() for r in run_mode(pyramid, "observe", walks)]
    assert observe == off


def test_boost_background_threaded_smoke(pyramid):
    """The same convergent workload, threaded, over the background
    scheduler with the hotspot rank boost active: every request served,
    clean drain, registry totals exact."""
    grid = pyramid.grid
    walks = convergent_walks(grid, num_users=NUM_USERS)
    config = ServiceConfig(
        prefetch=PrefetchPolicy(
            k=4,
            mode="background",
            workers=4,
            shared_hotspots="boost",
        ),
        cache=CacheConfig(recent_capacity=8, prefetch_capacity=8, shards=4),
    )
    errors: list[BaseException] = []
    with ForeCacheService(
        pyramid, config, engine_factory=engine_factory(grid)
    ) as service:
        handles = [
            service.open_session(session_id=f"user-{index}")
            for index in range(NUM_USERS)
        ]

        def drive(index: int) -> None:
            try:
                for move, key in walks[index]:
                    handles[index].request(move, key)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(NUM_USERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.drain(timeout=60)
        expected = sum(len(walk) for walk in walks)
        assert service.hotspot_registry.total_observations == expected
        assert (
            sum(handle.recorder.count for handle in handles) == expected
        )
