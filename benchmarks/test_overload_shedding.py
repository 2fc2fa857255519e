"""Acceptance bench for progressive fidelity under overload.

The regime: four zero-think-time users hammer a starved middleware
cache (a handful of slots against a working set an order of magnitude
larger), so the offered request rate is far beyond what the backend
can absorb at hit latency — with ``fidelity="off"`` virtually every
request pays the ~50x miss penalty, which *is* the offered-load >= 2x
capacity collapse the shedding ladder exists for.

Two claims:

1. With ``fidelity="progressive"`` the p99 client-observed latency
   stays bounded near the hit latency — strictly better than
   ``fidelity="off"`` under the same load — because once the
   deterministic miss-streak signal arms, requests whose pyramid
   ancestor is resident are answered as reduced-fidelity carves
   instead of queueing on the backend.  Every response is still
   well-formed at *some* fidelity: the right key, the full tile shape,
   a fidelity in (0, 1].

2. The machinery is invisible when off: with the default
   ``fidelity="off"`` the momentum figure replay is bit-identical on
   every replay front end (inprocess, socket, cluster) to the pinned
   pre-fidelity value.
"""

from __future__ import annotations

import pytest

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import replay_model_latency
from repro.experiments.sweep.spec import FRONTENDS
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.latency import HIT_SECONDS, LatencyRecorder
from repro.middleware.net import SocketTransport, ThreadedSocketServer
from repro.modis.dataset import MODISDataset
from repro.recommenders.base import PredictionContext, Recommender
from repro.tiles.key import TileKey

pytestmark = pytest.mark.bench

NUM_USERS = 4
K = 2
#: Children each user cycles through (under one level-1 anchor tile).
CHILD_CYCLE = 8
#: Full cycles per user: 15 * 8 children + 1 anchor = 121 requests per
#: user, so the handful of warm-up misses is well under 1% of the total
#: and the p99 genuinely reflects steady-state serving.
CYCLES = 15

#: Momentum LOO latency average at size=256/users=4, k=5 — pinned when
#: the figure suite first went green, must survive the fidelity ladder.
MOMENTUM_AVG_PIN = 0.22686750000000075


@pytest.fixture(scope="module")
def world() -> MODISDataset:
    # 256px world, 32px tiles: levels 0..3, 8 tiles per dim at level 3.
    return MODISDataset.build(size=256, tile_size=32, days=1, seed=7)


class TeleportBlindRecommender(Recommender):
    """Predicts nothing.

    The overload walk teleports between non-adjacent descendants, a
    pattern history-based recommenders cannot learn; modelling that as
    a null predictor keeps the replay fully deterministic (no stray
    prefetch hits resetting the miss-streak overload signal).
    """

    name = "blind"

    def predict(self, context: PredictionContext) -> list[TileKey]:
        return []


def engine_factory(pyramid):
    def factory() -> PredictionEngine:
        model = TeleportBlindRecommender()
        return PredictionEngine(
            pyramid.grid, {model.name: model}, SingleModelStrategy(model.name)
        )

    return factory


def overload_config(fidelity: str) -> ServiceConfig:
    return ServiceConfig(
        prefetch=PrefetchPolicy(
            k=K,
            fidelity=fidelity,
            # Two consecutive misses arm degraded serving — the replay
            # arms during warm-up and stays armed (degraded serves never
            # clear the streak; only a real cache hit does).
            shed_miss_streak=2,
        ),
        # Starved on purpose: 4 recent slots + a k-sized prefetch region
        # against a 36-tile working set guarantees continuous eviction
        # churn — the collapse regime.
        cache=CacheConfig(recent_capacity=4, prefetch_capacity=K),
    )


def overload_walks(grid) -> list[list]:
    """One walk per user: a level-1 anchor, then cycles over 8 of its
    level-3 descendants.

    The anchor is each user's only *cacheable* fetch; every descendant
    sits two levels below it (within the reduction budget), so under
    progressive fidelity the steady state serves carved stand-ins with
    zero backend traffic — while under ``off`` the 32 distinct
    descendants thrash the starved cache and miss forever.
    """
    walks = []
    anchors = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for ax, ay in anchors[:NUM_USERS]:
        anchor = TileKey(1, ax, ay)
        descendants = [
            TileKey(3, (ax << 2) + dx, (ay << 2) + dy)
            for dx in range(4)
            for dy in range(4)
        ][:CHILD_CYCLE]
        walk = [(None, anchor)]
        for _ in range(CYCLES):
            walk.extend((None, key) for key in descendants)
        walks.append(walk)
    return walks


def replay_concurrent(world, fidelity: str):
    """Round-robin the walks across concurrent socket sessions.

    Returns (recorder, fidelities, bad_responses, degraded_served):
    the client-observed recorder, the per-response fidelity trail, the
    count of malformed responses, and the server-side degraded-serve
    counter read before shutdown.
    """
    pyramid = world.pyramid
    recorder = LatencyRecorder()
    fidelities = []
    bad = 0
    walks = overload_walks(pyramid.grid)
    with ThreadedSocketServer(
        pyramid,
        overload_config(fidelity),
        engine_factory=engine_factory(pyramid),
    ) as server:
        with SocketTransport(*server.address, pyramid=pyramid) as transport:
            clients = [
                transport.connect(session_id=f"user-{i + 1}")
                for i in range(len(walks))
            ]
            cursors = [0] * len(walks)
            remaining = sum(len(walk) for walk in walks)
            while remaining:
                for index, walk in enumerate(walks):
                    if cursors[index] >= len(walk):
                        continue
                    move, key = walk[cursors[index]]
                    response = clients[index].request(move, key)
                    recorder.record(response.latency_seconds, response.hit)
                    fidelities.append(response.fidelity)
                    if (
                        response.tile.key != key
                        or response.tile.shape != (32, 32)
                        or not 0.0 < response.fidelity <= 1.0
                    ):
                        bad += 1
                    cursors[index] += 1
                    remaining -= 1
            for client in clients:
                client.close()
        degraded = server.server.service.service.degraded_served
    return recorder, fidelities, bad, degraded


class TestOverloadShedding:
    def test_progressive_bounds_p99_under_overload(self, world):
        off, off_fidelities, off_bad, off_degraded = replay_concurrent(
            world, "off"
        )
        prog, prog_fidelities, prog_bad, _ = replay_concurrent(
            world, "progressive"
        )
        assert prog.count == off.count
        print(
            f"\noverload: off p99={off.percentile(0.99) * 1000:.1f}ms "
            f"avg={off.average_seconds * 1000:.1f}ms | "
            f"progressive p99={prog.percentile(0.99) * 1000:.1f}ms "
            f"avg={prog.average_seconds * 1000:.1f}ms "
            f"(hit={HIT_SECONDS * 1000:.1f}ms)"
        )
        # Off mode collapses: the offered load is >= 2x what the backend
        # absorbs, so the typical response pays the miss penalty.
        assert off.percentile(0.99) > 2 * HIT_SECONDS
        # Progressive keeps the tail bounded near hit latency, and is
        # strictly better than off at the same offered load.
        assert prog.percentile(0.99) < off.percentile(0.99)
        assert prog.percentile(0.99) <= 2 * HIT_SECONDS
        assert prog.average_seconds < off.average_seconds
        # Every response well-formed at some fidelity, on both ladders.
        assert off_bad == 0 and prog_bad == 0
        # Off never degrades; progressive actually did.
        assert off_degraded == 0
        assert set(off_fidelities) == {1.0}
        assert min(prog_fidelities) < 1.0

    def test_progressive_sheds_backend_traffic(self, world):
        _, _, _, degraded = replay_concurrent(world, "progressive")
        total = sum(len(walk) for walk in overload_walks(world.pyramid.grid))
        # The overwhelming majority of requests were answered from
        # resident ancestors without touching the backend.
        assert degraded > total * 0.9


class TestFidelityOffFigureNumerics:
    @pytest.fixture(scope="class")
    def context(self) -> ExperimentContext:
        return ExperimentContext.build(size=256, num_users=4)

    @pytest.mark.parametrize("frontend", FRONTENDS)
    def test_momentum_average_is_bit_identical(self, context, frontend):
        recorder = replay_model_latency(
            context,
            lambda train: context.momentum_engine(train),
            k=5,
            frontend=frontend,
        )
        assert recorder.average_seconds == MOMENTUM_AVG_PIN
