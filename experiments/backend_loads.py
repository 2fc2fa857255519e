#!/usr/bin/env python
"""Backend loads per request, counted on a deterministic in-process replay.

Three counts, all exact and repeatable (no timing): how many times the
tile pyramid's ``fetch_tile_timed`` ran per user request, and the share
of requests that were cache hits,

- for one held-out user's study traces through the paper's hybrid
  engine (one session, the default cache),
- for two flash-crowd sessions taking turns on one service that splits
  its prefetch budget between them (``share_budget=True``) — the traffic
  shape of the wire workloads in ``benchmarks/perf``, and
- for the same two sessions through a cluster's router, over one
  threaded worker and over two (one session living on each).

A request costs one load when it misses, plus whatever its prefetch
cycle had to query; a cycle that re-queries tiles the cache already held
shows up here as a larger number, and so does a tile both sessions want
once each lives on a worker of its own.  CI prints them in the ``test``
job's summary; nothing gates on them.

Usage (from the repository root, no install needed)::

    python experiments/backend_loads.py
"""

import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.context import ExperimentContext  # noqa: E402
from repro.experiments.runner import hybrid_factory  # noqa: E402
from repro.middleware import (  # noqa: E402
    ForeCacheService,
    PrefetchPolicy,
    ServiceConfig,
    SocketTransport,
    ThreadedClusterServer,
)
from repro.users.flashcrowd import flash_crowd_walks  # noqa: E402

# The downscaled world CI and the documented counts use; the counts only
# mean something at these values.
WORLD_SIZE = 256
STUDY_USERS = 4


def counted_loads(pyramid) -> list:
    """Count ``pyramid.fetch_tile_timed`` calls into the returned list."""
    loads = []
    original = pyramid.fetch_tile_timed

    def counting(key):
        loads.append(key)
        return original(key)

    pyramid.fetch_tile_timed = counting
    return loads


def study_trace_requests(context: ExperimentContext) -> tuple[int, int]:
    """Replay one held-out user's traces, the hybrid engine trained on
    everybody else's and starting over at each trace (a new user sat
    down), as ``facade_study`` replays them.  Returns requests, hits."""
    traces = context.study.traces
    user = traces[0].user_id
    engine = hybrid_factory(context)([t for t in traces if t.user_id != user])
    config = ServiceConfig(prefetch=PrefetchPolicy(k=5))
    with ForeCacheService(context.pyramid, config) as service:
        handle = service.open_session(engine)
        for trace in traces:
            if trace.user_id == user:
                engine.reset()
                for request in trace.requests:
                    handle.request(request.move, request.tile)
        return handle.recorder.count, handle.recorder.hits


SHARED_BUDGET = ServiceConfig(prefetch=PrefetchPolicy(k=5, share_budget=True))


def take_turns(connections, context: ExperimentContext) -> tuple[int, int]:
    """Two flash-crowd walkers, one per connection, request by request.
    Returns requests, hits."""
    walks = flash_crowd_walks(
        context.pyramid.grid, num_users=2, bursts=4, wander=8, dwell=3
    )
    responses = [
        connection.request(move, key)
        for step in zip(*walks)
        for connection, (move, key) in zip(connections, step)
    ]
    return len(responses), sum(response.hit for response in responses)


def shared_budget_requests(context: ExperimentContext) -> tuple[int, int]:
    """The two walkers on one service, momentum engines."""
    with ForeCacheService(
        context.pyramid, SHARED_BUDGET, engine_factory=context.momentum_engine
    ) as service:
        return take_turns([service.open_session() for _ in range(2)], context)


#: Session ids the default ring separates: one on each of two workers.
WALKERS = ("user-1", "user-3")


def cluster_requests(
    context: ExperimentContext, workers: int
) -> tuple[int, int]:
    """The two walkers through a cluster's router, each on a worker of
    its own when there are two (the threaded workers share the counted
    pyramid)."""
    with ThreadedClusterServer(
        context.pyramid,
        SHARED_BUDGET,
        workers=workers,
        engine_factory=context.momentum_engine,
    ) as cluster:
        ring = cluster.router.router.ring
        assert len({ring.owner(name) for name in WALKERS}) == workers
        with SocketTransport(*cluster.address, payload="binary") as transport:
            return take_turns(
                [transport.connect(session_id=name) for name in WALKERS],
                context,
            )


def main() -> int:
    context = ExperimentContext.build(size=WORLD_SIZE, num_users=STUDY_USERS)
    counter = counted_loads(context.pyramid)
    for label, replay in [
        ("study traces, hybrid engine, one session", study_trace_requests),
        ("flash crowd, two sessions, share_budget", shared_budget_requests),
        (
            "the same through a router, 1 worker",
            partial(cluster_requests, workers=1),
        ),
        (
            "the same through a router, 2 workers",
            partial(cluster_requests, workers=2),
        ),
    ]:
        before = len(counter)
        requests, hits = replay(context)
        loads = len(counter) - before
        print(
            f"backend loads per request  {label:42s}"
            f" {loads / requests:.3f}  ({loads} / {requests})"
            f"  hit rate {hits / requests:.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
