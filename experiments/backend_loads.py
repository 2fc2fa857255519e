#!/usr/bin/env python
"""Backend loads per request, counted on a deterministic in-process replay.

Two lines, both exact and repeatable (no timing): how many times the
tile pyramid's ``fetch_tile_timed`` ran per user request

- for one held-out user's study traces through the paper's hybrid
  engine (one session, the default cache), and
- for two flash-crowd sessions taking turns on one service that splits
  its prefetch budget between them (``share_budget=True``) — the traffic
  shape of the wire workloads in ``benchmarks/perf``.

A request costs one load when it misses, plus whatever its prefetch
cycle had to query; a cycle that re-queries tiles the cache already held
shows up here as a larger number.  CI prints both in the ``test`` job's
summary; nothing gates on them.

Usage (from the repository root, no install needed)::

    python experiments/backend_loads.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.context import ExperimentContext  # noqa: E402
from repro.experiments.runner import hybrid_factory  # noqa: E402
from repro.middleware import (  # noqa: E402
    ForeCacheService,
    PrefetchPolicy,
    ServiceConfig,
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


def study_trace_requests(context: ExperimentContext) -> int:
    """Replay one held-out user's traces, the hybrid engine trained on
    everybody else's and starting over at each trace (a new user sat
    down), as ``facade_study`` replays them.  Returns the request count."""
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
        return handle.recorder.count


def shared_budget_requests(context: ExperimentContext) -> int:
    """Replay two flash-crowd walkers taking turns, momentum engines.
    Returns the request count."""
    walks = flash_crowd_walks(
        context.pyramid.grid, num_users=2, bursts=4, wander=8, dwell=3
    )
    config = ServiceConfig(prefetch=PrefetchPolicy(k=5, share_budget=True))
    with ForeCacheService(
        context.pyramid, config, engine_factory=context.momentum_engine
    ) as service:
        handles = [service.open_session() for _ in walks]
        for step in zip(*walks):
            for handle, (move, key) in zip(handles, step):
                handle.request(move, key)
        return sum(handle.recorder.count for handle in handles)


def main() -> int:
    context = ExperimentContext.build(size=WORLD_SIZE, num_users=STUDY_USERS)
    counter = counted_loads(context.pyramid)
    for label, replay in [
        ("study traces, hybrid engine, one session", study_trace_requests),
        ("flash crowd, two sessions, share_budget", shared_budget_requests),
    ]:
        before = len(counter)
        requests = replay(context)
        loads = len(counter) - before
        print(
            f"backend loads per request  {label:42s}"
            f" {loads / requests:.3f}  ({loads} / {requests})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
