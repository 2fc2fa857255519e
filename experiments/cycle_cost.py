#!/usr/bin/env python
"""What a request's cache work costs: ``fetch`` plus the prefetch cycle.

Boots the context ``facade_study`` serves from (512 px, 6 users), trains
the paper's two-level engine on every user but 1 and 2, and replays
users 1 and 2's study traces in the order seed 7 shuffles them into
(``facade_study``'s request cycle: 273 requests) once through a ``k=5``
service session, recording the calls its cache manager receives: one
``fetch(key)`` per request, then one ``prefetch(predictions)``.  That
call stream is then replayed on fresh cache managers of the default
shape over the same pyramid, with no engine in the loop.

It prints exact counts of one replay — backend queries
(``fetch_tile_timed`` calls) and hits per request, visits to the
cache's shard locks per prefetch cycle, and per ``fetch`` that hit and
that missed (a re-entrant acquire counts as a visit) — and then the
median over
``TIMED_PASSES`` replays of the microseconds per request spent in
``fetch`` plus ``prefetch``.  CI prints it in the ``test`` job's
summary; nothing gates on it.

Usage (from the repository root, no install needed)::

    python experiments/cycle_cost.py
"""

import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

#: The context ``facade_study`` boots, the users it replays (the engine
#: trains on the others) and the budget its session prefetches.
CONTEXT = dict(size=512, num_users=6)
HELD_OUT_USERS = (1, 2)
SEED = 7
K = 5
TIMED_PASSES = 21


class CountedLock:
    """A lock whose ``with`` entries are counted into ``visits``."""

    def __init__(self, inner, visits: list) -> None:
        self.inner = inner
        self.visits = visits

    def __enter__(self):
        self.visits[0] += 1
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        return self.inner.__exit__(*exc_info)


def record_calls(context, engine, requests) -> list:
    """One pass through a service session; the cache manager's calls,
    in order, as ``(method name, argument)``."""
    from repro.middleware.config import PrefetchPolicy, ServiceConfig
    from repro.middleware.service import ForeCacheService

    calls = []
    config = ServiceConfig(prefetch=PrefetchPolicy(k=K))
    with ForeCacheService(context.pyramid, config) as service:
        manager = service.cache_manager
        for name in ("fetch", "prefetch"):
            inner = getattr(manager, name)

            def recording(argument, name=name, inner=inner):
                calls.append((name, argument))
                return inner(argument)

            setattr(manager, name, recording)
        session = service.open_session(engine)
        for move, tile in requests:
            if move is None:
                engine.reset()
            session.request(move, tile)
    return calls


def replay(manager, calls) -> float:
    """Run ``calls`` on ``manager``; the seconds they took."""
    fetch, prefetch = manager.fetch, manager.prefetch
    start = time.perf_counter()
    for name, argument in calls:
        if name == "fetch":
            fetch(argument)
        else:
            prefetch(argument)
    return time.perf_counter() - start


def main() -> None:
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import hybrid_factory
    from repro.middleware.config import CacheConfig

    context = ExperimentContext.build(**CONTEXT)
    traces = context.study.traces
    engine = hybrid_factory(context)(
        [t for t in traces if t.user_id not in HELD_OUT_USERS]
    )
    held_out = [t for t in traces if t.user_id in HELD_OUT_USERS]
    random.Random(SEED).shuffle(held_out)
    requests = [(r.move, r.tile) for trace in held_out for r in trace.requests]
    calls = record_calls(context, engine, requests)
    pyramid = context.pyramid

    manager = CacheConfig().build_cache_manager(pyramid)
    queries = [0]
    fetch_tile_timed = pyramid.fetch_tile_timed

    def counted(key):
        queries[0] += 1
        return fetch_tile_timed(key)

    visits = [0]
    cycle_visits = 0
    #: Shard-lock visits of the fetches that hit, and of those that missed.
    fetch_visits = {True: 0, False: 0}
    pyramid.fetch_tile_timed = counted
    try:
        cache = manager.cache
        cache._locks[:] = [CountedLock(lock, visits) for lock in cache._locks]
        for name, argument in calls:
            before = visits[0]
            if name == "fetch":
                hit = manager.fetch(argument).hit
                fetch_visits[hit] += visits[0] - before
            else:
                manager.prefetch(argument)
                cycle_visits += visits[0] - before
    finally:
        del pyramid.fetch_tile_timed
    misses = manager.requests - manager.hits
    print(f"cycle                   {len(requests)} requests, seed {SEED}, k={K}")
    print(
        f"backend queries/req     {queries[0] / len(requests):.3f}"
        f" (cycle {manager.prefetch_queries / len(requests):.3f},"
        f" misses {misses / len(requests):.3f})"
    )
    print(f"hits                    {manager.hits} of {manager.requests}")
    print(f"shard-lock visits/cycle {cycle_visits / len(requests):.3f}")
    print(f"shard-lock visits/hit   {fetch_visits[True] / manager.hits:.3f}")
    print(f"shard-lock visits/miss  {fetch_visits[False] / misses:.3f}")
    per_pass = [
        replay(CacheConfig().build_cache_manager(pyramid), calls) / len(requests)
        for _ in range(TIMED_PASSES)
    ]
    print(f"us per request          {statistics.median(per_pass) * 1e6:.1f}")


if __name__ == "__main__":
    main()
