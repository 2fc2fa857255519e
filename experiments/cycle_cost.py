#!/usr/bin/env python
"""What a request's cache work costs: ``fetch`` plus the prefetch cycle.

Boots the context ``facade_study`` serves from (512 px, 6 users), trains
the paper's two-level engine on every user but 1 and 2, and replays
users 1 and 2's study traces in the order seed 7 shuffles them into
(``facade_study``'s request cycle: 273 requests) once through a ``k=5``
service session, recording the calls its cache manager receives: one
``fetch(key)`` per request, then one ``prefetch(predictions)``.  That
call stream is then replayed on fresh cache managers of the default
shape over the same pyramid, with no engine in the loop.  The session
serves the cycle a second time, warm and unrecorded, to count the
Python function calls a whole request makes.

It prints exact counts of one replay — backend queries
(``fetch_tile_timed`` calls) and hits per request, visits to the
cache's shard locks per prefetch cycle, and per ``fetch`` that hit and
that missed (a re-entrant acquire counts as a visit) — then the visits
per background admission (``prefetch_one``) of a resident tile and of
an absent one, from one more replay that admits each cycle's
predictions one at a time instead, the Python function calls per
request of the warm pass (``sys.setprofile`` ``call`` events: the
service, engine, cache and backend frames one request runs), and then
the median over ``TIMED_PASSES`` replays of the microseconds per
request spent in ``fetch`` plus ``prefetch``.  CI prints it in the
``test`` job's summary.

The exact counts in :data:`BUDGET_NAMES` — Python calls per request and
shard-lock visits per hit, miss, admission hit and admission miss — are
held to their lines in ``experiments/scoreboard_budget.txt``, each as
printed (calls to one decimal: the warm pass still makes a few one-off
calls, 52.022 per request when this gate came in).  Exit status 1 when
one exceeds its budget; the timing is printed only.

Usage (from the repository root, no install needed)::

    python experiments/cycle_cost.py
"""

import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
BUDGET = ROOT / "experiments" / "scoreboard_budget.txt"

#: The context ``facade_study`` boots, the users it replays (the engine
#: trains on the others) and the budget its session prefetches.
CONTEXT = dict(size=512, num_users=6)
HELD_OUT_USERS = (1, 2)
SEED = 7
K = 5
TIMED_PASSES = 21

#: The budget line of each gated count, by the name it is printed under.
BUDGET_NAMES = {
    "python calls/request": "cycle calls per request",
    "shard-lock visits/hit": "shard-lock visits per hit",
    "shard-lock visits/miss": "shard-lock visits per miss",
    "shard-lock visits/admit hit": "shard-lock visits per admission hit",
    "shard-lock visits/admit miss": "shard-lock visits per admission miss",
}


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


def record_calls(context, engine, requests) -> tuple[list, float]:
    """One pass through a service session; the cache manager's calls,
    in order, as ``(method name, argument)``.  Then a second, warm pass
    through the same session with the recording removed; the Python
    function calls it makes per request (``sys.setprofile`` ``call``
    events)."""
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

        def serve():
            for move, tile in requests:
                if move is None:
                    engine.reset()
                session.request(move, tile)

        serve()
        del manager.fetch, manager.prefetch
        events = [0]

        def count(frame, event, arg):
            if event == "call":
                events[0] += 1

        previous = sys.getprofile()  # experiments/calls' recorder, if on
        sys.setprofile(count)
        try:
            serve()
        finally:
            sys.setprofile(previous)
    # Less the one call into ``serve`` itself.
    return calls, (events[0] - 1) / len(requests)


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


def admission_visits(manager, calls) -> dict[bool, float]:
    """Run ``calls`` on ``manager``, each cycle's predictions admitted
    one ``prefetch_one`` at a time; shard-lock visits per admission of
    a resident tile (True) and of an absent one (False)."""
    cache = manager.cache
    visits = [0]
    cache._locks[:] = [CountedLock(lock, visits) for lock in cache._locks]
    totals = {True: 0, False: 0}
    counts = {True: 0, False: 0}
    for name, argument in calls:
        if name == "fetch":
            manager.fetch(argument)
            continue
        for key, model in argument:
            before, queries = visits[0], manager.prefetch_queries
            manager.prefetch_one(key, model)
            hit = manager.prefetch_queries == queries
            totals[hit] += visits[0] - before
            counts[hit] += 1
    return {hit: totals[hit] / counts[hit] for hit in totals}


def budgets() -> dict:
    """``{budget line name: budget}`` of the counts this script gates."""
    limits = {}
    for line in BUDGET.read_text().splitlines():
        value, _, name = line.strip().partition(" ")
        if name.strip() in BUDGET_NAMES.values():
            limits[name.strip()] = int(value)
    return limits


def main() -> int:
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
    calls, python_calls = record_calls(context, engine, requests)
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
    admit_visits = admission_visits(CacheConfig().build_cache_manager(pyramid), calls)
    gated = {
        "shard-lock visits/hit": fetch_visits[True] / manager.hits,
        "shard-lock visits/miss": fetch_visits[False] / misses,
        "shard-lock visits/admit hit": admit_visits[True],
        "shard-lock visits/admit miss": admit_visits[False],
        "python calls/request": python_calls,
    }
    limits = budgets()
    failed = False
    for name, count in gated.items():
        limit = limits.get(BUDGET_NAMES[name])
        digits = 1 if name == "python calls/request" else 3
        print(f"{name:<28} {count:.{digits}f}  (budget {limit})")
        if limit is None or round(count, digits) > limit:
            print(f"{BUDGET.name}: {BUDGET_NAMES[name]} is {count:.{digits}f}, budget {limit}", file=sys.stderr)
            failed = True
    per_pass = [
        replay(CacheConfig().build_cache_manager(pyramid), calls) / len(requests)
        for _ in range(TIMED_PASSES)
    ]
    print(f"us per request          {statistics.median(per_pass) * 1e6:.1f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
