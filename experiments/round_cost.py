#!/usr/bin/env python
"""What a hybrid prediction round computes, and what it costs.

Boots the context ``facade_study`` serves from (512 px, 6 users), trains
the paper's two-level engine on every user but 1 and 2, and replays
users 1 and 2's study traces in the order seed 7 shuffles them into
(``facade_study``'s request cycle: 273 requests) three times:
``engine.reset()`` at the start of every trace, then ``engine.observe``
and ``engine.predict(5)`` per request, as a ``k=5`` service session
does.  For each pass it prints how many SB scorings (Algorithm 3 over
one round's candidates and ROI) and AB rankings (one Markov ranking of
a round's last moves and tile) the models computed rather than
remembered.  The counts are exact.  Then it prints the median over
five more passes of the microseconds per ``engine.predict``.  CI prints
it in the ``test`` job's summary; nothing gates on it.

Usage (from the repository root, no install needed)::

    python experiments/round_cost.py
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
COUNTED_PASSES = 3
TIMED_PASSES = 5


def replay(engine, requests) -> float:
    """One pass over ``requests``; seconds spent in ``engine.predict``."""
    spent = 0.0
    for move, tile in requests:
        if move is None:
            engine.reset()
        engine.observe(move, tile)
        start = time.perf_counter()
        engine.predict(K)
        spent += time.perf_counter() - start
    return spent


def main() -> None:
    import repro.recommenders.signature_based as sb_module
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import hybrid_factory
    from repro.recommenders.markov import MarkovRecommender

    calls = {"sb": 0, "ab": 0}

    def counted(name, inner):
        def run(*args):
            calls[name] += 1
            return inner(*args)
        return run

    sb_module.score_pair_distances = counted("sb", sb_module.score_pair_distances)
    MarkovRecommender.move_distribution = counted(
        "ab", MarkovRecommender.move_distribution
    )

    context = ExperimentContext.build(**CONTEXT)
    traces = context.study.traces
    engine = hybrid_factory(context)(
        [t for t in traces if t.user_id not in HELD_OUT_USERS]
    )
    held_out = [t for t in traces if t.user_id in HELD_OUT_USERS]
    random.Random(SEED).shuffle(held_out)
    requests = [(r.move, r.tile) for trace in held_out for r in trace.requests]

    print(f"cycle                 {len(requests)} requests, seed {SEED}, k={K}")
    for index in range(1, COUNTED_PASSES + 1):
        before = dict(calls)
        replay(engine, requests)
        print(
            f"pass {index} computed      SB scorings {calls['sb'] - before['sb']}"
            f"  AB rankings {calls['ab'] - before['ab']}"
        )
    per_pass = [replay(engine, requests) / len(requests) for _ in range(TIMED_PASSES)]
    print("us per engine.predict ", round(statistics.median(per_pass) * 1e6, 1))


if __name__ == "__main__":
    main()
