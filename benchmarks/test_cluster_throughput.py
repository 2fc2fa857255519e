"""Acceptance bench for the multi-process cluster: aggregate
throughput must scale from one worker to four.

The workers are real spawned processes, each paying a real (small)
backend delay per cache miss, so serving capacity is genuinely bounded
per process; 32 concurrent client threads drive the router hard
enough that a single worker saturates.  Four workers split the
sessions via the consistent-hash ring and serve them in parallel —
aggregate requests/second must strictly exceed the 1-worker figure on
both the convergent and flash-crowd workloads.  (A tile several users
share is now loaded once per worker hosting one of them: the convergent
workload, all shared tiles, scales less than it did when the ring
placed tiles — README "Cluster mode" has both sets of figures.)
"""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from repro.middleware.cluster import ProcessCluster
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.net import SocketTransport
from repro.modis.dataset import MODISDataset
from repro.users.convergent import convergent_walks
from repro.users.flashcrowd import flash_crowd_walks

pytestmark = pytest.mark.bench

#: More clients than one worker has bridge threads (8): each client waits
#: for its reply, so with fewer a single worker overlaps every miss and
#: there is nothing for more workers to add.
NUM_CLIENTS = 32
REQUESTS_PER_CLIENT = 50
#: Real per-miss backend latency inside each worker process.  With the
#: recent cache starved to one slot misses are frequent, so a worker's
#: miss-serving ceiling is (its 8 bridge threads / delay), ≈ 200 req/s —
#: below what one process's CPU serves — and adding workers adds real
#: capacity.  The clients negotiate binary payloads — with
#: JSON tiles the client threads' decode work (one GIL) becomes
#: the bottleneck and masks the cluster's parallelism entirely.
BACKEND_DELAY_SECONDS = 0.04

CONFIG = ServiceConfig(
    prefetch=PrefetchPolicy(enabled=False),
    cache=CacheConfig(
        recent_capacity=1, backend_delay_seconds=BACKEND_DELAY_SECONDS
    ),
)


@pytest.fixture(scope="module")
def walks():
    # Same 256px world the worker processes build (size/tile_size/seed
    # match ProcessCluster defaults), so the walks are valid tile keys.
    grid = MODISDataset.build(size=256, tile_size=32, days=1, seed=7).pyramid.grid
    return {
        "convergent": convergent_walks(
            grid, num_users=NUM_CLIENTS, leg=3, dwell=2
        ),
        "flash_crowd": flash_crowd_walks(
            grid, num_users=NUM_CLIENTS, bursts=2, wander=4, dwell=2, seed=7
        ),
    }


def client_requests(walk):
    """A fixed-length request stream cycling one walk.

    The wrap-around step sends no move (the jump back to the walk's
    start is not a legal pan), which the protocol treats like a
    session-opening request.
    """
    stream = []
    previous = None
    for move, key in itertools.islice(
        itertools.cycle(walk), REQUESTS_PER_CLIENT
    ):
        stream.append((None if previous is None else move, key))
        previous = key
    return stream


def aggregate_rps(workers: int, walks: list) -> float:
    """Total requests/second across NUM_CLIENTS threads, wall clock."""
    with ProcessCluster(workers=workers, config=CONFIG) as cluster:
        host, port = cluster.address
        barrier = threading.Barrier(NUM_CLIENTS + 1)
        done = [0] * NUM_CLIENTS
        errors: list[BaseException] = []

        def drive(index: int) -> None:
            try:
                with SocketTransport(host, port, payload="binary") as transport:
                    client = transport.connect(session_id=f"user-{index}")
                    stream = client_requests(walks[index % len(walks)])
                    barrier.wait()
                    for move, key in stream:
                        client.request(move, key)
                        done[index] += 1
                    client.close()
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=drive, args=(i,), daemon=True)
            for i in range(NUM_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join(timeout=120)
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]
        total = sum(done)
        assert total == NUM_CLIENTS * REQUESTS_PER_CLIENT
        return total / elapsed


class TestClusterThroughputScaling:
    @pytest.mark.parametrize("workload", ("convergent", "flash_crowd"))
    def test_four_workers_beat_one(self, walks, workload):
        rps_1 = aggregate_rps(1, walks[workload])
        rps_4 = aggregate_rps(4, walks[workload])
        print(
            f"\n{workload}: 1-worker {rps_1:.0f} rps | "
            f"4-worker {rps_4:.0f} rps ({rps_4 / rps_1:.2f}x)"
        )
        assert rps_4 > rps_1
