"""A multi-process cluster over a backend that can block, replayed.

Every worker of the ``ProcessCluster`` here emulates a slow DBMS
(``CacheConfig(backend_delay_seconds > 0)``), so its socket server
probes a hit on its event loop (``CacheManager.try_fetch``) and sends a
miss, with its observe/predict round, to its bridge pool.  Two sessions
each request a few tiles twice: the first pass misses, the second hits,
and every reply must be the tile requested, byte for byte.  Nothing
here reads a clock: the wall-clock figures are ``benchmarks/perf``'s
(``BENCHMARK.json``).  The whole replay waits out ≈ 0.1 s of backend
delay, far inside the router's 20 s round-trip deadline.
"""

from __future__ import annotations

import pytest

from repro.middleware.cluster import ProcessCluster
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.net import SocketTransport
from repro.modis.dataset import MODISDataset
from repro.tiles.key import TileKey

pytestmark = pytest.mark.bench

#: Fewer keys than recent-region slots, so the second pass hits.
KEYS = [TileKey(2, x, y) for x in range(2) for y in range(2)]
CONFIG = ServiceConfig(
    prefetch=PrefetchPolicy(enabled=False),
    cache=CacheConfig(recent_capacity=len(KEYS), backend_delay_seconds=0.01),
)


def test_every_reply_is_the_requested_tile_over_a_blocking_backend():
    # The world every worker builds (ProcessCluster's defaults).
    pyramid = MODISDataset.build(size=256, tile_size=32, days=1, seed=7).pyramid
    hits = []
    with ProcessCluster(workers=2, config=CONFIG) as cluster:
        for session, payload in enumerate(("json", "binary")):
            with SocketTransport(*cluster.address, payload=payload) as transport:
                client = transport.connect(session_id=f"user-{session}")
                for key in KEYS + KEYS:
                    response = client.request(None, key)
                    assert response.tile == pyramid.fetch_tile(key, charge=False)
                    hits.append(response.hit)
                client.close()
    # The first session finds its worker's cache empty; every second
    # pass finds its tiles resident, whichever worker the ring chose.
    n = len(KEYS)
    assert hits[:n] == [False] * n
    assert hits[n : 2 * n] == hits[3 * n :] == [True] * n
