"""Loopback socket throughput vs. the in-process facade.

The transport-boundary cost made physical: the same seeded random walks
are replayed by concurrent sessions through (a) the facade's own
session handles — no wire at all — and (b) the real TCP socket
transport over loopback, in both framings.  Each run reports
wall-clock p50/p95 request latency and aggregate requests/second.

The socket path pays serialization *plus* kernel round trips, so it
cannot beat in-process; the benchmark asserts it stays within a fixed
multiple of the facade's own request time (loopback framing overhead
must stay transport-bounded, not service-bounded) and that every front
end serves the identical request count.  Scale down with
``REPRO_USERS``.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.latency import nearest_rank_percentile as percentile
from repro.middleware.net import SocketTransport, ThreadedSocketServer
from repro.middleware.service import ForeCacheService
from repro.modis.dataset import MODISDataset
from repro.recommenders.momentum import MomentumRecommender

pytestmark = pytest.mark.bench

NUM_USERS = max(2, min(8, int(os.environ.get("REPRO_USERS", "4"))))
STEPS_PER_USER = 40
CONFIG = ServiceConfig(
    prefetch=PrefetchPolicy(k=5),
)
TRANSPORTS = ("facade", "socket-lines", "socket-length")


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


@pytest.fixture(scope="module")
def world() -> MODISDataset:
    return MODISDataset.build(size=512, tile_size=32, days=1, seed=7)


def random_walk(session, steps: int, seed: int) -> list[float]:
    """Drive one session on a seeded random walk; returns wall seconds
    per request."""
    rng = random.Random(seed)
    waits = []
    start = time.perf_counter()
    session.start()
    waits.append(time.perf_counter() - start)
    for _ in range(steps):
        moves = session.available_moves
        if not moves:
            break
        move = rng.choice(moves)
        start = time.perf_counter()
        session.move(move)
        waits.append(time.perf_counter() - start)
    return waits


def run_transport(world: MODISDataset, kind: str):
    """Replay NUM_USERS concurrent walks; returns (waits, request_count,
    wall_seconds)."""
    from repro.middleware.client import BrowsingSession

    pyramid = world.pyramid
    all_waits: list[list[float]] = [[] for _ in range(NUM_USERS)]
    errors: list[BaseException] = []

    def drive(connect):
        def body(index: int) -> None:
            try:
                conn = connect(index)
                all_waits[index] = random_walk(
                    BrowsingSession(conn), STEPS_PER_USER, seed=1000 + index
                )
                conn.close()
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=body, args=(i,))
            for i in range(NUM_USERS)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - begin

    if kind == "facade":
        with ForeCacheService(
            pyramid, CONFIG, engine_factory=lambda: make_engine(pyramid.grid)
        ) as service:
            wall = drive(lambda index: service.open_session())
    else:
        framing = "length" if kind.endswith("length") else "lines"
        with ThreadedSocketServer(
            pyramid,
            CONFIG,
            engine_factory=lambda: make_engine(pyramid.grid),
            framing=framing,
        ) as server:
            transports = []

            def connect(index):
                transport = SocketTransport(
                    *server.address, pyramid=pyramid, framing=framing
                )
                transports.append(transport)
                return transport.connect()

            wall = drive(connect)
            for transport in transports:
                transport.close()
    assert errors == []
    waits = [w for per_user in all_waits for w in per_user]
    return waits, len(waits), wall


def test_loopback_socket_throughput(world, benchmark):
    results = {}
    for kind in TRANSPORTS:
        waits, count, wall = run_transport(world, kind)
        results[kind] = {
            "requests": count,
            "p50_ms": percentile(waits, 0.50) * 1000.0,
            "p95_ms": percentile(waits, 0.95) * 1000.0,
            "rps": count / wall if wall else float("inf"),
        }

    print("\ntransport        requests   p50(ms)   p95(ms)     req/s")
    for kind, row in results.items():
        print(
            f"{kind:<16} {row['requests']:>8} {row['p50_ms']:>9.3f} "
            f"{row['p95_ms']:>9.3f} {row['rps']:>9.0f}"
        )

    # Identical walks on every transport serve identical request counts.
    counts = {row["requests"] for row in results.values()}
    assert len(counts) == 1
    # Loopback overhead stays transport-bounded.  A facade request is
    # ~0.2 ms of pure Python; a loopback round trip is ~1 ms alone and
    # ~10 ms (60x) when the client threads and the server's loop thread
    # share one core, each hand-off waiting out the 5 ms GIL switch
    # interval.  250x leaves room for that and for CI jitter, and is
    # still several times tighter than the envelope this replaced (25x
    # of an in-process JSON round trip that itself cost 15-85x the
    # facade).
    baseline = max(results["facade"]["p50_ms"], 0.05)
    for kind in ("socket-lines", "socket-length"):
        assert results[kind]["p50_ms"] <= baseline * 250.0, results

    # Time one representative socket round trip for the benchmark table.
    pyramid = world.pyramid
    with ThreadedSocketServer(
        pyramid, CONFIG, engine_factory=lambda: make_engine(pyramid.grid)
    ) as server:
        with SocketTransport(*server.address, pyramid=pyramid) as transport:
            conn = transport.connect()
            root = pyramid.grid.root
            benchmark.pedantic(
                lambda: conn.request(None, root),
                rounds=30,
                iterations=1,
            )
            conn.close()


# ----------------------------------------------------------------------
# negotiated binary payloads vs. the JSON wire
# ----------------------------------------------------------------------
def run_payload_walk(
    world: MODISDataset,
    payload: str,
    clients: int = NUM_USERS,
    steps: int = STEPS_PER_USER,
):
    """Replay seeded walks over loopback with one payload encoding.

    Returns ``(waits, requests, wall_seconds, bytes_received)`` where
    ``bytes_received`` is every server->client byte that crossed the
    socket, summed over all clients (the transports' always-on wire
    counters).
    """
    from repro.middleware.client import BrowsingSession

    pyramid = world.pyramid
    all_waits: list[list[float]] = [[] for _ in range(clients)]
    received = [0] * clients
    errors: list[BaseException] = []

    with ThreadedSocketServer(
        pyramid,
        CONFIG,
        engine_factory=lambda: make_engine(pyramid.grid),
        framing="length",
    ) as server:

        def body(index: int) -> None:
            try:
                with SocketTransport(
                    *server.address,
                    pyramid=pyramid,
                    framing="length",
                    payload=payload,
                ) as transport:
                    assert transport.payload == payload
                    conn = transport.connect()
                    all_waits[index] = random_walk(
                        BrowsingSession(conn), steps, seed=1000 + index
                    )
                    conn.close()
                    received[index] = transport.bytes_received
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=body, args=(i,)) for i in range(clients)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begin
    assert errors == []
    waits = [w for per_user in all_waits for w in per_user]
    return waits, len(waits), wall, sum(received)


def test_binary_payload_beats_json(world, benchmark):
    """Equal workload, both encodings: binary must strictly win on both
    bytes-per-tile and median latency (it ships raw array bytes instead
    of ~70 KB of JSON float lists per tile)."""
    results = {}
    for payload in ("json", "binary"):
        waits, count, wall, received = run_payload_walk(world, payload)
        results[payload] = {
            "requests": count,
            "p50_ms": percentile(waits, 0.50) * 1000.0,
            "p95_ms": percentile(waits, 0.95) * 1000.0,
            "rps": count / wall if wall else float("inf"),
            "bytes_per_tile": received / count,
        }

    print("\npayload   requests   p50(ms)   p95(ms)     req/s   bytes/tile")
    for payload, row in results.items():
        print(
            f"{payload:<9} {row['requests']:>7} {row['p50_ms']:>9.3f} "
            f"{row['p95_ms']:>9.3f} {row['rps']:>9.0f} "
            f"{row['bytes_per_tile']:>12.0f}"
        )

    # Identical seeded walks serve identical request counts.
    assert results["json"]["requests"] == results["binary"]["requests"]
    # The headline claims, both strict: fewer wire bytes per tile AND a
    # better median round trip at the same workload.
    assert (
        results["binary"]["bytes_per_tile"]
        < results["json"]["bytes_per_tile"]
    ), results
    assert results["binary"]["p50_ms"] < results["json"]["p50_ms"], results

    # One representative binary round trip for the benchmark table.
    pyramid = world.pyramid
    with ThreadedSocketServer(
        pyramid, CONFIG, engine_factory=lambda: make_engine(pyramid.grid)
    ) as server:
        with SocketTransport(
            *server.address, pyramid=pyramid, payload="binary"
        ) as transport:
            conn = transport.connect()
            root = pyramid.grid.root
            benchmark.pedantic(
                lambda: conn.request(None, root),
                rounds=30,
                iterations=1,
            )
            conn.close()


SCALING_CLIENTS = (1, 8, 64)


def test_concurrent_connection_scaling(world):
    """The scaling curve: 1 -> 8 -> 64 concurrent binary connections on
    one server, fixed total request volume, must all complete with every
    request served (the native-async hit path keeps the loop free)."""
    rows = {}
    for clients in SCALING_CLIENTS:
        steps = max(2, 128 // clients)
        waits, count, wall, received = run_payload_walk(
            world, "binary", clients=clients, steps=steps
        )
        rows[clients] = {
            "requests": count,
            "p50_ms": percentile(waits, 0.50) * 1000.0,
            "p95_ms": percentile(waits, 0.95) * 1000.0,
            "rps": count / wall if wall else float("inf"),
        }
        # Every client finished its whole walk: start + one per step.
        assert count == clients * (steps + 1), rows

    print("\nclients   requests   p50(ms)   p95(ms)     req/s")
    for clients, row in rows.items():
        print(
            f"{clients:>7} {row['requests']:>10} {row['p50_ms']:>9.3f} "
            f"{row['p95_ms']:>9.3f} {row['rps']:>9.0f}"
        )
    # Concurrency must scale throughput, not collapse it: 64 clients
    # must clear more requests per second than a single connection
    # (loose on purpose — CI jitter — but a serialized loop would fail).
    assert rows[64]["rps"] > rows[1]["rps"], rows
