"""Boot a local multi-process cluster, then browse it as a client.

Run with::

    python examples/cluster_serving.py [--workers 2] [--start-port 0]
                                       [--payload json|binary] [--push]
                                       [--framing lines|length]
                                       [--kill-worker]

Boots N spawn-context worker processes (each a full ForeCache socket
server over its own cache) behind the consistent-hash router, replays a
deterministic walk per session through the router over a real socket,
and prints which worker each session lives on and a summary.
``--kill-worker`` hard-kills the first session's worker halfway
through: the first request to meet the dead worker surfaces as a typed
``worker_unavailable`` error, the ring re-maps the sessions that lived
there, the retry lands on a surviving worker, sessions living elsewhere
notice nothing, and the exit code is nonzero if no typed error was seen.
"""

import argparse
import time

from repro.middleware.cluster import ProcessCluster
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.net import SocketTransport
from repro.middleware.protocol import WorkerUnavailableError
from repro.modis.dataset import MODISDataset
from repro.tiles.key import TileKey
from repro.tiles.moves import Move


def _snake_walk(grid, start: TileKey, steps: int) -> list[tuple[Move, TileKey]]:
    """Deterministic walk: zoom to the deepest level, then snake."""
    walk: list[tuple[Move, TileKey]] = []
    key = start
    while key.level < grid.deepest_level and len(walk) < steps:
        nxt = grid.apply(key, Move.ZOOM_IN_NW)
        if nxt is None:
            break
        walk.append((Move.ZOOM_IN_NW, nxt))
        key = nxt
    horizontal = Move.PAN_RIGHT
    while len(walk) < steps:
        nxt = grid.apply(key, horizontal)
        if nxt is None:
            horizontal = (
                Move.PAN_LEFT
                if horizontal == Move.PAN_RIGHT
                else Move.PAN_RIGHT
            )
            nxt = grid.apply(key, Move.PAN_DOWN) or grid.apply(
                key, Move.PAN_UP
            )
            if nxt is None:
                break
            walk.append((Move.PAN_DOWN, nxt))
        else:
            walk.append((horizontal, nxt))
        key = nxt
    return walk


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Boot a local multi-process ForeCache cluster and "
        "replay a deterministic trace through the router.",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--start-port", type=int, default=0)
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--tile-size", type=int, default=32)
    parser.add_argument("--sessions", type=int, default=2)
    parser.add_argument("--steps", type=int, default=12)
    parser.add_argument(
        "--payload", choices=("json", "binary"), default="json"
    )
    parser.add_argument(
        "--framing", choices=("lines", "length"), default="lines"
    )
    parser.add_argument("--push", action="store_true")
    parser.add_argument(
        "--kill-worker",
        action="store_true",
        help="hard-kill the first session's worker halfway through the "
        "replay and assert typed worker_unavailable errors surface cleanly",
    )
    parser.add_argument("--backend-delay", type=float, default=0.0)
    args = parser.parse_args(argv)

    config = ServiceConfig(
        prefetch=PrefetchPolicy(push="on" if args.push else "off"),
        cache=CacheConfig(backend_delay_seconds=args.backend_delay),
    )
    dataset = MODISDataset.build(
        size=args.size, tile_size=args.tile_size, days=1, seed=7
    )
    grid = dataset.pyramid.grid
    started = time.perf_counter()
    served = 0
    failures = 0
    with ProcessCluster(
        args.workers,
        config=config,
        size=args.size,
        tile_size=args.tile_size,
        start_port=args.start_port,
        framing=args.framing,
    ) as cluster:
        host, port = cluster.address
        print(
            f"cluster up: {args.workers} worker(s) on ports "
            f"{cluster.worker_ports}, router on {host}:{port}"
        )
        transport = SocketTransport(
            host,
            port,
            framing=args.framing,
            push=args.push,
            payload=args.payload,
        )
        try:
            print(
                f"negotiated: push={transport.push_enabled} "
                f"payload={transport.payload}"
            )
            ring = cluster.router.router.ring
            clients = []
            walks = []
            for index in range(args.sessions):
                session_id = f"cli-user-{index + 1}"
                clients.append(transport.connect(session_id=session_id))
                walks.append(
                    _snake_walk(grid, TileKey(0, 0, 0), args.steps)
                )
                owner = ring.owner(session_id)
                print(f"session {session_id} lives on {owner}")
            doomed = ring.owner(clients[0].session_id)
            total = sum(len(walk) for walk in walks)
            half = total // 2
            step = 0
            for position in range(max(len(w) for w in walks)):
                for client, walk in zip(clients, walks):
                    if position >= len(walk):
                        continue
                    if args.kill_worker and step == half:
                        print(f"killing {doomed} mid-replay")
                        cluster.kill_worker(int(doomed.rpartition("-")[2]))
                    move, key = walk[position]
                    try:
                        client.request(move, key)
                        served += 1
                    except WorkerUnavailableError as exc:
                        failures += 1
                        print(f"typed worker error (retrying): {exc}")
                        client.request(move, key)
                        served += 1
                    step += 1
            for client in clients:
                client.close()
        finally:
            transport.close()
    elapsed = time.perf_counter() - started
    print(
        f"served {served} requests across {args.sessions} session(s) "
        f"in {elapsed:.1f}s ({failures} typed worker error(s))"
    )
    if args.kill_worker and args.workers > 1 and failures == 0:
        print("expected at least one typed worker_unavailable error")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
