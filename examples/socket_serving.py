"""Serve tiles over a real TCP socket, then browse them as a client.

Run with::

    python examples/socket_serving.py [--framing lines|length] [--port 0]
                                      [--push] [--payload json|binary|mixed]
                                      [--fidelity off|progressive]

Starts the ForeCache socket server on a loopback port (ephemeral by
default), connects both clients — the blocking ``SocketTransport`` and
the asyncio ``AsyncSocketTransport`` — replays a short browsing walk
through each, and shuts the server down gracefully.  Every byte crosses
a real socket: framed JSON requests in, framed JSON tile payloads out.
With ``--push`` both sides negotiate continuous push prefetch: the
server streams predicted tiles into each client's push cache and
requests those tiles answer locally, without touching the wire.
``--payload binary`` has both clients negotiate the dense binary tile
encoding (raw array bytes instead of JSON float lists — several times
fewer bytes per tile); ``--payload mixed`` keeps the sync client on
JSON and the async client on binary, on the *same* server — the
encoding is a per-connection capability.  ``--fidelity progressive``
turns on the multi-resolution ladder: pushed tiles arrive as coarse
frames first and refine in place on leftover round budget, and under
overload the server answers from a cached pyramid ancestor at reduced
fidelity instead of queueing behind the backend.
"""

import argparse
import asyncio
import os

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.client import AsyncBrowsingSession, BrowsingSession
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.net import (
    AsyncSocketTransport,
    SocketTransport,
    ThreadedSocketServer,
)
from repro.modis.dataset import MODISDataset
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.moves import Move

WALK = [
    Move.ZOOM_IN_NW,
    Move.ZOOM_IN_SE,
    Move.PAN_RIGHT,
    Move.PAN_DOWN,
    Move.ZOOM_OUT,
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--size", type=int, default=int(os.environ.get("REPRO_SIZE", "512"))
    )
    parser.add_argument("--framing", choices=("lines", "length"), default="lines")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--push",
        action="store_true",
        help="negotiate continuous push prefetch on both clients",
    )
    parser.add_argument(
        "--payload",
        choices=("json", "binary", "mixed"),
        default="json",
        help="tile payload encoding: json, binary, or mixed "
        "(sync client json, async client binary)",
    )
    parser.add_argument(
        "--fidelity",
        choices=("off", "progressive"),
        default="off",
        help="progressive multi-resolution fidelity: coarse push frames "
        "refined on leftover budget, degraded ancestor carves under "
        "overload (off = bit-identical to the pre-fidelity stack)",
    )
    args = parser.parse_args()
    sync_payload = "binary" if args.payload == "binary" else "json"
    async_payload = "binary" if args.payload in ("binary", "mixed") else "json"

    print(f"building a {args.size}px world...")
    dataset = MODISDataset.build(size=args.size, tile_size=32, days=1, seed=7)
    pyramid = dataset.pyramid

    def engine_factory() -> PredictionEngine:
        model = MomentumRecommender()
        return PredictionEngine(
            pyramid.grid, {model.name: model}, SingleModelStrategy(model.name)
        )

    config = ServiceConfig(
        prefetch=PrefetchPolicy(
            k=5,
            push="on" if args.push else "off",
            fidelity=args.fidelity,
        ),
        bind_port=args.port,
    )
    with ThreadedSocketServer(
        pyramid,
        config,
        engine_factory=engine_factory,
        framing=args.framing,
    ) as server:
        host, port = server.address
        print(f"serving on {host}:{port} ({args.framing} framing)\n")

        # --- blocking client ------------------------------------------
        with SocketTransport(
            host,
            port,
            pyramid=pyramid,
            framing=args.framing,
            push=args.push,
            payload=sync_payload,
        ) as transport:
            print(
                f"sync client: negotiated v{transport.server_version} "
                f"with {transport.server_name!r}, "
                f"{transport.payload} payloads"
                + (" (push enabled)" if transport.push_enabled else "")
            )
            conn = transport.connect(session_id="sync-browser")
            session = BrowsingSession(conn)
            response = session.start()
            print(f"  start  {str(session.current):>8}  "
                  f"{response.latency_seconds * 1000:7.1f} ms")
            for move in WALK:
                if move not in session.available_moves:
                    continue
                cache = conn.push_cache
                local_hits = cache.hits if cache is not None else 0
                response = session.move(move)
                # Decided after the move: until the move has collected
                # the previous round, the cache lacks that round's pushes.
                pushed = cache is not None and cache.hits > local_hits
                source = "push" if pushed else (
                    "cache" if response.hit else "DBMS"
                )
                print(f"  {move.value:<12} {str(session.current):>8}  "
                      f"{response.latency_seconds * 1000:7.1f} ms  ({source})")
            if conn.push_cache is not None:
                print(
                    f"  push cache: {conn.push_cache.hits} local hits, "
                    f"{len(conn.push_cache)} tiles held"
                )
            conn.close()
            print(
                f"  wire: {transport.bytes_received} bytes received "
                f"({transport.payload} payloads)"
            )

        # --- asyncio client -------------------------------------------
        async def browse_async() -> tuple[int, int, str]:
            async with await AsyncSocketTransport.open(
                host,
                port,
                pyramid=pyramid,
                framing=args.framing,
                payload=async_payload,
            ) as transport:
                conn = await transport.connect(session_id="async-browser")
                session = AsyncBrowsingSession(conn)
                await session.start()
                hits = 0
                for move in WALK:
                    if move not in session.available_moves:
                        continue
                    response = await session.move(move)
                    hits += response.hit
                await conn.close()
                return hits, transport.bytes_received, transport.payload

        hits, wire_bytes, negotiated = asyncio.run(browse_async())
        print(f"\nasync client replayed the walk too ({hits} cache hits "
              "— the sync client warmed the shared cache)")
        print(
            f"  wire: {wire_bytes} bytes received ({negotiated} payloads)"
        )
    print("server drained and stopped cleanly")


if __name__ == "__main__":
    main()
