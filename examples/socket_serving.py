"""Serve tiles over a real TCP socket, then browse them as a client.

Run with::

    python examples/socket_serving.py [--framing lines|length] [--port 0]
                                      [--push] [--payload json|binary|mixed]
                                      [--fidelity off|progressive]

Starts the ForeCache socket server on a loopback port (ephemeral by
default), connects two clients — each a ``SocketTransport`` with its
own connection — replays a short browsing walk through each, and shuts
the server down gracefully.  Every byte crosses
a real socket: framed JSON requests in, framed JSON tile payloads out.
With ``--push`` both sides negotiate continuous push prefetch: the
server streams predicted tiles into each client's push cache and
requests those tiles answer locally, without touching the wire.
``--payload binary`` has both clients negotiate the dense binary tile
encoding (raw array bytes instead of JSON float lists — several times
fewer bytes per tile); ``--payload mixed`` keeps the first client on
JSON and the second on binary, on the *same* server — the encoding is
a per-connection capability.  ``--fidelity progressive``
turns on the multi-resolution ladder: pushed tiles arrive as coarse
frames first and refine in place on leftover round budget, and under
overload the server answers from a cached pyramid ancestor at reduced
fidelity instead of queueing behind the backend.
"""

import argparse
import os

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.client import BrowsingSession
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.net import SocketTransport, ThreadedSocketServer
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


def browse(name, address, pyramid, args, payload: str) -> None:
    """Walk :data:`WALK` over one new connection, printing each move's
    latency and where its tile came from."""
    with SocketTransport(
        *address,
        pyramid=pyramid,
        framing=args.framing,
        push=args.push,
        payload=payload,
    ) as transport:
        print(
            f"{name} client: negotiated v{transport.server_version} "
            f"with {transport.server_name!r}, "
            f"{transport.payload} payloads"
            + (" (push enabled)" if transport.push_enabled else "")
        )
        conn = transport.connect(session_id=f"{name}-browser")
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
            # Decided after the move: until the move has collected the
            # previous round, the cache lacks that round's pushes.
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
            f"({transport.payload} payloads)\n"
        )


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
        "(first client json, second client binary)",
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
    payloads = {
        "json": ("json", "json"),
        "binary": ("binary", "binary"),
        "mixed": ("json", "binary"),
    }[args.payload]

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

        # One server, two connections: the second walk's tiles come from
        # the cache the first one warmed.
        for name, payload in zip(("first", "second"), payloads):
            browse(name, server.address, pyramid, args, payload)
    print("server drained and stopped cleanly")


if __name__ == "__main__":
    main()
