#!/usr/bin/env python
"""What the wire layer costs a ``socket_binary`` request, in Python calls.

Builds ``socket_binary``'s server in memory — the 512 px bench world, a
``ForeCacheService`` with the momentum engine, ``k=5`` and
``share_budget`` over two sessions, a ``ForeCacheSocketServer`` with
length framing — and two clients that negotiate the binary payload.
No socket and no event loop: each request is framed by the client's
:class:`~repro.middleware.connection.ClientConnection`, cut and admitted
by the server's :class:`~repro.middleware.connection.ServerConnection`,
served by the server's own handler, framed back, and read and turned
into the in-process response by the client's core and session stub.
So the counts do not depend on how the bytes travel.

The third side is ``cluster_binary``'s router: a ``TileServiceRouter``
over two such servers, the same two clients.  The router's client-side
connections (:class:`~repro.middleware.net._ServedConnection`) and its
four backend links run as they do over TCP, each on a fake transport
that keeps what is written until this script moves it; each message's
bytes arrive in one piece.  The handshakes and opens run as the
router's tasks on an event loop that opens no socket; the counted
requests are relayed with the loop stopped — a relay that needed a
task would fail.  Only the router's frames are counted there.

Every pair of connections replays ``benchmarks/perf``'s cycles
(``wire_cycles(grid, 7, 2)``), one request each in turn: a first pass
warms every cache and memo, a second is counted.  For each side it
prints the ``sys.setprofile`` ``call`` events per request, by where the
frame's code lives: ``src/repro`` (and, of those, ``protocol.py``),
code generated at run time (``co_filename`` ``<string>``: dataclass
``__init__`` methods, the wire codecs) and everything else (the
standard library, numpy, ...).  ``src/repro`` plus generated frames is
the *gated* count, held to the ``wire calls ...`` lines of
``experiments/scoreboard_budget.txt``; the rest is printed only.  A
profiler already set (``experiments/calls``' recorder) is restored.

Exit status 1 when a side's gated count exceeds its budget.

Usage (from the repository root, no install needed; about 3 s)::

    python experiments/wire_cost.py
"""

import asyncio
import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

BUDGET = ROOT / "experiments" / "scoreboard_budget.txt"
SEED = 7
SIDES = ("server", "client", "router")
#: The budget line of each side's gated count.
BUDGET_NAMES = {side: f"wire calls per request, {side}" for side in SIDES}

_SRC = str(ROOT / "src" / "repro")
_PROTOCOL = str(ROOT / "src" / "repro" / "middleware" / "protocol.py")
_HERE = str(Path(__file__).resolve())


def _place(filename: str) -> "tuple[str, ...]":
    """The counters a frame of code from ``filename`` adds to."""
    if filename == _HERE:
        return ()  # this script's own driving frames
    if filename == "<string>":
        return ("generated",)
    if filename.startswith(_SRC):
        return ("src/repro", "protocol.py") if filename == _PROTOCOL else ("src/repro",)
    return ("other",)


def _run(coroutine):
    """Run a handler that never suspends (an in-memory backend) to its
    result, without an event loop."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    raise RuntimeError("a handler suspended: the backend can block")


class Pair:
    """One client connection and its server side, joined by a function
    call instead of a socket."""

    def __init__(self, server, client_core, server_core) -> None:
        self.server = server
        self.client = client_core
        self.conn = server_core

    def serve(self, data: bytes) -> bytes:
        """The server's half: everything the serve loop does with one
        read, less the socket."""
        server, conn = self.server, self.conn
        out = []
        for frame in conn.receive(data):
            message = conn.admit(frame)
            handler = getattr(server, server._HANDLERS[type(message)])
            out.extend(map(conn.send, _run(handler(message, conn))))
        return b"".join(out)

    def exchange(self, message, side=None):
        """One request/reply; ``side[0]`` names who is running."""
        side = side if side is not None else [None]
        side[0] = "client"
        data = self.client.begin(message)
        side[0] = "server"
        data = self.serve(data)
        side[0] = "client"
        self.client.receive(data)
        return self.client.reply()


def socket_server(pyramid):
    """``socket_binary``'s server, not listening."""
    from launch import momentum_engine_factory, service_config

    from repro.middleware.net import ForeCacheSocketServer
    from repro.middleware.service import ForeCacheService

    service = ForeCacheService(
        pyramid,
        service_config(push=False, sessions=2),
        engine_factory=momentum_engine_factory(pyramid.grid),
    )
    return ForeCacheSocketServer(service, framing="length")


def cycle_requests(grid, connections: int) -> list:
    from workloads import requests_of, wire_cycles

    return [
        list(itertools.islice(requests_of(cycle), len(cycle)))
        for cycle in wire_cycles(grid, SEED, connections)
    ]


def build():
    """The server and two connected session stubs."""
    from launch import build_world

    from repro.middleware.connection import ClientConnection, ServerConnection, SessionStub

    pyramid = build_world().pyramid
    server = socket_server(pyramid)
    service = server.service
    clients = []
    for _ in range(2):
        core = ClientConnection("length")
        pair = Pair(server, core, ServerConnection("length", server.config.max_frame_bytes))
        core.welcome(pair.exchange(core.hello("wire-cost", payload="binary")))
        session_id, cache = core.session_opened(pair.exchange(core.open_session(None, None)))
        clients.append((pair, SessionStub(core, session_id, cache)))
    return service, clients, cycle_requests(pyramid.grid, len(clients))


class Pipe:
    """A transport that keeps what is written until :meth:`take`."""

    def __init__(self) -> None:
        self.sent = bytearray()

    def write(self, data: bytes) -> None:
        self.sent += data

    def writelines(self, chunks) -> None:
        for chunk in chunks:
            self.sent += chunk

    def take(self) -> bytes:
        data = bytes(self.sent)
        self.sent.clear()
        return data

    def close(self) -> None:
        pass


class Network:
    """The router's backend links, each joined to a worker's serve loop
    by a :class:`Pipe`; ``workers`` maps a port to its server."""

    def __init__(self, workers: dict) -> None:
        self.workers = workers
        self.links: list = []  # (link, its pipe, the worker's Pair)

    async def dial(self, protocol_factory, host, port):
        """``loop.create_connection`` for the router's links."""
        from repro.middleware.connection import ServerConnection

        worker = self.workers[port]
        link, pipe = protocol_factory(), Pipe()
        link.connection_made(pipe)
        conn = ServerConnection(worker.framing, worker.config.max_frame_bytes)
        self.links.append((link, pipe, Pair(worker, None, conn)))
        return pipe, link

    def pump(self, side) -> bool:
        """Carry every link's request to its worker and the reply back;
        False when no link had anything to carry."""
        moved = False
        for link, pipe, worker in self.links:
            if pipe.sent:
                side[0] = "worker"
                data = worker.serve(pipe.take())
                side[0] = "router"
                link.data_received(data)
                moved = True
        return moved

    async def until(self, done) -> None:
        """Carry bytes and let the loop run until ``done()``."""
        while not done():
            if not self.pump([None]):
                await asyncio.sleep(0)


class Routed:
    """One client connection through the router, with ``Pair``'s
    interface: the client core and the router's side of the connection."""

    def __init__(self, router, network: Network, client_core) -> None:
        from repro.middleware.net import _ServedConnection

        self.client = client_core
        self.network = network
        self.pipe = Pipe()
        self.served = _ServedConnection(router)
        self.served.connection_made(self.pipe)

    def exchange(self, message, side=None):
        side = side if side is not None else [None]
        side[0] = "client"
        data = self.client.begin(message)
        side[0] = "router"
        self.served.data_received(data)
        while not self.pipe.sent:
            if not self.network.pump(side):
                raise RuntimeError("the router waits on a task")
        side[0] = "client"
        self.client.receive(self.pipe.take())
        return self.client.reply()

    async def exchange_on_loop(self, message):
        """:meth:`exchange` for a message the router serves as a task."""
        self.served.data_received(self.client.begin(message))
        await self.network.until(lambda: self.pipe.sent)
        self.client.receive(self.pipe.take())
        return self.client.reply()


class _Listener:
    """What ``loop.create_server`` returns, for a router that listens on
    nothing."""

    sockets = [SimpleNamespace(getsockname=lambda: ("memory", 0))]

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def build_router():
    """The router over two servers, and two session stubs connected
    through it; the loop its tasks ran on, stopped."""
    from launch import build_world, service_config

    from repro.middleware.cluster import TileServiceRouter
    from repro.middleware.connection import ClientConnection, SessionStub

    pyramid = build_world().pyramid
    workers = {index: socket_server(pyramid) for index in range(2)}
    router = TileServiceRouter(
        {f"worker-{index}": ("memory", index) for index in workers},
        service_config(push=False, sessions=2),
        framing="length",
    )
    network = Network(workers)
    loop = asyncio.new_event_loop()
    clients = []

    async def listen(*args, **kwargs):
        return _Listener()

    async def connect():
        loop.create_connection = network.dial
        loop.create_server = listen
        started = asyncio.ensure_future(router.start())  # dials its probes
        await network.until(started.done)
        started.result()
        for _ in range(2):
            core = ClientConnection("length")
            route = Routed(router, network, core)
            core.welcome(await route.exchange_on_loop(core.hello("wire-cost", payload="binary")))
            reply = await route.exchange_on_loop(core.open_session(None, None))
            session_id, cache = core.session_opened(reply)
            clients.append((route, SessionStub(core, session_id, cache)))

    loop.run_until_complete(connect())
    return (loop, router, workers), clients, cycle_requests(pyramid.grid, len(clients))


def replay(clients, requests, side=None) -> int:
    """One pass: the connections' requests one each in turn.  Returns
    the number of requests."""
    side = side if side is not None else [None]
    count = 0
    for turn in itertools.zip_longest(*requests):
        for (pair, stub), request in zip(clients, turn):
            if request is None:
                continue
            side[0] = "client"
            message, held = stub.request(*request)
            stub.response(pair.exchange(message, side))
            count += 1
    return count


def count_calls(clients, requests) -> "tuple[dict, int]":
    """``{side: {counter: call events}}`` of one pass, and its requests."""
    counts = {
        side: dict.fromkeys(("src/repro", "protocol.py", "generated", "other"), 0)
        for side in (*SIDES, "worker")
    }
    side = [None]
    places = {}

    def hook(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            place = places.get(filename)
            if place is None:
                place = places[filename] = _place(filename)
            for counter in place:
                counts[side[0]][counter] += 1

    previous = sys.getprofile()  # experiments/calls' recorder, if on
    sys.setprofile(hook)
    try:
        total = replay(clients, requests, side)
    finally:
        sys.setprofile(previous)
    return counts, total


def budgets() -> dict:
    limits = {}
    for line in BUDGET.read_text().splitlines():
        value, _, name = line.strip().partition(" ")
        if name.strip() in BUDGET_NAMES.values():
            limits[name.strip()] = int(value)
    return limits


def count_routed():
    """The router's counts of one warm pass, and its requests."""
    (loop, router, workers), clients, requests = build_router()
    try:
        replay(clients, requests)  # warm
        return count_calls(clients, requests)
    finally:
        for worker in workers.values():
            worker.service.close()
        loop.close()


def main() -> int:
    service, clients, requests = build()
    with service:
        replay(clients, requests)  # warm: caches, memos, tile segments
        counts, total = count_calls(clients, requests)
    routed, relayed = count_routed()
    counts["router"] = routed["router"]
    limits = budgets()
    print(f"cycle   {total} requests over {len(clients)} connections, seed {SEED}, binary payload")
    print("side    src/repro (protocol.py)  generated  other   gated  (budget)")
    failed = False
    for side in SIDES:
        per = {
            name: value / (relayed if side == "router" else total)
            for name, value in counts[side].items()
        }
        gated = per["src/repro"] + per["generated"]
        limit = limits.get(BUDGET_NAMES[side])
        print(
            f"{side:<7} {per['src/repro']:>9.1f} ({per['protocol.py']:>9.1f})"
            f"  {per['generated']:>9.1f}  {per['other']:>5.1f}  {gated:>6.1f}  ({limit})"
        )
        if limit is None or gated > limit:
            print(f"{BUDGET.name}: {BUDGET_NAMES[side]} is {gated:.1f}, budget {limit}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
