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

Both connections replay ``benchmarks/perf``'s cycles
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

Usage (from the repository root, no install needed; about 5 s)::

    python experiments/wire_cost.py
"""

import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

BUDGET = ROOT / "experiments" / "scoreboard_budget.txt"
SEED = 7
SIDES = ("server", "client")
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


def build():
    """The server and two connected session stubs."""
    from launch import build_world, momentum_engine_factory, service_config
    from workloads import requests_of, wire_cycles

    from repro.middleware.connection import ClientConnection, ServerConnection, SessionStub
    from repro.middleware.net import ForeCacheSocketServer
    from repro.middleware.service import ForeCacheService

    pyramid = build_world().pyramid
    service = ForeCacheService(
        pyramid,
        service_config(push=False, sessions=2),
        engine_factory=momentum_engine_factory(pyramid.grid),
    )
    server = ForeCacheSocketServer(service, framing="length")
    clients = []
    for _ in range(2):
        core = ClientConnection("length")
        pair = Pair(server, core, ServerConnection("length", server.config.max_frame_bytes))
        core.welcome(pair.exchange(core.hello("wire-cost", payload="binary")))
        session_id, cache = core.session_opened(pair.exchange(core.open_session(None, None)))
        clients.append((pair, SessionStub(core, session_id, cache)))
    cycles = wire_cycles(pyramid.grid, SEED, len(clients))
    requests = [
        list(itertools.islice(requests_of(cycle), len(cycle))) for cycle in cycles
    ]
    return service, clients, requests


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
    counts = {side: dict.fromkeys(("src/repro", "protocol.py", "generated", "other"), 0) for side in SIDES}
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


def main() -> int:
    service, clients, requests = build()
    with service:
        replay(clients, requests)  # warm: caches, memos, tile segments
        counts, total = count_calls(clients, requests)
    limits = budgets()
    print(f"cycle   {total} requests over {len(clients)} connections, seed {SEED}, binary payload")
    print("side    src/repro (protocol.py)  generated  other   gated  (budget)")
    failed = False
    for side in SIDES:
        per = {name: value / total for name, value in counts[side].items()}
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
