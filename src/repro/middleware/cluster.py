"""Multi-process tile service: consistent-hash router over socket workers.

Topology
--------

::

                          +----------------------+
        clients  ----->   |   TileServiceRouter  |   (wire protocol,
       (unchanged         |  - hello/welcome     |    unchanged)
        protocol)         |  - session ring      |
                          +----+----------+-----+
                               |          |
                     backend   |          |   backend
                     links     v          v   links
                     +------------+  +------------+
                     | worker 0   |  | worker 1   |  ... worker N-1
                     | ForeCache  |  | ForeCache  |
                     | SocketSrv  |  | SocketSrv  |
                     +------------+  +------------+

Each worker is today's :class:`~repro.middleware.net.ForeCacheSocketServer`
— full service stack, own cache, own hotspot registry — serving a
partition of the *sessions*.  The paper's mechanism is one loop per
user — recent moves, a prediction, a prefetch into the cache the user's
next request is served from — so the router keeps that loop in one
place: every message of a session goes to the worker the session lives
on, whose engine therefore sees the whole walk and whose prefetches wait
where the next request will land.  The router is a thin asyncio front
end speaking the *existing* wire protocol to clients:

* ``hello``/``welcome`` terminate at the router.  The granted
  capability set is the **intersection** of what the client asked for
  and what every worker granted the router at :meth:`~TileServiceRouter.start`
  (push requires all workers push-capable; binary payloads require all
  workers to speak binary).  Each of the client's backend links is then
  dialled asking for exactly that grant; a worker that grants anything
  else is handled like one that refused the handshake.
* A session lives on ``ring.owner(session_id)``: a seeded,
  deterministic :class:`ConsistentHashRing` maps the id to the same
  worker across runs and across processes, because the ring hashes with
  :func:`hashlib.blake2b` (no ``PYTHONHASHSEED`` dependence).  Every
  message of the session goes there, and there only: ``open_session``,
  ``tile_request``, ``push_ack`` and ``close_session``.
* Every frame of a relayed round — the ``push_tile`` frames streamed
  ahead of the reply, then the reply — is forwarded **as its worker
  framed it**: a link speaks its client's wire, so the router reads only
  each frame's type tag (the text of a JSON frame, the header of a
  binary one), checks its size against its own budget and passes the
  bytes on.  A tile is encoded once, by its worker.  The relay runs on
  callbacks: the client's connection starts the round trip on the link,
  and the link's protocol hands the frames back — no task, future or
  lock per relayed request.
* A dead worker — or one that leaves a round trip unanswered past the
  deadline — surfaces as a typed ``worker_unavailable`` error and
  is removed from the ring, which moves its sessions — and no others —
  to their ring successors; a retry lands there, where the router opens
  the session first (owner only: no worker holds a session the ring
  does not give it).  What failover loses is the dead worker's memory:
  its sessions go on with an empty prediction history, a forgotten push
  ``held`` set and a cold cache; every other session loses nothing, not
  even a hit.

The price of keeping a session whole is paid in shared tiles: a tile
several users want is loaded once per worker hosting one of them, not
once per cluster (``experiments/backend_loads.py`` counts it, the
README's "Cluster mode" has the throughput figures).

Protocol logic is shared, not copied: the router serves its clients
with the worker's own shell (:class:`~repro.middleware.net._ServedConnection`)
and :class:`~repro.middleware.connection.ServerConnection` core — same
dispatch guard, same handshake, same typed replies — supplying only its
message handlers and the capabilities its workers share; each backend
link is an I/O shell around the same
:class:`~repro.middleware.connection.ClientConnection` core as the
user-facing socket clients.

Backend links are **per client connection** and speak what their
client speaks: push-capable links for a client that negotiated push,
pull-only ones for a pull-only client, binary links for a binary
client.  This keeps worker-side behaviour — and every byte a client
reads after its welcome — identical to a direct connection (a worker
never runs push rounds, which populate its cache, for a session whose
real client did not ask for push).  Apart from those,
the router opens one link per worker in :meth:`TileServiceRouter.start`
to learn what it grants, and closes it as soon as the welcome is read.

The router keeps no popularity view: with ``shared_hotspots`` on, each
worker's :class:`~repro.core.popularity.SharedHotspotRegistry` learns
only from the sessions that live on it.

``examples/cluster_serving.py`` boots a local :class:`ProcessCluster`,
replays a deterministic trace through it and prints a summary.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import multiprocessing
from dataclasses import dataclass, replace
from functools import partial

from repro.middleware.config import ServiceConfig
from repro.middleware.connection import (
    ClientConnection,
    OpaqueFrame,
    ServerConnection,
    decode_opaque,
)
from repro.middleware.net import (
    ForeCacheSocketServer,
    ThreadedSocketServer,
    _LoopThread,
    _WireServer,
    _cap_reads,
    _core_attribute,
)
from repro.middleware.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    CloseSession,
    DuplicateSessionError,
    ErrorInfo,
    FrameTooLargeError,
    Hello,
    OpenSession,
    ProtocolError,
    PushAck,
    SessionInfo,
    TileRequest,
    Welcome,
    WorkerUnavailableError,
    decode_wire,
    encode_frame,
    negotiate_payload,
    negotiate_version,
)
from repro.middleware.service import ForeCacheService
from repro.tiles.pyramid import TilePyramid

#: How long a backend link waits for one round trip before it declares
#: the worker stalled.  A stalled worker is handled like a dead one (the
#: client gets ``worker_unavailable`` and the ring drops the node); the
#: bound sits below the shipped clients' 30 s socket timeout so that they
#: see that typed error and not their own timeout.
_ROUNDTRIP_DEADLINE_SECONDS = 20.0

#: How long :class:`ProcessCluster` waits for a spawned worker to build
#: its world, bind and report its port.
_BOOT_TIMEOUT_SECONDS = 180.0


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
def _hash64(data: str) -> int:
    """Seed-stable 64-bit hash (blake2b, not ``hash()``).

    Python's builtin ``hash`` is randomised per process by
    ``PYTHONHASHSEED``; the ring must place the same key on the same
    worker across independent processes, so it hashes through a real
    digest instead.  A session id is a client's string, and JSON can
    spell a lone surrogate: it is hashed, not refused.
    """
    encoded = data.encode("utf-8", "surrogatepass")
    return int.from_bytes(
        hashlib.blake2b(encoded, digest_size=8).digest(), "big"
    )


class ConsistentHashRing:
    """Deterministic consistent-hash ring over anything with a stable
    ``str()`` — the router places session ids on it.

    Each node contributes ``replicas`` points on the ring (more points
    smooth the partition toward 1/N per node); a key is owned by the
    first node point at or clockwise of the key's own point.  The ring
    is a pure function of ``(seed, node ids, replicas)`` — no process
    state leaks in — so every router instance, in any process, maps a
    given key to the same worker.

    Removing a node moves only the keys that node owned (~1/N of the
    space) to their next-clockwise survivors; everything else stays
    put.  That containment is what makes worker failover cheap.
    """

    def __init__(
        self,
        nodes: tuple[str, ...] | list[str] = (),
        *,
        replicas: int = 64,
        seed: int = 0,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self.seed = int(seed)
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    def _node_points(self, node: str) -> list[tuple[int, str]]:
        return [
            (_hash64(f"{self.seed}:{node}:{replica}"), node)
            for replica in range(self.replicas)
        ]

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for point in self._node_points(node):
            bisect.insort(self._points, point)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(node)
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]

    def owner(self, key) -> str:
        """The node owning ``key`` — same answer in every process.

        ``key`` is placed by its ``str()``: a session id as it is, a
        :class:`TileKey` as ``"level/x/y"``.
        """
        if not self._points:
            raise WorkerUnavailableError("no live workers on the ring")
        point = _hash64(f"{self.seed}:{key}")
        index = bisect.bisect_left(self._points, (point, ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)


# ----------------------------------------------------------------------
# backend links
# ----------------------------------------------------------------------
class _BackendLink(asyncio.Protocol):
    """One router→worker connection: one more I/O shell around a
    :class:`~repro.middleware.connection.ClientConnection`, on asyncio's
    protocol callbacks.  Unlike a user-facing client it collects push
    frames for forwarding, and a relayed round's frames stay unopened
    (:class:`~repro.middleware.connection.OpaqueFrame`); it speaks what
    its client was granted, so they go on as they are (:meth:`forward`).
    One round trip is out at a time (:meth:`begin`).  The link dies when
    the worker goes away, sends a frame nobody asked for, or leaves a
    round trip unanswered past ``_ROUNDTRIP_DEADLINE_SECONDS``; death is
    sticky and converts to the typed ``worker_unavailable`` error so the
    real client can retry (the ring will have re-mapped the key by then).
    """

    client_name = "forecache-router"

    def __init__(
        self,
        node: str,
        host: str,
        port: int,
        *,
        framing: str = "lines",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.node = node
        self.host = host
        self.port = port
        self.dead = False
        self._stalled = False
        self._core = ClientConnection(framing, max_frame_bytes)
        #: The router's own budget, which each forwarded frame is held to.
        self._max_frame_bytes = max_frame_bytes
        self._loop: asyncio.AbstractEventLoop | None = None
        self._transport: asyncio.Transport | None = None
        #: What takes the outcome of the round trip out, if one is, and
        #: how its frames are read.
        self._done = None
        self._decode = self._unsolicited
        self._pushes: list = []
        self._deadline: asyncio.TimerHandle | None = None

    push = _core_attribute("push_enabled")
    payload = _core_attribute("payload")
    server_max_frame_bytes = _core_attribute("server_max_frame_bytes")

    async def connect(self, *, push: bool = False, binary: bool = False) -> Welcome:
        self._loop = loop = asyncio.get_running_loop()
        try:
            await loop.create_connection(lambda: self, self.host, self.port)
        except OSError as exc:
            self.dead = True
            raise WorkerUnavailableError(
                f"worker {self.node} is unreachable: {exc}"
            ) from exc
        hello = self._core.hello(
            self.client_name, push=push, payload="binary" if binary else "json"
        )
        reply, _ = await self.roundtrip(hello)
        try:
            return self._core.welcome(reply)
        except ProtocolError as exc:
            self._die()
            raise WorkerUnavailableError(
                f"worker {self.node} refused the handshake: {exc}"
            ) from exc

    async def roundtrip(self, message, *, opaque: bool = False):
        """Send one message, return ``(reply, pushes)`` — with
        ``opaque``, :class:`OpaqueFrame` s, only their type tags read."""
        future = self._loop.create_future()
        self.begin(message, decode_opaque if opaque else decode_wire, future.set_result)
        outcome = await future
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def begin(self, message, decode, done) -> None:
        """Send ``message``; ``done`` gets ``(reply, pushes)``, each frame
        read by ``decode``, or the worker-down error.  What fails before
        a byte is sent raises here (an oversized frame is local)."""
        if self.dead or self._transport is None:
            raise WorkerUnavailableError(f"worker {self.node} is down")
        data = self._core.begin(message)
        self._decode, self._done = decode, done
        self._transport.write(data)
        self._deadline = self._loop.call_later(
            _ROUNDTRIP_DEADLINE_SECONDS, self._stall
        )

    def forward(self, frame: OpaqueFrame) -> "bytes | ErrorInfo":
        """A worker's frame for the client: as it is, if in budget."""
        try:
            return encode_frame(frame.body, self._core.wire, self._max_frame_bytes)
        except FrameTooLargeError as exc:
            return ErrorInfo.from_exception(exc)

    def _unsolicited(self, frame):
        raise ProtocolError("worker sent a frame no request asked for")

    def connection_made(self, transport: asyncio.Transport) -> None:
        _cap_reads(transport)
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        core = self._core
        try:
            core.receive(data)
            reply = core.reply(self._decode, self._pushes.append)
            if reply is not None:
                core.reply(self._unsolicited)  # nothing may follow it
        except ProtocolError as exc:
            self._fail(exc)
            return
        if reply is not None:
            pushes, self._pushes = self._pushes, []
            self._finish((reply, pushes))

    def connection_lost(self, exc: Exception | None) -> None:
        if not self.dead:
            self._fail(exc or ProtocolError("server closed the connection"))

    def _stall(self) -> None:
        self._stalled = True
        self._fail(TimeoutError())

    def _fail(self, exc: BaseException) -> None:
        self._die()
        if self._done is None:
            return
        reason = (
            f"gave no answer within {_ROUNDTRIP_DEADLINE_SECONDS:g} s"
            if self._stalled
            else f"died mid-request: {exc}"
        )
        error = WorkerUnavailableError(f"worker {self.node} {reason}")
        error.__cause__ = exc
        self._finish(error)

    def _finish(self, outcome) -> None:
        self._deadline.cancel()
        done, self._done = self._done, None
        self._decode = self._unsolicited
        done(outcome)

    def _die(self) -> None:
        self.dead = True
        if self._transport is not None:
            self._transport.abort()

    def close(self) -> None:
        self.dead = True
        transport, self._transport = self._transport, None
        if transport is not None:  # else never connected
            transport.close()


class _RouterClient(ServerConnection):
    """One client connection inside the router: the shared protocol
    core plus this client's own backend links."""

    def __init__(self, framing: str, max_frame_bytes: int) -> None:
        super().__init__(framing, max_frame_bytes)
        self.links: dict[str, _BackendLink] = {}
        #: Each open session of this client → the worker it is open on.
        self.sessions: dict[str, str] = {}


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------
class TileServiceRouter(_WireServer):
    """Thin asyncio router fronting N socket workers.

    Speaks the unchanged wire protocol to clients; owns no tile state
    of its own.  Its :class:`ServiceConfig` says where it listens, how
    large a frame may be and which payload encodings it grants, as a
    worker's does.  See the module docstring for the full contract.
    """

    server_name = "forecache-router"

    def __init__(
        self,
        workers: dict[str, tuple[str, int]] | list[tuple[str, int]],
        config: ServiceConfig | None = None,
        *,
        framing: str = "lines",
    ) -> None:
        super().__init__()
        if isinstance(workers, dict):
            self.worker_addrs = dict(workers)
        else:
            self.worker_addrs = {
                f"{whost}:{wport}": (whost, wport)
                for whost, wport in workers
            }
        if not self.worker_addrs:
            raise ValueError("a cluster needs at least one worker")
        self.config = config or ServiceConfig()
        self.framing = framing
        self.ring = ConsistentHashRing(
            replicas=self.config.ring_replicas, seed=self.config.ring_seed
        )
        self._alive: set[str] = set()
        self._push_capable = False
        self._backend_binary = False
        self._session_counter = 0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> tuple[str, int]:
        # Capability discovery: one handshake per worker (it grants
        # push/binary iff its policy allows), and the link is closed as
        # soon as its welcome is read.  Clients dial links of their own.
        self._closing = False
        probes = []
        for node in sorted(self.worker_addrs):
            link = self._new_link(node)
            try:
                await link.connect(
                    push=True, binary="binary" in self.config.payloads
                )
            finally:
                link.close()
            probes.append(link)
            self._alive.add(node)
            self.ring.add(node)
        self._push_capable = all(link.push for link in probes)
        self._backend_binary = all(link.payload == "binary" for link in probes)
        return await self._listen()

    def _new_link(self, node: str) -> _BackendLink:
        host, port = self.worker_addrs[node]
        return _BackendLink(
            node,
            host,
            port,
            framing=self.framing,
            max_frame_bytes=self.config.max_frame_bytes,
        )

    @property
    def alive_workers(self) -> tuple[str, ...]:
        return tuple(sorted(self._alive))

    async def aclose(self) -> None:
        # Every client connection has closed its own backend links by
        # the time this returns.
        await self._stop_serving()
        self._server = None

    def _mark_worker_dead(self, node: str) -> None:
        """Idempotent: drop a worker from routing and the ring."""
        if node not in self._alive:
            return
        self._alive.discard(node)
        if node in self.ring:
            self.ring.remove(node)

    # -- client serving (the loop itself is _WireServer's) --------------
    _connection_core = _RouterClient

    _may_wait = True  # lifecycle messages wait on their round trips

    def _release(self, state: _RouterClient) -> None:
        for link in state.links.values():
            link.close()
        state.links.clear()

    # -- handshake -----------------------------------------------------
    async def _serve_hello(self, message: Hello, state: _RouterClient):
        negotiate_version(message.versions)  # refused before any dialling
        # The grant comes first, from what the start() probes learned;
        # then every link is dialled asking for exactly that, so a
        # worker never runs push rounds (which populate its cache) for a
        # pull-only client, and its frames are already in the client's
        # wire.
        push = bool(message.push) and self._push_capable
        payloads = self.config.payloads if self._backend_binary else ("json",)
        payload = negotiate_payload(message.payloads, payloads)
        for node in sorted(self._alive):
            link = self._new_link(node)
            try:
                welcome = await link.connect(push=push, binary=payload == "binary")
            except WorkerUnavailableError:
                welcome = None
            if welcome is None or (welcome.push, welcome.payload) != (push, payload):
                # Refused, or granted a wire other than this client's:
                # the link could not forward its worker's frames as is.
                link.close()
                self._mark_worker_dead(node)
                continue
            state.links[node] = link
        if not state.links:
            raise WorkerUnavailableError("no live workers on the ring")
        limits = [
            link.server_max_frame_bytes
            for link in state.links.values()
            if link.server_max_frame_bytes > 0
        ]
        return [
            state.welcome(
                message,
                server=self.server_name,
                push=push,
                payloads=payloads,
                max_frame_bytes=min([self.config.max_frame_bytes, *limits]),
            )
        ]

    # -- session lifecycle ---------------------------------------------
    def _next_session_id(self) -> str:
        self._session_counter += 1
        return f"session-{self._session_counter}"

    async def _roundtrip(
        self, node: str, message, state: _RouterClient, *, opaque: bool = False
    ):
        """``(reply, pushes)`` of one round trip with ``node``, the owner of
        ``message``'s session — opened there first if this client opened
        it on a worker the ring has dropped since (it goes on amnesic)."""
        session_id = message.session_id
        # On the ring means alive since before this client's hello, which
        # dialled every live worker: the link exists (dead, at worst).
        link = state.links[node]
        if state.sessions.get(session_id, node) != node:
            opened, _ = await link.roundtrip(OpenSession(session_id=session_id))
            if not isinstance(opened, SessionInfo):
                raise opened.to_exception()
            state.sessions[session_id] = node
        return await link.roundtrip(message, opaque=opaque)

    async def _on_owner(self, message: "OpenSession | CloseSession", state: _RouterClient):
        """``(node, reply)`` of a lifecycle message sent to its session's
        owner: one that dies on the way leaves the ring, the next answers."""
        while self._alive:
            node = self.ring.owner(message.session_id)
            try:
                return node, (await self._roundtrip(node, message, state))[0]
            except WorkerUnavailableError:
                self._mark_worker_dead(node)
        raise WorkerUnavailableError(
            "no live workers on the ring", session_id=message.session_id
        )

    async def _serve_open(self, message: OpenSession, state: _RouterClient):
        auto = message.session_id is None
        session_id = self._next_session_id() if auto else message.session_id
        for _ in range(64):
            node, reply = await self._on_owner(OpenSession(session_id=session_id), state)
            taken = getattr(reply, "code", None) == DuplicateSessionError.code
            if not (auto and taken):
                break
            # Another client claimed the auto id first (each worker
            # numbers its own sessions); renumber.
            session_id = self._next_session_id()
        if isinstance(reply, SessionInfo):
            state.sessions[session_id] = node
        return [reply]

    async def _serve_close(self, message: CloseSession, state: _RouterClient):
        state.require_session(message.session_id)
        try:
            return [(await self._on_owner(message, state))[1]]
        finally:
            del state.sessions[message.session_id]

    # -- the request path ----------------------------------------------
    def _relay(self, message: "TileRequest | PushAck", state: _RouterClient):
        """One round trip to the worker the session lives on: its push
        frames, then its reply, as the worker framed them (the link
        speaks the client's wire; each frame is only held to this
        router's budget).  While the node the session was opened on is
        alive it owns the session — the ring only shrinks, and a key's
        owner moves only when its node leaves — and the round trip runs
        on its link, ending by callback."""
        node = state.sessions[message.session_id]
        if node not in self._alive:
            return self._relay_to_owner(message, state)
        return partial(self._relay_on, state.links[node], message)

    def _relay_on(self, link: _BackendLink, message, deliver) -> None:
        def done(outcome):
            deliver(self._relayed(link, message.session_id, outcome))

        try:
            link.begin(message, decode_opaque, done)
        except WorkerUnavailableError as exc:
            raise self._relayed(link, message.session_id, exc) from exc

    async def _relay_to_owner(self, message, state: _RouterClient) -> list:
        """:meth:`_relay` of a session whose node has left the ring,
        opened on its new owner first (where it goes on amnesic)."""
        node = self.ring.owner(message.session_id)
        try:
            outcome = await self._roundtrip(node, message, state, opaque=True)
        except WorkerUnavailableError as exc:
            raise self._relayed(state.links[node], message.session_id, exc) from exc
        return self._relayed(state.links[node], message.session_id, outcome)

    def _relayed(self, link: _BackendLink, session_id: str, outcome):
        """A relayed outcome as the client gets it: the frames, or the
        typed error, its worker dropped from the ring."""
        if not isinstance(outcome, WorkerUnavailableError):
            reply, pushes = outcome
            return [*map(link.forward, pushes), link.forward(reply)]
        self._mark_worker_dead(link.node)
        return WorkerUnavailableError(
            f"{outcome} (safe to retry: the ring has re-mapped session "
            f"{session_id!r})",
            session_id=session_id,
        )

    def _serve_request(self, message: TileRequest, state: _RouterClient):
        state.require_session(message.session_id)
        return self._relay(message, state)

    def _serve_ack(self, message: PushAck, state: _RouterClient):
        state.require_push(state.require_session(message.session_id))
        return self._relay(message, state)


# ----------------------------------------------------------------------
# threaded in-process harnesses (tests / sweep)
# ----------------------------------------------------------------------
class ThreadedRouter(_LoopThread):
    """Run a :class:`TileServiceRouter` on a background thread.

    Mirrors :class:`~repro.middleware.net.ThreadedSocketServer`: sync
    callers get a live ``(host, port)`` after :meth:`start` and a
    blocking :meth:`stop`.
    """

    _thread_name = "forecache-router"

    def __init__(
        self,
        workers: dict[str, tuple[str, int]] | list[tuple[str, int]],
        config: ServiceConfig | None = None,
        *,
        framing: str = "lines",
    ) -> None:
        super().__init__()
        self._workers = workers
        self._config = config
        self._framing = framing

    @property
    def router(self) -> TileServiceRouter | None:
        """The underlying router (set once :meth:`start` returns)."""
        return self._endpoint

    def _build(self) -> TileServiceRouter:
        return TileServiceRouter(
            self._workers, self._config, framing=self._framing
        )


class _ClusterHarness:
    """What both cluster harnesses share: N workers a subclass boots
    (:meth:`_boot_workers`) and reaps (:meth:`_stop_workers`), fronted
    by one :class:`ThreadedRouter`.  The router binds the configured
    address; the workers bind ephemeral ports of their own."""

    config: ServiceConfig
    _framing: str
    router: ThreadedRouter | None = None

    @property
    def address(self) -> tuple[str, int]:
        assert self.router is not None and self.router.address is not None
        return self.router.address

    def _boot_workers(self) -> list[tuple[str, int]]:
        """Start every worker; returns their addresses in index order."""
        raise NotImplementedError

    def _stop_workers(self) -> None:
        raise NotImplementedError

    def start(self):
        try:
            addresses = self._boot_workers()
            # Stable logical node names: the ring hashes the node id, so
            # deriving it from the (ephemeral) port would re-place every
            # session on every boot.  ``worker-<i>`` keeps placement a
            # pure function of (worker count, ring_replicas, ring_seed).
            self.router = ThreadedRouter(
                {
                    f"worker-{index}": address
                    for index, address in enumerate(addresses)
                },
                self.config,
                framing=self._framing,
            )
            self.router.start()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        if self.router is not None:
            with contextlib.suppress(Exception):
                self.router.stop()
            self.router = None
        self._stop_workers()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ThreadedClusterServer(_ClusterHarness):
    """N in-process threaded workers plus a threaded router.

    The all-threads harness for tests and the parameter sweep: every
    worker is a :class:`~repro.middleware.net.ThreadedSocketServer`
    over a *shared* pyramid (shared backend, independent caches; the
    workers share the pyramid's tiles, so a tile one worker has encoded
    for the wire is encoded for all), and the router fronts them all.
    ``workers[i].server.service`` is worker *i*'s facade, for draining.
    """

    def __init__(
        self,
        pyramid: TilePyramid,
        config: ServiceConfig | None = None,
        *,
        workers: int = 2,
        engine_factory=None,
        framing: str = "lines",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = config or ServiceConfig()
        self.workers: list[ThreadedSocketServer] = [
            ThreadedSocketServer(
                pyramid,
                replace(self.config, bind_port=0),
                engine_factory=engine_factory,
                framing=framing,
            )
            for _ in range(workers)
        ]
        self._framing = framing

    def _boot_workers(self) -> list[tuple[str, int]]:
        return [worker.start() for worker in self.workers]

    def _stop_workers(self) -> None:
        for worker in self.workers:
            with contextlib.suppress(Exception):
                worker.stop()


# ----------------------------------------------------------------------
# spawn-context multi-process cluster
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs — picklable for spawn.  The
    worker binds ``config``'s address."""

    size: int = 256
    tile_size: int = 32
    days: int = 1
    seed: int = 7
    framing: str = "lines"
    config: ServiceConfig | None = None


async def _cluster_worker_serve(spec: WorkerSpec, port_queue, stop_event):
    from repro.core.engine import momentum_engine
    from repro.modis.dataset import MODISDataset

    dataset = MODISDataset.build(
        size=spec.size,
        tile_size=spec.tile_size,
        days=spec.days,
        seed=spec.seed,
    )
    grid = dataset.pyramid.grid

    server = ForeCacheSocketServer(
        ForeCacheService(
            dataset.pyramid,
            spec.config or ServiceConfig(),
            engine_factory=lambda: momentum_engine(grid),
        ),
        framing=spec.framing,
    )
    _, port = await server.start()
    port_queue.put(("ok", port))
    loop = asyncio.get_running_loop()
    try:
        await loop.run_in_executor(None, stop_event.wait)
    finally:
        await server.aclose()


def _cluster_worker_main(spec: WorkerSpec, port_queue, stop_event) -> None:
    """Module-level entry point — picklable for the spawn context."""
    try:
        asyncio.run(_cluster_worker_serve(spec, port_queue, stop_event))
    except Exception as exc:  # pragma: no cover - surfaced via queue
        with contextlib.suppress(Exception):
            port_queue.put(("error", f"{type(exc).__name__}: {exc}"))


class ProcessCluster(_ClusterHarness):
    """N spawn-context worker processes plus an in-process router.

    The real multi-process deployment shape: every worker is its own
    Python process (own GIL, own cache, own service stack) serving a
    :class:`ForeCacheSocketServer`; the router runs in the calling
    process on a background thread.  ``kill_worker`` hard-kills a
    process mid-flight (failure injection).  Worker *i* binds ``start_port + i`` when
    ``start_port`` is set, an ephemeral port otherwise.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        config: ServiceConfig | None = None,
        size: int = 256,
        tile_size: int = 32,
        days: int = 1,
        seed: int = 7,
        start_port: int = 0,
        framing: str = "lines",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.num_workers = workers
        self.config = config or ServiceConfig()
        #: What every worker process is built from (its config's
        #: ``bind_port`` is set per worker at boot).
        self._spec = WorkerSpec(
            size=size,
            tile_size=tile_size,
            days=days,
            seed=seed,
            framing=framing,
        )
        self._start_port = start_port
        self._framing = framing
        self._ctx = multiprocessing.get_context("spawn")
        self.processes: list = []
        self._stop_events: list = []
        self.worker_ports: list[int] = []

    def _boot_workers(self) -> list[tuple[str, int]]:
        queues = []
        for index in range(self.num_workers):
            port = self._start_port + index if self._start_port else 0
            spec = replace(
                self._spec, config=replace(self.config, bind_port=port)
            )
            queue = self._ctx.Queue()
            stop_event = self._ctx.Event()
            process = self._ctx.Process(
                target=_cluster_worker_main,
                args=(spec, queue, stop_event),
                daemon=True,
                name=f"forecache-worker-{index}",
            )
            process.start()
            self.processes.append(process)
            self._stop_events.append(stop_event)
            queues.append(queue)
        for index, queue in enumerate(queues):
            try:
                status, value = queue.get(timeout=_BOOT_TIMEOUT_SECONDS)
            except Exception as exc:
                raise RuntimeError(
                    f"worker {index} did not report a port within "
                    f"{_BOOT_TIMEOUT_SECONDS:g} s"
                ) from exc
            if status != "ok":
                raise RuntimeError(
                    f"worker {index} failed to boot: {value}"
                )
            self.worker_ports.append(int(value))
        return [(self.config.bind_host, port) for port in self.worker_ports]

    def kill_worker(self, index: int) -> None:
        """Hard-kill one worker process (mid-request failure injection)."""
        process = self.processes[index]
        process.kill()
        process.join(timeout=30)

    def _stop_workers(self) -> None:
        for process, event in zip(self.processes, self._stop_events):
            # Never touch a dead worker's event: setting it blocks on
            # an ack from the (SIGKILLed) waiter that will never come.
            if process.is_alive():
                with contextlib.suppress(Exception):
                    event.set()
        for process in self.processes:
            process.join(timeout=10)
        for process in self.processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=10)
        self.processes.clear()
        self._stop_events.clear()
        self.worker_ports.clear()
