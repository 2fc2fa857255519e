"""The socket transport: the wire protocol over real TCP connections.

The paper's middleware sits between a browser and the DBMS; this module
is the boundary where bytes actually cross a network.  One
:class:`ForeCacheSocketServer` speaks the framed JSON protocol of
:mod:`repro.middleware.protocol` over asyncio TCP in front of one
:class:`~repro.middleware.service.ForeCacheService`, which it closes on
``aclose``:

    service = ForeCacheService(pyramid, config, engine_factory=...)
    server = ForeCacheSocketServer(service)
    host, port = await server.start()
    ...
    await server.aclose()          # drains in-flight requests

The server calls the facade on its event loop.  Only work that can
wait outside the interpreter leaves the loop for the server's bridge
pool, and that is decided once, from
:attr:`~repro.cache.manager.CacheManager.backend_can_block`: over a
backend that cannot block a request is one ``service.request(...)``,
with no thread hop.

Each connection opens with a ``hello``/``welcome`` version negotiation,
then drives sessions through the ``open_session``/``close_session``
control envelope and ``tile_request`` frames.  Sessions are registered
*per connection*: a client can only address sessions it opened, and a
dropped connection closes its own sessions without disturbing anyone
else's.  Framing violations (malformed bytes, oversized frames) are
answered with their typed :class:`~repro.middleware.protocol.ErrorInfo`
and the connection is closed; a malformed *message* on a healthy frame
stream is answered and the connection keeps serving.

A second ``hello`` on a negotiated connection is refused with a typed
``invalid_request`` and changes nothing.  Those rules are the
:class:`~repro.middleware.connection.ServerConnection` core's; the one
serve loop around it, :class:`_WireServer`, moves the bytes and runs
the endpoint's handlers, and the cluster router runs it too.

The client is :class:`SocketTransport` (blocking sockets), multiplexing
any number of sessions over one connection.  It holds no protocol
logic: it is an I/O shell that frames via its
:class:`~repro.middleware.connection.ClientConnection` core, moves the
bytes, feeds the core and returns its reply; locks, timeouts and close
semantics are the shell's, every protocol decision the core's.  The
connections it returns satisfy the same contract as every other front
end, so the one ``BrowsingSession`` replays traces over loopback
exactly as it does in process.
:class:`ThreadedSocketServer` runs the whole server on a dedicated
daemon thread for synchronous programs (examples, benchmarks, tests).
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.core.engine import PredictionEngine
from repro.middleware import protocol
from repro.middleware.config import ServiceConfig
from repro.middleware.connection import (
    ClientConnection,
    ServerConnection,
    SessionStub,
)
from repro.middleware.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    CloseSession,
    ErrorInfo,
    FrameTooLargeError,
    Hello,
    OpenSession,
    ProtocolError,
    PushAck,
    PushTile,
    SessionClosedError,
    TilePayload,
    TileRef,
    TileRequest,
    TileSegmentCache,
    check_framing,
    encode_tile_frame,
    encode_wire,
    held_keys,
    requested_key,
)
from repro.middleware.push import PUSH_MODEL, PushCache, PushScheduler
from repro.middleware.service import ForeCacheService, TileResponse
from repro.tiles.key import TileKey
from repro.tiles.reduce import COARSE_REDUCTION, downsample_tile
from repro.tiles.moves import Move
from repro.tiles.pyramid import TilePyramid
from repro.tiles.tile import DataTile

#: The most one read takes off a socket, blocking or asyncio.
_READ_CHUNK = 65536

#: Threads the server's bridge pool may run.  A thread starts only when
#: a job is submitted, and over a backend that cannot block none is, so
#: no caller needs a size of its own.
_BRIDGE_THREADS = 8


def _cap_reads(writer: asyncio.StreamWriter) -> None:
    """Make the stream's transport ``recv`` at most :data:`_READ_CHUNK`.

    asyncio's selector transport reads ``sock.recv(max_size)`` on every
    readable event, 256 KiB by default.  A buffer that size is above
    glibc's default 128 KiB mmap threshold, so malloc maps it fresh;
    ``recv`` then shrinks it with ``mremap``, and the small chunk that
    is finally freed never raises glibc's dynamic threshold.  Every read
    would pay ``mmap`` + ``mremap`` + ``munmap`` and fresh page faults.
    Below the threshold the buffer comes from the heap.
    """
    writer.transport.max_size = _READ_CHUNK


class _WireServer:
    """The I/O shell around one
    :class:`~repro.middleware.connection.ServerConnection` per client.

    The one serve loop under both :class:`ForeCacheSocketServer` and the
    cluster's :class:`~repro.middleware.cluster.TileServiceRouter`: one
    awaited read per turn, the core cuts and admits, the endpoint's
    handler runs, one batched write per read, cleanup — and the one
    shutdown, :meth:`_stop_serving`, which reaches an idle connection
    through its reader: ``feed_eof()`` wakes the pending ``read`` with
    ``b""`` and the connection leaves by the orderly-EOF branch; one in
    mid-dispatch is left alone, flushes its reply and leaves at the
    loop top.  No task is created per read to race the two.  An endpoint
    supplies ``framing``, its ``config`` — the address it binds
    (:meth:`_listen`), its frame budget and the payloads it grants — the
    name its welcome gives, its message handlers (``_HANDLERS``) and
    what a finished connection leaves behind (:meth:`_release`).
    """

    framing: str
    config: ServiceConfig
    server_name: str
    #: What a fresh connection's protocol state is built from.
    _connection_core = ServerConnection

    def __init__(self) -> None:
        #: ``(host, port)`` actually bound, available after ``start()``
        #: (the configured port may be 0 = ephemeral).
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        #: Each live connection's serving task, and the reader it is
        #: blocked on while idle (None while it serves what it read).
        self._connections: dict[
            asyncio.Task, asyncio.StreamReader | None
        ] = {}

    @property
    def connection_count(self) -> int:
        """Connections currently being served."""
        return len(self._connections)

    async def _listen(self) -> tuple[str, int]:
        """Bind ``config.bind_host`` / ``bind_port`` and start accepting;
        returns the bound ``address``."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.bind_host, self.config.bind_port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def _stop_serving(self) -> None:
        """Stop accepting, then wait until every connection has left:
        an idle one promptly, one in mid-dispatch after its reply is
        flushed; each has run its :meth:`_release` by the time this
        returns."""
        self._closing = True
        for reader in self._connections.values():
            if reader is not None:
                reader.feed_eof()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    #: The message types a client may send (the core's
    #: ``CLIENT_MESSAGES``), and the endpoint coroutine
    #: ``handler(message, conn)`` serving each.  A handler returns
    #: everything its message produces, in wire order — zero or more
    #: pre-encoded ``push_tile`` frames *followed by* the actual reply,
    #: so push delivery is deterministic (fixed interleaving, no
    #: background writer task) — or raises, which becomes the typed
    #: error reply.  ``_serve_hello`` answers ``[conn.welcome(...)]``.
    _HANDLERS = {
        Hello: "_serve_hello",
        OpenSession: "_serve_open",
        CloseSession: "_serve_close",
        TileRequest: "_serve_request",
        PushAck: "_serve_ack",
    }

    async def _release(self, conn: ServerConnection) -> None:
        """Drop what a finished connection leaves behind."""
        raise NotImplementedError

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        _cap_reads(writer)
        conn = self._connection_core(self.framing, self.config.max_frame_bytes)
        task = asyncio.current_task()
        connections = self._connections
        connections[task] = None
        try:
            while not self._closing:
                connections[task] = reader
                try:
                    data = await reader.read(_READ_CHUNK)
                except (ConnectionError, OSError):
                    break  # client vanished mid-read
                connections[task] = None
                if not data:
                    break  # orderly EOF, or shutdown fed one
                # Everything this read-batch produces — push frames and
                # replies across every completed frame — leaves in a
                # single writelines+drain (the writev-style batching
                # that keeps small frames from paying a syscall each).
                out: list[bytes] = []
                hang_up = False
                try:
                    frames = conn.receive(data)
                except ProtocolError as exc:
                    frames = ()
                    refusal, hang_up = conn.refuse(exc)
                    out.append(refusal)
                for frame in frames:
                    try:
                        message = conn.admit(frame)
                        handler = getattr(self, self._HANDLERS[type(message)])
                        replies = await handler(message, conn)
                    except Exception as exc:
                        # The guard's or the handler's: one typed reply.
                        refusal, hang_up = conn.refuse(exc)
                        out.append(refusal)
                        if hang_up:
                            break
                    else:
                        out.extend(map(conn.send, replies))
                if out:
                    try:
                        writer.writelines(out)
                        await writer.drain()
                    except (ConnectionError, OSError):
                        break  # client vanished mid-write
                if hang_up:
                    break
        finally:
            try:
                # The transport stops reading first: a reader that
                # shutdown fed an EOF must be fed nothing after it.
                writer.close()
                await self._release(conn)
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
            finally:
                del connections[task]


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class ForeCacheSocketServer(_WireServer):
    """Asyncio TCP server speaking the framed wire protocol in front of
    one :class:`~repro.middleware.service.ForeCacheService`; the
    facade's :class:`ServiceConfig` says where it listens, how large a
    frame may be and which payload encodings it grants.  The server
    closes the facade on :meth:`aclose`.

    What leaves the loop is decided here, once: over a backend that can
    block (:attr:`~repro.cache.manager.CacheManager.backend_can_block`,
    a configured delay) a cache hit is still probed on the loop, but a
    miss — the DBMS query and its observe/predict round as one unit — a
    sync-mode prefetch round, a push load and a push-hit round run on
    the bridge pool.  Cancelling a request waiting on the pool leaves
    that work to finish on its thread (filling the cache and feeding
    the engine) and the session usable; a request served on the loop
    cannot be cancelled mid-round.
    """

    server_name = "forecache-repro"

    def __init__(
        self, service: ForeCacheService, *, framing: str = "lines"
    ) -> None:
        super().__init__()
        config = self.config = service.config
        self.service = service
        self.framing = check_framing(framing)
        #: Set once the drain is over: every call is refused from then on.
        self._closed = False
        policy = config.prefetch
        self._executor = ThreadPoolExecutor(
            max_workers=_BRIDGE_THREADS, thread_name_prefix="forecache-bridge"
        )
        self._backend_blocks = service.cache_manager.backend_can_block
        # Sync-mode prefetch runs the whole cycle inside a request's
        # post-fetch half, so over a backend that can block that half
        # leaves the loop too; in background mode (or with prefetch off)
        # it is bookkeeping.
        self._post_blocking = (
            self._backend_blocks and policy.enabled and not policy.background
        )
        #: The server-wide push allocator, present iff the policy says
        #: ``push="on"``.  One scheduler serves every connection, so the
        #: downstream budget is shared across *all* live push sessions.
        self.push_scheduler: PushScheduler | None = None
        if policy.push_enabled:
            registry = service.hotspot_registry
            self.push_scheduler = PushScheduler(
                budget_bytes=policy.push_budget_bytes,
                max_inflight=policy.push_max_inflight,
                # Mirror the prefetch scheduler: only "boost" acts on
                # the shared signal.
                hotspot_registry=(
                    registry if policy.hotspots_live else None
                ),
                # Progressive fidelity: coarse frame first, refinement
                # with the round's leftover budget.  Off keeps the wire
                # byte-identical to earlier builds.
                progressive=policy.fidelity_enabled,
            )
        #: Encode once, send many: the encoded payload segment of every
        #: full-fidelity tile this server has sent, per payload
        #: encoding, under a fixed byte budget.  Entries cannot go
        #: stale — the pyramid's levels are never written after
        #: ``build()``, so a tile's bytes are a function of its key for
        #: this server's lifetime.
        self.segment_cache = TileSegmentCache()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("socket server already started")
        if self._closing:
            raise RuntimeError("socket server is closed")
        return await self._listen()

    async def aclose(self) -> None:
        """Graceful shutdown: stop accepting, let every in-flight
        request finish and its response flush, close all connections
        (their sessions with them), then close the facade and join the
        bridge pool's threads, in that order and off the loop, so a
        slow in-flight backend query never stalls it.  Idempotent."""
        if self._closing:
            return
        await self._stop_serving()
        self._closed = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.service.close)
        await loop.run_in_executor(None, self._executor.shutdown)

    async def __aenter__(self) -> "ForeCacheSocketServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def _check_open(self) -> None:
        # A typed refusal the wire can report, not the pool's "cannot
        # schedule new futures after shutdown".
        if self._closed:
            raise SessionClosedError("service is closed")

    def _call(self, fn, *args) -> asyncio.Future:
        """Run ``fn(*args)`` on the bridge pool."""
        return asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    # ------------------------------------------------------------------
    # per-connection serving
    # ------------------------------------------------------------------
    async def _serve_hello(self, message: Hello, conn: ServerConnection):
        # ``conn.push`` can only come out true with a scheduler behind it.
        return [
            conn.welcome(
                message,
                server=self.server_name,
                push=self.push_scheduler is not None,
                payloads=self.config.payloads,
            )
        ]

    async def _serve_open(self, message: OpenSession, conn: ServerConnection):
        # A closed facade refuses the open itself, typed.
        service = self.service
        session_id = service.open_session(None, message.session_id).session_id
        conn.sessions.add(session_id)
        if conn.push:
            self.push_scheduler.open_session(session_id)
        return [service.info(session_id)]

    async def _serve_close(
        self, message: CloseSession, conn: ServerConnection
    ):
        self._check_open()
        session_id = conn.require_session(message.session_id)
        final = self.service.info(session_id)
        self.service.close_session(session_id)
        conn.sessions.discard(session_id)
        if self.push_scheduler is not None:
            self.push_scheduler.forget_session(session_id)
        return [replace(final, open=False)]

    async def _serve_request(self, message: TileRequest, conn: ServerConnection):
        self._check_open()
        session_id = conn.require_session(message.session_id)
        key = requested_key(message, self.service.pyramid.grid)
        if conn.push and message.held is not None:
            self.push_scheduler.acknowledge(session_id, held_keys(message))
        if self._backend_blocks:
            result = await self._blocking_request(
                session_id, message.to_move(), key
            )
        else:
            result = self.service.request(session_id, message.to_move(), key)
        # A full-fidelity tile goes out through the segment cache; a
        # degraded one (same key, other bytes) is encoded by the
        # connection core like any other message.
        cached = result.fidelity == 1.0
        response = protocol.TileResponse.from_result(
            session_id, result, not cached, binary=conn.payload == "binary"
        )
        messages: list = []
        if conn.push:
            messages.extend(await self._push_messages(session_id, conn))
        if cached:
            try:
                response = self._tile_frame(response, result.tile, conn)
            except FrameTooLargeError as exc:
                response = ErrorInfo.from_exception(exc)
        messages.append(response)
        return messages

    async def _blocking_request(
        self, session_id: str, move: Move | None, key: TileKey
    ) -> TileResponse:
        """One request over a backend that can block.

        The hit is probed on the loop
        (:meth:`~repro.cache.manager.CacheManager.try_fetch`, which
        registers no load on a miss); a miss leaves it whole — fetch
        plus observe/predict round — so a cancelled request never
        half-observes.
        """
        service = self.service
        record = service._record(session_id)
        outcome = service.cache_manager.try_fetch(key)
        if outcome is None:
            return await self._call(service._request, record, move, key)
        if self._post_blocking:
            return await self._call(
                service._complete_request, record, move, key, outcome
            )
        return service._complete_request(record, move, key, outcome)

    def _tile_frame(self, message, tile, conn: ServerConnection) -> bytes:
        """Frame a payload-less reply or push around its full-fidelity
        tile, through the segment cache."""
        return encode_tile_frame(
            message,
            tile,
            conn.wire,
            self.config.max_frame_bytes,
            self.segment_cache,
        )

    async def _serve_ack(self, message: PushAck, conn: ServerConnection):
        """Absorb a push-cache digest; with ``tile`` set, record the
        client's locally answered (push-hit) request."""
        self._check_open()
        session_id = conn.require_push(
            conn.require_session(message.session_id)
        )
        self.push_scheduler.acknowledge(session_id, held_keys(message))
        service = self.service
        if message.tile is None:
            return [service.info(session_id)]
        args = (
            session_id,
            message.to_move(),
            requested_key(message, service.pyramid.grid),
        )
        # No cache fetch: only a sync-mode prefetch round can block.
        if self._post_blocking:
            result = await self._call(service.local_hit, *args)
        else:
            result = service.local_hit(*args)
        # Payload-less by construction: the client asked because it
        # already holds the tile.
        response = protocol.TileResponse(
            session_id=session_id,
            tile=message.tile,
            latency_seconds=result.latency_seconds,
            hit=result.hit,
            phase=(
                result.phase.value if result.phase is not None else None
            ),
            prefetched=tuple(
                TileRef.from_key(k) for k in result.prefetched
            ),
            payload=None,
        )
        messages: list = list(await self._push_messages(session_id, conn))
        messages.append(response)
        return messages

    async def _push_messages(
        self, session_id: str, conn: ServerConnection
    ) -> list[bytes]:
        """Run one push round for ``session_id``: queue the session's
        latest prediction list, then stream jobs until the fair-share
        byte budget or the in-flight cap stops the round.

        Returns the push frames *pre-encoded* in the connection's
        negotiated encoding: each frame is encoded exactly once — here,
        where its true wire size is charged against the push budget —
        and the connection core passes the bytes through.  On binary
        connections a tile costs a fraction of its JSON size, so the
        same byte budget streams proportionally more tiles per round.
        """
        scheduler = self.push_scheduler
        framing = conn.wire
        binary = conn.payload == "binary"
        messages: list[bytes] = []
        try:
            pending = self.service.pending_predictions(session_id)
        except Exception:
            return messages  # session vanished mid-round; push nothing
        scheduler.begin_round(session_id, pending)
        generation = scheduler.generation(session_id)
        while (job := scheduler.next_job(session_id)) is not None:
            try:
                tile = await self._load_tile(job.key)
            except Exception:
                scheduler.reject(job)
                continue
            if job.fidelity < 1.0:
                # Coarse frame: block-averaged payload, a fraction of
                # the full tile's wire bytes.  The refinement job queued
                # behind it re-streams the tile at full resolution.
                tile = downsample_tile(tile, COARSE_REDUCTION)
            push = PushTile(
                session_id=session_id,
                tile=TileRef.from_key(job.key),
                rank=job.rank,
                generation=generation,
                utility=job.utility,
                fidelity=job.fidelity,
            )
            try:
                if job.fidelity == 1.0:
                    frame = self._tile_frame(push, tile, conn)
                else:
                    frame = encode_wire(
                        replace(
                            push,
                            payload=TilePayload.from_tile(tile, binary=binary),
                        ),
                        framing,
                        self.config.max_frame_bytes,
                    )
            except FrameTooLargeError:
                # This tile can never fit a frame; skip it without
                # charging the round's budget.
                scheduler.reject(job)
                continue
            if scheduler.skip_oversize(job, len(frame)):
                # Larger than a whole fair share: no future round could
                # stream it either — drop it for good instead of
                # re-queueing it forever.
                continue
            if not scheduler.commit(job, len(frame)):
                break  # round budget spent
            messages.append(frame)
        return messages

    async def _load_tile(self, key: TileKey) -> DataTile:
        """Materialize one tile for streaming: a resident tile inline,
        a load off the loop if it can block."""
        manager = self.service.cache_manager
        if not self._backend_blocks:
            return manager.prefetch_one(key, PUSH_MODEL)
        resident = manager.peek(key)
        if resident is not None:
            return resident
        return await self._call(manager.prefetch_one, key, PUSH_MODEL)

    async def _release(self, conn: ServerConnection) -> None:
        """Drop the sessions a finished connection leaves behind."""
        for session_id in list(conn.sessions):
            if self.push_scheduler is not None:
                self.push_scheduler.forget_session(session_id)
            with contextlib.suppress(Exception):
                self.service.close_session(session_id)
        conn.sessions.clear()


# ----------------------------------------------------------------------
# threaded server (for synchronous programs)
# ----------------------------------------------------------------------
class _LoopThread:
    """An asyncio endpoint on its own daemon thread and event loop.

    The one harness under :class:`ThreadedSocketServer` and the
    cluster's :class:`~repro.middleware.cluster.ThreadedRouter`: build
    the endpoint on the thread, ``start()`` it, publish its address,
    wait for ``stop()``, ``aclose()`` it.  A subclass supplies
    :meth:`_build` and a thread name.  One-shot: a harness that was
    started (successfully or not) is not started again.
    """

    _thread_name = "forecache-loop"

    def __init__(self) -> None:
        #: ``(host, port)`` actually bound (set once :meth:`start` returns).
        self.address: tuple[str, int] | None = None
        self._endpoint = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None

    def _build(self):
        """Construct the endpoint — anything with ``await start() ->
        address`` and ``await aclose()``.  Runs on the loop thread."""
        raise NotImplementedError

    def start(self) -> tuple[str, int]:
        """Start the thread; returns the bound ``(host, port)``.  A
        failed start re-raises here, with the thread already joined."""
        if self._thread is not None:
            raise RuntimeError(f"{type(self).__name__} already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name=self._thread_name,
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=60.0)
        if self._error is not None:
            self._thread.join(timeout=5.0)
            raise self._error
        if self.address is None:
            raise RuntimeError(f"{self._thread_name} thread failed to start")
        return self.address

    async def _main(self) -> None:
        endpoint = None
        try:
            endpoint = self._build()
            address = await endpoint.start()
        except BaseException as exc:  # surface bind errors to start()
            if endpoint is not None:
                # A built endpoint may own thread pools or open links; a
                # failed bind must not leak them.
                with contextlib.suppress(BaseException):
                    await endpoint.aclose()
            self._error = exc
            self._ready.set()
            return
        self._endpoint = endpoint
        self.address = address
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        await self._stop_event.wait()
        await endpoint.aclose()

    def _run(self, coroutine, timeout: float = 30.0):
        """Run one coroutine on the endpoint's loop from sync code."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout=timeout)

    def stop(self) -> None:
        """Drain and shut the endpoint down.  Idempotent."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30.0)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ThreadedSocketServer(_LoopThread):
    """A :class:`ForeCacheSocketServer` on its own daemon thread/loop.

    Synchronous callers (examples, benchmarks, the conformance tests)
    get a live loopback endpoint with one call::

        with ThreadedSocketServer(pyramid, config, engine_factory=f) as server:
            transport = SocketTransport(*server.address, pyramid=pyramid)
            ...

    ``stop()`` (or leaving the ``with`` block) performs the server's
    graceful drain before the thread exits.
    """

    _thread_name = "forecache-socket-server"

    def __init__(
        self,
        pyramid: TilePyramid,
        config: ServiceConfig | None = None,
        *,
        engine_factory=None,
        framing: str = "lines",
    ) -> None:
        super().__init__()
        self._pyramid = pyramid
        self._config = config
        self._engine_factory = engine_factory
        self._framing = check_framing(framing)

    @property
    def server(self) -> ForeCacheSocketServer | None:
        """The underlying asyncio server (set once :meth:`start` returns)."""
        return self._endpoint

    def _build(self) -> ForeCacheSocketServer:
        return ForeCacheSocketServer(
            ForeCacheService(
                self._pyramid, self._config, engine_factory=self._engine_factory
            ),
            framing=self._framing,
        )


# ----------------------------------------------------------------------
# clients: I/O shells around one ClientConnection
# ----------------------------------------------------------------------
def _core_attribute(name: str) -> property:
    """Expose one attribute of a shell's connection core (where it is
    documented) on the shell itself."""
    return property(lambda self: getattr(self._core, name))


class SocketTransport:
    """Blocking-socket client transport; multiplexes sessions over one
    TCP connection.

    ``pyramid`` is the client's local copy of the tile-grid metadata
    (a real visualizer downloads it once at startup); it is only needed
    when a :class:`~repro.middleware.client.BrowsingSession` should
    validate moves client-side — trace replay works without it.
    """

    client_name = "forecache-python"

    push_enabled = _core_attribute("push_enabled")
    payload = _core_attribute("payload")
    server_version = _core_attribute("server_version")
    server_name = _core_attribute("server_name")
    server_max_frame_bytes = _core_attribute("server_max_frame_bytes")
    bytes_sent = _core_attribute("bytes_sent")
    bytes_received = _core_attribute("bytes_received")
    wire_sent = _core_attribute("wire_sent")
    wire_received = _core_attribute("wire_received")

    def __init__(
        self,
        host: str,
        port: int,
        pyramid: TilePyramid | None = None,
        *,
        framing: str = "lines",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout: float | None = 30.0,
        push: bool = False,
        push_cache_capacity: int = 32,
        payload: str = "json",
        wire_tap: bool = False,
    ) -> None:
        self.pyramid = pyramid
        self._core = ClientConnection(
            framing,
            max_frame_bytes,
            push_cache_capacity=push_cache_capacity,
            wire_tap=wire_tap,
        )
        hello = self._core.hello(self.client_name, push=push, payload=payload)
        self._lock = threading.RLock()
        # _closed is guarded by its own lock so close() can run while a
        # roundtrip holds self._lock blocked in recv.
        self._close_lock = threading.Lock()
        self._closed = False
        self._sock = socket.create_connection((host, port), timeout=timeout)
        try:
            self._core.welcome(self.roundtrip(hello))
        except BaseException:
            self.close()
            raise

    def roundtrip(self, message):
        """Send one message, return the decoded reply.

        The lock serializes concurrent sessions sharing this connection:
        the protocol is strict request/reply, so reply N always answers
        request N (a reply still owed to a posted ack is read first).
        Any failure between send and a fully received reply (socket
        error, recv timeout, framing violation) leaves a reply possibly
        still in flight — the pairing is unrecoverable, so the transport
        closes itself rather than hand request N+1 the answer to request
        N; later calls raise ``SessionClosedError``.
        """
        with self._lock:
            return self._exchange(message)

    def settle(self) -> None:
        """Return once the server has answered everything sent (after
        a local hit ``request()`` returns before the server has seen
        it).  A no-op with nothing owed, and on a closed transport."""
        with self._lock:
            self._exchange()

    def _exchange(self, message=None, settled=None):
        """One turn on the wire, lock held: read the reply a posted ack
        is still owed; send ``message`` (if any) and return its reply —
        or, given ``settled``, post it: no read, the reply owed to it."""
        core = self._core
        try:
            while not (self._closed or core.settle()):
                core.receive(self._sock.recv(_READ_CHUNK))
            if message is None:
                return None
            if self._closed:
                raise SessionClosedError("socket transport is closed")
            if settled is not None:
                return self._sock.sendall(core.post(message, settled))
            self._sock.sendall(core.begin(message))
            while (reply := core.reply()) is None:
                core.receive(self._sock.recv(_READ_CHUNK))
            return reply
        except BaseException:
            if core.reply_outstanding:
                self.close()  # RLock: safe while held
            raise

    def connect(
        self,
        engine: PredictionEngine | None = None,
        session_id: str | None = None,
    ) -> "SocketSessionClient":
        """Open a server-side session; returns its client stub."""
        reply = self.roundtrip(self._core.open_session(engine, session_id))
        return SocketSessionClient(self, *self._core.session_opened(reply))

    def close(self) -> None:
        """Drop the connection (server closes its sessions).  Idempotent.

        Deliberately does *not* take the roundtrip lock: a watchdog
        thread must be able to abort a roundtrip blocked in ``recv``
        (closing the socket is what unblocks it); the interrupted
        roundtrip then surfaces an ``OSError`` and stays closed.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        with contextlib.suppress(OSError):
            self._sock.close()

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SocketSessionClient:
    """One session's client stub over a :class:`SocketTransport`."""

    def __init__(
        self,
        transport: SocketTransport,
        session_id: str,
        push_cache: PushCache | None = None,
    ) -> None:
        self.transport = transport
        self.session_id = session_id
        self.push_cache = push_cache
        self._stub = SessionStub(transport._core, session_id, push_cache)

    @property
    def pyramid(self) -> TilePyramid | None:
        return self.transport.pyramid

    def request(self, move: Move | None, key: TileKey) -> TileResponse:
        """Round-trip one request over the socket — or, when the tile
        was already streamed here, return it from the push cache with
        its ack posted: the transport's next call reads the reply."""
        transport, stub = self.transport, self._stub
        # One lock from settle to send: settling files pushes into any
        # session's cache, so probe and digest must not interleave it.
        with transport._lock:
            transport._exchange()
            message, held_tile = stub.request(move, key)
            if held_tile is None:
                return stub.response(transport._exchange(message))
            response = stub.local_response(held_tile)
            transport._exchange(message, stub.settled)
            return response

    def close(self) -> None:
        """Close the server-side session.  Idempotent; tolerates a
        transport that already went away."""
        with contextlib.suppress(ProtocolError, OSError):
            self.transport.settle()
        message = self._stub.close()
        if message is None:
            return
        try:
            reply = self.transport.roundtrip(message)
        except (ProtocolError, OSError):
            return  # connection gone; the server reaps the session
        self._stub.close_acknowledged(reply)
