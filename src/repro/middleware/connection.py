"""The connection cores: both sides of the wire protocol, without I/O.

Everything an endpoint of the wire protocol must *decide* lives here,
once per side.  :class:`ClientConnection`: the ``hello`` it sends and
what a ``welcome`` may grant, the framing in force, the send and receive
limits, cutting the byte stream back into frames, absorbing
``push_tile`` frames ahead of a reply, and whether the strict
request/reply pairing is still intact.  :class:`ServerConnection`: what
a client may send and when, what its ``hello`` is granted and the
framing flip behind that grant, the framing of every reply, the typed
reply to anything refused and whether it ends the connection, and which
sessions the connection may address.  Nothing here moves a byte: this
module imports no ``socket``, ``asyncio``, ``threading`` or
``selectors`` (a structural test asserts it).

A *transport* is the I/O shell around one :class:`ClientConnection` —
:class:`~repro.middleware.net.SocketTransport` (blocking sockets) and
the cluster router's backend link (asyncio streams) run the same loop::

    try:
        while not core.settle():           # a posted ack's reply is owed
            core.receive(recv())
        frame = core.begin(message)        # raises before any byte moves
        send(frame)
        while (reply := core.reply()) is None:
            core.receive(recv())
    except BaseException:
        if core.reply_outstanding:         # the pairing is lost
            drop the connection
        raise

A session client that finds its tile in the push cache *posts* its
``push_ack`` instead — ``send(core.post(message, settled))``, no read —
and returns the held tile: think time, not the user, waits for the
server's round, and the next exchange (any session's) settles first.
The router's link never posts, so its loop has no settle step.

The one shell around :class:`ServerConnection` is the serve loop the
socket server and the cluster router share
(:meth:`~repro.middleware.net._WireServer._serve_connection`): per read,
``receive``; per frame, ``admit``, the endpoint's handler, then ``send``
for each reply — or ``refuse`` for whatever either raised.

:class:`SessionStub` is the same idea one level up: what one session
sends for ``(move, key)`` and how the reply becomes the in-process
:class:`~repro.middleware.service.TileResponse`, which
:class:`~repro.middleware.net.SocketSessionClient` moves over its
transport.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.middleware import protocol
from repro.middleware.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    PAYLOADS,
    SUPPORTED_VERSIONS,
    CloseSession,
    ErrorInfo,
    FrameDecoder,
    Hello,
    InvalidRequestError,
    OpenSession,
    ProtocolError,
    PushAck,
    PushTile,
    SessionInfo,
    SessionNotFoundError,
    TileRef,
    TileRequest,
    Welcome,
    check_framing,
    decode_wire,
    encode_wire,
    frame_type,
    negotiate_payload,
    negotiate_version,
)
from repro.middleware.push import PushCache
from repro.middleware.service import PushHitResult, TileResponse
from repro.middleware.transport import response_to_client
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.reduce import upsample_tile


def check_payload(payload: str) -> str:
    if payload not in PAYLOADS:
        raise ValueError(
            f"payload must be one of {PAYLOADS}, got {payload!r}"
        )
    return payload


class OpaqueFrame(NamedTuple):
    """A frame forwarded unopened: its type name (read from its tag) and
    the frame as cut — a JSON text, or a binary body."""

    type: str
    body: str | bytes


def decode_opaque(frame) -> OpaqueFrame:
    """:func:`decode_wire` for a forwarder: every frame comes back as an
    :class:`OpaqueFrame`, only its type tag read (:func:`frame_type`)."""
    return OpaqueFrame(frame_type(frame), frame)


class ClientConnection:
    """The protocol state of one client connection.

    The protocol is strict request/reply, so the owner serializes
    :meth:`begin` … :meth:`reply` pairs (the transports hold a lock
    around them).  ``wire_tap=True`` also records every byte framed and
    fed (conformance tests assert whole streams byte-identical across
    negotiation outcomes).
    """

    def __init__(
        self,
        framing: str = "lines",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        *,
        push_cache_capacity: int = 32,
        wire_tap: bool = False,
    ) -> None:
        #: Framing actually on the wire right now — starts as the JSON
        #: framing, flips to "binary" if the handshake grants it.
        self.wire = check_framing(framing)
        #: Outgoing limit; clamped to the server's advertised budget after
        #: the handshake, so an over-limit request fails locally (and
        #: recoverably) instead of tripping the server's decoder — which
        #: hangs up and would take every session on this connection down.
        self.send_limit = max_frame_bytes
        self._decoder = FrameDecoder(framing, max_frame_bytes)
        self._pending: deque[str | bytes] = deque()
        #: A request has been framed and its reply is not yet out of the
        #: stream.  A failure while this is set leaves that reply
        #: possibly still in flight — the pairing is unrecoverable, and
        #: the owner must drop the connection rather than hand request
        #: N+1 the answer to request N.
        self.reply_outstanding = False
        #: What takes the reply owed to a posted message (:meth:`post`).
        self._owed = None
        self._offered_push = False
        self._offered_payload = "json"
        #: True once both sides agreed on push (requested AND granted).
        self.push_enabled = False
        #: Payload encoding in force ("json" until the handshake grants
        #: more).
        self.payload = "json"
        #: Negotiated protocol revision and the server's advertised limits.
        self.server_version: int | None = None
        self.server_name = ""
        self.server_max_frame_bytes = 0
        self.push_cache_capacity = push_cache_capacity
        #: Per-session push caches (only populated on push connections).
        self._push_caches: dict[str, PushCache] = {}
        #: Wire byte counters, always on (cheap integer adds) — the
        #: benchmark's bytes-per-tile numbers come straight from here.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.wire_sent: bytearray | None = bytearray() if wire_tap else None
        self.wire_received: bytearray | None = (
            bytearray() if wire_tap else None
        )

    # ------------------------------------------------------------------
    # handshake
    # ------------------------------------------------------------------
    def hello(
        self, client: str, *, push: bool = False, payload: str = "json"
    ) -> Hello:
        """The opening frame; remembers what it offered so
        :meth:`welcome` can refuse a grant that was never asked for."""
        self._offered_push = push
        self._offered_payload = check_payload(payload)
        return Hello(
            versions=SUPPORTED_VERSIONS,
            client=client,
            push=push,
            payloads=("json", "binary") if payload == "binary" else ("json",),
        )

    def welcome(self, reply) -> Welcome:
        """Validate the reply to :meth:`hello` and put what it grants
        in force; raises (typed) on anything but a legal welcome."""
        if isinstance(reply, ErrorInfo):
            raise reply.to_exception()
        if not isinstance(reply, Welcome):
            raise ProtocolError(
                f"expected welcome, got {type(reply).__name__}"
            )
        if reply.payload == "binary" and self._offered_payload != "binary":
            raise ProtocolError(
                "server granted the binary payload encoding this "
                "client never offered"
            )
        if reply.payload not in PAYLOADS:
            raise ProtocolError(
                f"server granted unknown payload encoding {reply.payload!r}"
            )
        self.server_version = reply.version
        self.server_name = reply.server
        self.server_max_frame_bytes = reply.max_frame_bytes
        self.push_enabled = bool(self._offered_push and reply.push)
        self.payload = reply.payload
        if self.payload == "binary":
            # The welcome itself arrived in the JSON framing; everything
            # after it — both directions — speaks binary framing.  The
            # strict request/reply pairing guarantees nothing else is
            # buffered at this point.
            self.wire = "binary"
            self._decoder.switch_to_binary()
        if reply.max_frame_bytes > 0:
            self.send_limit = min(self.send_limit, reply.max_frame_bytes)
            # Receiving is sized to the server's budget too: the server
            # never frames a reply above its advertised limit, so a
            # legitimate large response must not trip our decoder and
            # take the connection down.
            self._decoder.max_frame_bytes = max(
                self._decoder.max_frame_bytes, reply.max_frame_bytes
            )
        return reply

    # ------------------------------------------------------------------
    # one request/reply exchange
    # ------------------------------------------------------------------
    def begin(self, message) -> bytes:
        """Frame one request; its reply is outstanding from here on.

        An over-limit request raises here, before any bytes move — a
        local, recoverable failure that leaves the stream synced.
        """
        if self._owed is not None:
            raise RuntimeError("a posted message's reply is owed: settle first")
        frame = encode_wire(message, self.wire, self.send_limit)
        self.reply_outstanding = True
        self.bytes_sent += len(frame)
        if self.wire_sent is not None:
            self.wire_sent += frame
        return frame

    def receive(self, data: bytes) -> None:
        """Feed whatever the peer sent (``b""`` = it hung up)."""
        if not data:
            raise ProtocolError("server closed the connection")
        self.bytes_received += len(data)
        if self.wire_received is not None:
            self.wire_received += data
        self._pending.extend(self._decoder.feed(data))

    def reply(self, decode=decode_wire, on_push=None):
        """The reply to the outstanding request, or ``None`` while its
        bytes are still to come (then :meth:`receive` more and ask again).

        On push connections the server may precede the reply with
        ``push_tile`` frames; each goes to ``on_push`` — by default into
        the addressed session's :class:`PushCache` — in wire order,
        before the reply is returned.  ``decode`` turns a cut frame into
        a message (a forwarder passes :func:`decode_opaque`).
        """
        while self._pending:
            frame = self._pending.popleft()
            if not self.push_enabled:
                # The frame was fully consumed, so the stream stays in
                # sync even if its content fails to decode.
                self.reply_outstanding = False
                return decode(frame)
            # Unlike the pull-only path, a decode failure is fatal
            # here: an undecodable frame might have been a push, so
            # "which frame answers the request" is no longer knowable.
            message = decode(frame)
            if isinstance(message, PushTile) or (
                isinstance(message, OpaqueFrame) and message.type == "push_tile"
            ):
                (on_push or self._absorb_push)(message)
                continue
            self.reply_outstanding = False
            return message
        return None

    def post(self, message, settled) -> bytes:
        """:meth:`begin` for a message nobody waits on: its reply stays
        *owed* until the next exchange's :meth:`settle` hands it to
        ``settled(reply)``.  Nothing is framed while one is owed."""
        frame = self.begin(message)
        self._owed = settled
        return frame

    def settle(self) -> bool:
        """True once no reply is owed; False while the owed one's bytes
        are still to come (then :meth:`receive` more and ask again).
        Pushes ahead of it are absorbed as :meth:`reply` absorbs them."""
        if self._owed is not None:
            if (reply := self.reply()) is None:
                return False
            settled, self._owed = self._owed, None
            settled(reply)
        return True

    def _absorb_push(self, message: PushTile) -> None:
        """File one unsolicited pushed tile into its session's cache.

        A coarse frame (``fidelity < 1``) is upsampled back to full tile
        shape — the stand-in a client renders while the refinement frame
        is still in flight; the cache's fidelity tracking upgrades it in
        place when that frame lands.
        """
        cache = self._push_caches.get(message.session_id)
        if cache is not None and message.payload is not None:
            tile = message.payload.to_tile()
            if message.fidelity < 1.0:
                tile = upsample_tile(tile, int(round(1.0 / message.fidelity)))
            cache.put(tile, fidelity=message.fidelity)

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def open_session(self, engine, session_id) -> OpenSession:
        """The message that opens a server-side session.

        Engines live server-side (the server's ``engine_factory`` builds
        one per session); passing one here is a usage error.
        """
        if engine is not None:
            raise ValueError(
                "socket sessions get their engine from the server's "
                "engine_factory; pass engine=None"
            )
        return OpenSession(
            session_id=str(session_id) if session_id is not None else None
        )

    def session_opened(self, reply) -> "tuple[str, PushCache | None]":
        """Check the reply to :meth:`open_session`; returns the session
        id and — on push connections — its freshly registered cache."""
        if isinstance(reply, ErrorInfo):
            raise reply.to_exception()
        if not isinstance(reply, SessionInfo):
            raise ProtocolError(
                f"expected session_info, got {type(reply).__name__}"
            )
        push_cache: PushCache | None = None
        if self.push_enabled:
            push_cache = PushCache(capacity=self.push_cache_capacity)
            self._push_caches[reply.session_id] = push_cache
        return reply.session_id, push_cache

    def drop_push_cache(self, session_id: str) -> None:
        self._push_caches.pop(session_id, None)


#: The message types a client may send.  A serving endpoint has one
#: handler per member; anything else a client frames is refused.
CLIENT_MESSAGES = frozenset(
    cls for cls in MESSAGE_TYPES.values() if cls.client_sends
)


class ServerConnection:
    """The protocol state of one served connection.

    Bytes in, frames out of :meth:`receive`; a frame in, an admitted
    message out of :meth:`admit`; a message (or pre-encoded bytes) in,
    frame bytes out of :meth:`send`.  What the endpoint's handler does
    with an admitted message is its own business, except for the one
    decision a ``hello`` needs (:meth:`welcome`).  Every method returns
    or raises a :class:`ProtocolError`; :meth:`refuse` turns anything
    raised into the reply that goes out instead.
    """

    def __init__(
        self,
        framing: str = "lines",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        #: Framing in force, both directions — starts as the endpoint's
        #: JSON framing, flips to "binary" right after a welcome that
        #: grants the binary payload encoding has been framed.
        self.wire = check_framing(framing)
        #: This endpoint's frame budget, in and out.
        self.max_frame_bytes = max_frame_bytes
        self._decoder = FrameDecoder(framing, max_frame_bytes)
        #: True once a ``hello`` was granted (:meth:`welcome`).
        self.negotiated = False
        #: Push was asked for by the client AND offered by the endpoint.
        self.push = False
        #: Payload encoding granted ("json" until a welcome says more).
        self.payload = "json"
        #: Sessions opened over — and only addressable from — this
        #: connection; the endpoint adds, discards, and reaps the rest.
        self.sessions: set[str] = set()
        # Whether refusing what is in hand ends the connection.
        self._hang_up = False

    def receive(self, data: bytes) -> "list[str | bytes]":
        """Feed what the client sent; returns the frames it completed.
        Raises (the typed ``FramingError`` family) when the byte stream
        itself is broken: answered, then hung up on."""
        try:
            return self._decoder.feed(data)
        except ProtocolError:
            self._hang_up = True
            raise

    def admit(self, frame):
        """Decode one frame and check it against the dispatch guard:
        the connection opens with a ``hello``, a ``hello`` comes once,
        and only :data:`CLIENT_MESSAGES` are served.  Returns the
        message for its handler; raises its typed refusal."""
        # A malformed message on a healthy frame stream is answered and
        # the connection keeps serving, handshake or not.
        self._hang_up = False
        try:
            if isinstance(frame, str):
                message = decode_wire(frame)
                kind = type(message)
            else:
                # No client message has a binary body, so the guard below
                # refuses every such frame — from its header: the blob
                # behind it is never inflated.
                message, kind = None, MESSAGE_TYPES[frame_type(frame)]
        except ProtocolError:
            raise
        except Exception as exc:
            # One reply or one typed error per frame, whatever a field
            # of outside input managed to raise.
            raise InvalidRequestError(f"malformed message: {exc}") from None
        # Before the handshake completes there is no negotiated state to
        # keep serving on: a refusal from here on — the guard's or the
        # hello handler's own — is answered, then hung up on.
        self._hang_up = not self.negotiated
        if kind is Hello:
            if self.negotiated:
                # A repeated hello must not re-run the negotiation: the
                # framing in force would no longer match the welcome.
                raise InvalidRequestError("handshake already completed")
        elif not self.negotiated:
            raise InvalidRequestError(
                "connection must open with a hello frame, got "
                f"{kind.__name__}"
            )
        if kind not in CLIENT_MESSAGES:
            raise InvalidRequestError(f"cannot serve {kind.__name__} messages")
        return message

    def welcome(
        self,
        hello: Hello,
        *,
        server: str,
        push: bool,
        payloads,
        max_frame_bytes: int | None = None,
    ) -> Welcome:
        """Grant a ``hello`` out of what the endpoint can offer *this*
        client (a router passes the intersection over its workers).

        ``push`` and ``"binary"`` are granted only when the hello asked
        too, so a legacy peer keeps the exact pre-push, JSON-only
        protocol.  A version mismatch raises with nothing recorded.  The
        grant is in force on return, except the framing: the welcome
        itself still leaves in the pre-handshake framing (:meth:`send`).
        """
        version = negotiate_version(hello.versions)
        self.negotiated = True
        self.push = bool(hello.push and push)
        self.payload = negotiate_payload(hello.payloads, payloads)
        if max_frame_bytes is None:
            max_frame_bytes = self.max_frame_bytes
        return Welcome(
            version=version,
            server=server,
            max_frame_bytes=max_frame_bytes,
            push=self.push,
            payload=self.payload,
        )

    def send(self, message) -> bytes:
        """Frame one outgoing message in the framing in force.
        Pre-encoded ``bytes`` pass through: tile-bearing frames are
        built where their tile is at hand (push frames also because
        their size is charged against the push budget), and a router's
        forwarded frames were never opened."""
        if isinstance(message, bytes):
            return message
        try:
            data = encode_wire(message, self.wire, self.max_frame_bytes)
        except ProtocolError as exc:
            # The *reply* outgrew the frame budget (giant tile
            # payload); report that instead of silently dropping it.
            data = encode_wire(ErrorInfo.from_exception(exc), self.wire)
        if self.payload == "binary" and self.wire != "binary":
            # That was the welcome granting "binary", framed as the
            # hello was: every frame after it — both directions —
            # speaks binary (a client sends nothing past its hello
            # until it has read this).
            self.wire = "binary"
            self._decoder.switch_to_binary()
        return data

    def refuse(self, exc: BaseException) -> "tuple[bytes, bool]":
        """The typed reply to whatever :meth:`receive`, :meth:`admit`
        or a handler raised, and whether to hang up after sending it."""
        return self.send(ErrorInfo.from_exception(exc)), self._hang_up

    def require_session(self, session_id: str) -> str:
        if session_id not in self.sessions:
            # Per-connection isolation: a session another client opened
            # is invisible here, even if it exists behind the endpoint.
            raise SessionNotFoundError(
                f"session {session_id!r} is not open on this connection",
                session_id=session_id,
            )
        return session_id

    def require_push(self, session_id: str) -> str:
        """A ``push_ack`` is served only where push was negotiated."""
        if not self.push:
            raise InvalidRequestError(
                "push_ack on a connection that did not negotiate push",
                session_id=session_id,
            )
        return session_id


class SessionStub:
    """One session's side of the protocol, for any transport's client.

    On push connections the stub consults its :class:`PushCache` before
    touching the wire: a held tile is answered locally and the server is
    told via ``push_ack`` (so its prediction engine still observes the
    move); every wire request carries the cache digest so the server
    never re-streams a held tile.  The session clients *post* that ack:
    the caller has its tile (:meth:`local_response`) before the server
    has seen the move, and a reply that turns out a failure
    (:meth:`settled`) is raised by this session's next :meth:`request`
    or :meth:`close` — whichever session's call happened to read it.
    """

    def __init__(
        self,
        connection: ClientConnection,
        session_id: str,
        push_cache: PushCache | None = None,
    ) -> None:
        self.connection = connection
        self.session_id = session_id
        self.push_cache = push_cache
        self.closed = False
        # What the held tile was held at when probed: the round its ack
        # starts may evict or upgrade the key under it.
        self._fidelity = 1.0
        self._failure: ProtocolError | None = None

    def _raise_failure(self) -> None:
        if self._failure is not None:
            failure, self._failure = self._failure, None
            raise failure

    def request(self, move: Move | None, key: TileKey):
        """What to send for ``(move, key)``: ``(message, held_tile)``.

        ``held_tile`` is the push cache's copy when the tile was already
        streamed here (the message is then a ``push_ack`` reporting the
        local hit), else ``None`` (a ``tile_request``).  Raises first,
        with nothing probed, what this session's posted ack failed with.
        """
        self._raise_failure()
        # The member's value without the enum property's frames.
        move_name = move._value_ if move is not None else None
        held = None
        if self.push_cache is not None:
            entry = self.push_cache.probe(key)
            held = self.push_cache.held()
            if entry is not None:
                tile, self._fidelity, ref = entry
                ack = PushAck(self.session_id, held, move=move_name, tile=ref)
                return ack, tile
        request = TileRequest(
            session_id=self.session_id,
            tile=TileRef.from_key(key),
            move=move_name,
            held=held,
        )
        return request, None

    def local_response(self, held_tile) -> TileResponse:
        """The response to a request found held, from what this side
        knows: a push hit's declared latency and ``hit``, the fidelity
        the tile was held at when probed — and no ``phase`` /
        ``prefetched``, which the server has yet to decide."""
        known = PushHitResult(phase=None)
        return TileResponse(
            held_tile, known.latency_seconds, known.hit, None, fidelity=self._fidelity
        )

    def response(self, reply) -> TileResponse:
        """Turn the reply to a ``tile_request`` into the in-process
        response."""
        return response_to_client(reply)

    @staticmethod
    def _check_hit_reply(reply) -> None:
        if isinstance(reply, ErrorInfo):
            raise reply.to_exception()
        if not isinstance(reply, protocol.TileResponse):
            raise ProtocolError(f"expected tile_response, got {type(reply).__name__}")

    def settled(self, reply) -> None:
        """Take the reply to a posted ack: a typed error or a message of
        another type than ``tile_response`` kept for this session's next
        call, its values dropped (the caller was answered long ago)."""
        try:
            self._check_hit_reply(reply)
        except ProtocolError as exc:
            self._failure = exc

    def close(self) -> CloseSession | None:
        """The message that closes the server-side session, or ``None``
        when this stub already closed (close is idempotent).  Raises
        first what :meth:`request` would."""
        self._raise_failure()
        if self.closed:
            return None
        self.closed = True
        self.connection.drop_push_cache(self.session_id)
        return CloseSession(self.session_id)

    @staticmethod
    def close_acknowledged(reply) -> None:
        """Check the reply to :meth:`close`; a session the server
        already reaped is not an error."""
        if isinstance(reply, ErrorInfo):
            exc = reply.to_exception()
            if not isinstance(exc, SessionNotFoundError):
                raise exc
