"""The connection cores, driven with bytes only.

:mod:`repro.middleware.connection` holds both sides of the wire
protocol without any I/O, so everything here feeds a core byte strings
and reads its answers — no socket is opened by a test body.  (The one
recorded session comes from a real push server's ``wire_tap``, in a
module fixture; its two byte streams are then replayed into bare cores:
the server's into a :class:`ClientConnection`, the client's into a
:class:`ServerConnection`.)
"""

from __future__ import annotations

import ast
import inspect
import json
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware import connection, net, protocol
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.connection import (
    ClientConnection,
    OpaqueFrame,
    ServerConnection,
    SessionStub,
    decode_opaque,
)
from repro.middleware.net import SocketTransport, ThreadedSocketServer, _WireServer
from repro.middleware.protocol import (
    MESSAGE_TYPES,
    PAYLOADS,
    CloseSession,
    ErrorInfo,
    FrameDecoder,
    FrameTooLargeError,
    FramingError,
    Hello,
    OpenSession,
    ProtocolError,
    PushAck,
    PushTile,
    SessionInfo,
    SessionNotFoundError,
    TilePayload,
    TileRef,
    TileRequest,
    VersionMismatchError,
    Welcome,
    decode_wire,
    encode_frame,
    encode_wire,
)
from repro.middleware.push import PushCache
from repro.middleware.service import PushHitResult, TileResponse
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.reduce import downsample_tile
from test_protocol import bomb_body, traced_peak
from test_push import held_response


def handshaken(
    *, framing="lines", push=False, payload="json", grant_push=None, **kwargs
) -> ClientConnection:
    """A core past its handshake, the welcome fed as bytes."""
    core = ClientConnection(framing, **kwargs)
    core.begin(core.hello("test", push=push, payload=payload))
    welcome = Welcome(
        version=1,
        server="fake",
        max_frame_bytes=1 << 20,
        push=push if grant_push is None else grant_push,
        payload=payload,
    )
    core.receive(encode_wire(welcome, framing))
    core.welcome(core.reply())
    return core


def session_info(session_id="s") -> SessionInfo:
    return SessionInfo(
        session_id=session_id,
        requests=0,
        hits=0,
        hit_rate=0.0,
        average_latency_seconds=0.0,
        open=True,
        prefetch_mode="sync",
    )


def open_session(core: ClientConnection, session_id="s"):
    """Run the open_session exchange against canned bytes."""
    core.begin(core.open_session(None, session_id))
    core.receive(encode_wire(session_info(session_id), core.wire))
    return core.session_opened(core.reply())


def tile_reply(tile, session_id="s") -> protocol.TileResponse:
    return protocol.TileResponse(
        session_id=session_id,
        tile=TileRef.from_key(tile.key),
        latency_seconds=0.0195,
        hit=True,
        payload=TilePayload.from_tile(tile),
    )


def push_frame(tile, *, fidelity=1.0, rank=0, session_id="s") -> PushTile:
    return PushTile(
        session_id=session_id,
        tile=TileRef.from_key(tile.key),
        rank=rank,
        generation=1,
        utility=1.0,
        payload=TilePayload.from_tile(tile),
        fidelity=fidelity,
    )


# ----------------------------------------------------------------------
# handshake
# ----------------------------------------------------------------------
class TestHandshake:
    def test_hello_offers_what_was_asked(self):
        core = ClientConnection()
        assert core.hello("me").payloads == ("json",)
        hello = core.hello("me", push=True, payload="binary")
        assert (hello.client, hello.push) == ("me", True)
        assert hello.payloads == ("json", "binary")
        with pytest.raises(ValueError):
            core.hello("me", payload="msgpack")
        with pytest.raises(ValueError):
            ClientConnection("carrier-pigeon")

    def test_grant_puts_binary_push_and_limits_in_force(self):
        core = ClientConnection("length", 4096)
        core.begin(core.hello("me", push=True, payload="binary"))
        welcome = Welcome(
            version=1, server="srv", max_frame_bytes=1024, push=True,
            payload="binary",
        )
        core.receive(encode_wire(welcome, "length"))
        assert core.welcome(core.reply()) == welcome
        assert core.push_enabled and core.payload == "binary"
        assert core.wire == "binary"
        assert (core.server_version, core.server_name) == (1, "srv")
        # Sending is clamped down to the server's budget ...
        assert core.send_limit == 1024
        with pytest.raises(protocol.FrameTooLargeError):
            core.begin(OpenSession(session_id="x" * 2048))
        assert not core.reply_outstanding  # nothing was framed
        # ... and the next frame is cut under the binary framing.
        core.begin(OpenSession(session_id="s"))
        core.receive(encode_wire(session_info(), "binary"))
        assert core.reply() == session_info()

    def test_receive_limit_rises_to_the_servers_budget(self):
        core = ClientConnection("lines", 128)
        core.begin(core.hello("me"))
        core.receive(
            encode_wire(Welcome(version=1, max_frame_bytes=1 << 16), "lines")
        )
        core.welcome(core.reply())
        assert core.send_limit == 128  # never raised above the local limit
        core.begin(OpenSession(session_id="s"))
        core.receive(encode_wire(session_info("s" * 500), "lines"))
        assert core.reply().session_id == "s" * 500

    def test_denied_capabilities_stay_off(self):
        core = handshaken(push=True, grant_push=False)
        assert not core.push_enabled and core.payload == "json"
        assert core.wire == "lines"
        # A server volunteering push nobody asked for is ignored.
        assert not handshaken(push=False, grant_push=True).push_enabled

    def test_unoffered_binary_grant_is_refused(self):
        core = ClientConnection()
        core.hello("me")
        with pytest.raises(ProtocolError, match="never offered"):
            core.welcome(Welcome(version=1, payload="binary"))
        assert core.wire == "lines" and core.payload == "json"

    def test_unknown_payload_grant_is_refused(self):
        core = ClientConnection()
        core.hello("me", payload="binary")
        with pytest.raises(ProtocolError, match="unknown payload"):
            core.welcome(Welcome(version=1, payload="msgpack"))

    def test_typed_error_and_wrong_reply_raise(self):
        core = ClientConnection()
        core.hello("me")
        refusal = ErrorInfo.from_exception(VersionMismatchError("no common"))
        with pytest.raises(VersionMismatchError):
            core.welcome(refusal)
        with pytest.raises(ProtocolError, match="expected welcome"):
            core.welcome(session_info())


# ----------------------------------------------------------------------
# request/reply exchanges
# ----------------------------------------------------------------------
class TestExchange:
    def test_reply_is_none_until_its_last_byte_arrives(self):
        core = handshaken()
        frame = encode_wire(session_info(), "lines")
        core.begin(OpenSession(session_id="s"))
        assert core.reply() is None and core.reply_outstanding
        core.receive(frame[:-1])
        assert core.reply() is None and core.reply_outstanding
        core.receive(frame[-1:])
        assert core.reply() == session_info()
        assert not core.reply_outstanding

    def test_counters_and_tap_see_every_byte(self):
        core = handshaken(wire_tap=True)
        sent, received = core.bytes_sent, core.bytes_received
        assert (sent, received) == (len(core.wire_sent), len(core.wire_received))
        frame = core.begin(OpenSession(session_id="s"))
        reply = encode_wire(session_info(), "lines")
        core.receive(reply)
        assert core.bytes_sent == sent + len(frame)
        assert core.bytes_received == received + len(reply)
        assert core.wire_sent.endswith(frame)
        assert core.wire_received.endswith(reply)
        assert handshaken().wire_sent is None

    def test_hangup_is_a_typed_error_with_the_reply_outstanding(self):
        core = handshaken()
        core.begin(OpenSession(session_id="s"))
        with pytest.raises(ProtocolError, match="closed the connection"):
            core.receive(b"")
        assert core.reply_outstanding

    def test_pull_mode_undecodable_frame_leaves_the_stream_in_sync(self):
        core = handshaken()
        core.begin(OpenSession(session_id="s"))
        core.receive(b'{"type": "no_such_message"}\n')
        with pytest.raises(ProtocolError):
            core.reply()
        # The frame was consumed whole: the pairing is intact and the
        # next exchange works.
        assert not core.reply_outstanding
        core.begin(OpenSession(session_id="s"))
        core.receive(encode_wire(session_info(), "lines"))
        assert core.reply() == session_info()

    def test_push_mode_undecodable_frame_loses_the_pairing(self):
        core = handshaken(push=True)
        core.begin(OpenSession(session_id="s"))
        core.receive(b'{"type": "no_such_message"}\n')
        with pytest.raises(ProtocolError):
            core.reply()
        assert core.reply_outstanding  # it might have been a push

    @pytest.mark.parametrize("push", [False, True])
    def test_framing_error_loses_the_pairing(self, push):
        core = handshaken(framing="length", push=push)
        core.begin(OpenSession(session_id="s"))
        with pytest.raises(FramingError):
            core.receive((1 << 30).to_bytes(4, "big") + b"x")
        assert core.reply_outstanding

    def test_pushes_are_absorbed_in_wire_order_before_the_reply(
        self, tiny_dataset
    ):
        pyramid = tiny_dataset.pyramid
        wanted = pyramid.fetch_tile(TileKey(2, 0, 0))
        pushed = pyramid.fetch_tile(TileKey(2, 1, 0))
        coarse = downsample_tile(pushed, 4)
        core = handshaken(push=True)
        _, cache = open_session(core)
        stream = b"".join(
            encode_wire(message, "lines")
            for message in (
                push_frame(coarse, fidelity=0.25),
                push_frame(pushed, rank=1),
                tile_reply(wanted),
            )
        )
        core.begin(TileRequest(session_id="s", tile=TileRef(2, 0, 0)))
        core.receive(stream[:100])
        assert core.reply() is None and len(cache) == 0
        core.receive(stream[100:])
        assert core.reply() == tile_reply(wanted)
        # Coarse first, refinement second: the cache ends at full
        # fidelity, upgraded in place, holding the full-resolution block.
        assert cache.digest() == [pushed.key]
        assert cache.fidelity(pushed.key) == 1.0 and cache.upgraded == 1
        held = cache.get(pushed.key)
        for name, block in pushed.attributes.items():
            assert np.array_equal(held.attributes[name], block)

    def test_coarse_push_is_upsampled_to_full_tile_shape(self, tiny_dataset):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(2, 1, 1))
        core = handshaken(push=True)
        _, cache = open_session(core)
        core.begin(TileRequest(session_id="s", tile=TileRef(2, 0, 0)))
        core.receive(
            encode_wire(
                push_frame(downsample_tile(tile, 4), fidelity=0.25), "lines"
            )
            + encode_wire(session_info(), "lines")
        )
        core.reply()
        assert cache.get(tile.key).shape == tile.shape
        assert cache.fidelity(tile.key) == 0.25

    def test_a_forwarder_collects_pushes_and_keeps_bodies_opaque(
        self, tiny_dataset
    ):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(2, 0, 0))
        core = handshaken(framing="length", push=True, payload="binary")
        open_session(core)
        push = encode_wire(push_frame(tile), "binary")
        reply = encode_wire(tile_reply(tile), "binary")
        core.begin(TileRequest(session_id="s", tile=TileRef(2, 0, 0)))
        core.receive(push + reply)
        pushes: list = []
        answer = core.reply(decode_opaque, pushes.append)
        assert [frame.type for frame in pushes] == ["push_tile"]
        assert isinstance(answer, OpaqueFrame)
        assert answer.type == "tile_response"
        # Header + body is the frame as the worker sent it.
        assert reply.endswith(answer.body) and push.endswith(pushes[0].body)
        assert decode_wire(answer.body) == tile_reply(tile)
        # A JSON frame is opaque too: its text is read for the tag alone.
        text = '{"type": "open_session", "unknown": 1}'
        assert decode_opaque(text) == OpaqueFrame("open_session", text)


# ----------------------------------------------------------------------
# the serving side: dispatch guard, handshake, flip, replies
# ----------------------------------------------------------------------
def offer(payload="json", **fields) -> Hello:
    payloads = ("json", "binary") if payload == "binary" else ("json",)
    return Hello(client="test", payloads=payloads, **fields)


def grant(conn: ServerConnection, hello: Hello, **capabilities) -> bytes:
    """Feed ``hello`` as bytes and run the handshake the way an
    endpoint's handler does; returns the welcome's frame."""
    (frame,) = conn.receive(encode_wire(hello, conn.wire))
    capabilities = {"server": "srv", "push": True, "payloads": PAYLOADS,
                    **capabilities}
    return conn.send(conn.welcome(conn.admit(frame), **capabilities))


def served(framing="lines", payload="json", **fields) -> ServerConnection:
    """A server core past its handshake."""
    conn = ServerConnection(framing)
    grant(conn, offer(payload, **fields))
    return conn


def sent(data: bytes, framing: str) -> list:
    """The messages in ``data`` as a client under ``framing`` reads them."""
    decoder = FrameDecoder(framing)
    frames = decoder.feed(data)
    assert decoder.buffered == 0
    return [decode_wire(frame) for frame in frames]


def refused(conn: ServerConnection, frame, framing="lines"):
    """Admit ``frame`` expecting a refusal; returns ``(reply, fatal)``."""
    with pytest.raises(ProtocolError) as caught:
        conn.admit(frame)
    data, fatal = conn.refuse(caught.value)
    (reply,) = sent(data, framing)
    assert isinstance(reply, ErrorInfo)
    return reply, fatal


class TestServerGuard:
    def test_a_request_before_hello_is_refused_and_fatal(self):
        conn = ServerConnection()
        (frame,) = conn.receive(encode_wire(OpenSession("sneaky"), "lines"))
        reply, fatal = refused(conn, frame)
        assert reply.code == "invalid_request" and fatal
        assert "must open with a hello" in reply.message
        assert not conn.negotiated and not conn.sessions

    def test_a_repeated_hello_is_refused_and_changes_nothing(self):
        conn = served("length", "binary", push=True)
        state = (conn.wire, conn.payload, conn.push)
        assert state == ("binary", "binary", True)
        (frame,) = conn.receive(encode_wire(offer(), "binary"))
        reply, fatal = refused(conn, frame, "binary")
        assert (reply.code, fatal) == ("invalid_request", False)
        assert "handshake already completed" in reply.message
        assert (conn.wire, conn.payload, conn.push) == state

    def test_a_message_only_servers_send_is_refused(self):
        conn = served()
        for message in (Welcome(version=1), session_info()):
            (frame,) = conn.receive(encode_wire(message, "lines"))
            reply, fatal = refused(conn, frame)
            assert (reply.code, fatal) == ("invalid_request", False)
            assert "cannot serve" in reply.message
        # Before the handshake the same frame is a missing hello.
        fresh = ServerConnection()
        (frame,) = fresh.receive(encode_wire(Welcome(version=1), "lines"))
        reply, fatal = refused(fresh, frame)
        assert "must open with a hello" in reply.message and fatal

    @pytest.mark.parametrize("declared", [64 << 20, 0], ids=["full", "zero"])
    def test_a_binary_body_is_refused_before_its_blob_inflates(self, declared):
        # No client message has a binary body, so its header is enough to
        # refuse it: a zlib bomb behind it is never inflated — whether it
        # declares its full size or none.
        assert not any(cls.binary_body for cls in connection.CLIENT_MESSAGES)
        conn = served("length", "binary")
        (frame,) = conn.receive(encode_frame(bomb_body(declared), "binary"))

        def refuse():
            reply, fatal = refused(conn, frame, "binary")
            assert (reply.code, fatal) == ("invalid_request", False)
            assert reply.message == "cannot serve TileResponse messages"

        assert traced_peak(refuse) < 4 << 20

    @pytest.mark.parametrize("handshaken_first", [False, True])
    def test_a_malformed_message_on_a_healthy_stream_is_answered(
        self, handshaken_first
    ):
        conn = served() if handshaken_first else ServerConnection()
        for line in (b"{not json\n", b'{"type": "no_such_message"}\n', b"[1]\n"):
            (frame,) = conn.receive(line)
            reply, fatal = refused(conn, frame)
            assert (reply.code, fatal) == ("invalid_request", False)
        # The stream is still in sync: the next frame is served.
        message = OpenSession("s") if handshaken_first else offer()
        (frame,) = conn.receive(encode_wire(message, "lines"))
        assert conn.admit(frame) == message

    @pytest.mark.parametrize(
        "framing, payload", [("lines", "json"), ("length", "json"), ("length", "binary")]
    )
    def test_a_hot_set_frame_is_an_unknown_type_on_every_wire(
        self, framing, payload
    ):
        # ``hotspot_gossip`` was once served; now it is refused like any
        # tag the server does not know, and the stream stays in sync.
        conn = served(framing, payload)
        body = b'{"type": "hotspot_gossip", "entries": [[2, 3, 3, 1e300]], "tick": 1000000}'
        if conn.wire == "binary":
            data = b"\x00" + len(body).to_bytes(4, "big") + body
        else:
            data = encode_frame(body.decode(), conn.wire)
        (frame,) = conn.receive(data)
        reply, fatal = refused(conn, frame, conn.wire)
        assert (reply.code, fatal) == ("invalid_request", False)
        assert reply.message == "unknown message type 'hotspot_gossip'"
        (frame,) = conn.receive(encode_wire(OpenSession("s"), conn.wire))
        assert conn.admit(frame) == OpenSession("s")

    @pytest.mark.parametrize("handshaken_first", [False, True])
    def test_broken_framing_is_answered_and_fatal(self, handshaken_first):
        conn = ServerConnection("length", 256)
        if handshaken_first:
            grant(conn, offer())
        with pytest.raises(FrameTooLargeError) as caught:
            conn.receive((257).to_bytes(4, "big"))
        data, fatal = conn.refuse(caught.value)
        assert fatal
        (reply,) = sent(data, "length")
        assert reply.code == "frame_too_large"
        with pytest.raises(FramingError):
            conn.receive(b"more")  # the stream stays dead

    def test_a_refused_handshake_records_nothing_and_is_fatal(self):
        conn = ServerConnection()
        (frame,) = conn.receive(encode_wire(Hello(versions=(99,)), "lines"))
        hello = conn.admit(frame)
        with pytest.raises(VersionMismatchError) as caught:
            conn.welcome(hello, server="srv", push=True, payloads=PAYLOADS)
        data, fatal = conn.refuse(caught.value)
        assert fatal and not conn.negotiated
        assert sent(data, "lines")[0].code == "version_mismatch"

    def test_whatever_a_handler_raises_is_one_typed_reply(self):
        conn = served()
        (frame,) = conn.receive(encode_wire(OpenSession("s"), "lines"))
        conn.admit(frame)
        data, fatal = conn.refuse(ValueError("handler blew up"))
        assert not fatal
        assert sent(data, "lines") == [
            ErrorInfo(code="error", message="handler blew up")
        ]

    def test_whatever_decode_raises_is_a_typed_refusal(self, monkeypatch):
        def explode(frame):
            raise RuntimeError("decoder bug")

        conn = served()
        monkeypatch.setattr(connection, "decode_wire", explode)
        reply, fatal = refused(conn, "{}")
        assert (reply.code, fatal) == ("invalid_request", False)
        assert "decoder bug" in reply.message


class TestServerHandshake:
    def test_a_binary_grant_flips_right_after_its_welcome(self, tiny_dataset):
        conn = ServerConnection("length")
        data = grant(conn, offer("binary"))
        # The welcome itself left in the pre-handshake framing ...
        assert sent(data, "length") == [
            Welcome(
                version=1, server="srv",
                max_frame_bytes=conn.max_frame_bytes, push=False,
                payload="binary",
            )
        ]
        # ... and the very next frame, either direction, is binary.
        assert conn.wire == "binary" and conn.payload == "binary"
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(1, 0, 0))
        reply = conn.send(tile_reply(tile))
        assert reply == encode_wire(tile_reply(tile), "binary")
        request = TileRequest(session_id="s", tile=TileRef(1, 0, 0))
        (frame,) = conn.receive(encode_wire(request, "binary"))
        assert conn.admit(frame) == request

    @pytest.mark.parametrize(
        "hello, payloads",
        [(offer("binary"), ("json",)), (offer("json"), PAYLOADS)],
    )
    def test_a_json_grant_never_flips(self, hello, payloads):
        conn = ServerConnection("length")
        data = grant(conn, hello, payloads=payloads)
        assert sent(data, "length")[0].payload == "json"
        assert (conn.wire, conn.payload) == ("length", "json")
        assert sent(conn.send(session_info()), "length") == [session_info()]
        assert conn.wire == "length"

    @pytest.mark.parametrize(
        "asked, offered, granted",
        [(True, True, True), (True, False, False), (False, True, False)],
    )
    def test_push_needs_both_sides(self, asked, offered, granted):
        conn = ServerConnection()
        (welcome,) = sent(grant(conn, offer(push=asked), push=offered), "lines")
        assert welcome.push is granted and conn.push is granted

    def test_the_endpoint_may_advertise_a_tighter_frame_budget(self):
        conn = ServerConnection("lines", 4096)
        (welcome,) = sent(grant(conn, offer(), max_frame_bytes=1024), "lines")
        assert welcome.max_frame_bytes == 1024
        assert conn.max_frame_bytes == 4096  # its own budget is its own
        assert sent(grant(ServerConnection("lines", 4096), offer()), "lines")[
            0
        ].max_frame_bytes == 4096


class TestServerReplies:
    def test_preencoded_bytes_pass_through(self):
        conn = served()
        assert conn.send(b"already framed") == b"already framed"

    @pytest.mark.parametrize("payload", ["json", "binary"])
    def test_an_oversize_reply_becomes_a_typed_error_frame(
        self, payload, tiny_dataset
    ):
        conn = ServerConnection("length", 512)
        grant(conn, offer(payload))
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(1, 0, 0))
        (reply,) = sent(conn.send(tile_reply(tile)), conn.wire)
        assert isinstance(reply, ErrorInfo)
        assert reply.code == "frame_too_large"

    def test_sessions_are_addressable_from_their_connection_only(self):
        mine, theirs = served(), served()
        mine.sessions.add("alice")
        assert mine.require_session("alice") == "alice"
        with pytest.raises(SessionNotFoundError, match="not open on this"):
            theirs.require_session("alice")
        mine.sessions.discard("alice")
        with pytest.raises(SessionNotFoundError) as caught:
            mine.require_session("alice")
        assert caught.value.session_id == "alice"


#: JSON a hostile client might frame: any value, including the numbers
#: (``1e400`` → ``Infinity``) and nestings ``json.loads`` accepts.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
MESSAGE_FIELDS = (
    "session_id", "tile", "move", "held", "versions", "payloads", "push",
    "rank", "generation", "utility", "payload", "entries", "tick",
    "requests", "hits", "open", "code", "message",
)
MESSAGE_SHAPED = st.fixed_dictionaries(
    {"type": st.sampled_from(sorted(MESSAGE_TYPES))},
    optional={name: JSON_VALUES for name in MESSAGE_FIELDS},
).map(json.dumps)


class TestServerNeverLeaksAnException:
    """One message or one :class:`ProtocolError` per frame, whatever the
    bytes: nothing else may escape the core into a serve loop."""

    @staticmethod
    def drive(conn: ServerConnection, data: bytes) -> None:
        try:
            frames = conn.receive(data)
        except ProtocolError as exc:
            assert conn.refuse(exc)[1]
            return
        for frame in frames:
            try:
                message = conn.admit(frame)
            except ProtocolError as exc:
                data, _ = conn.refuse(exc)
                assert sent(data, conn.wire)[0].code == exc.code
            else:
                assert type(message) in connection.CLIENT_MESSAGES

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.binary(max_size=64),
        framing=st.sampled_from(["lines", "length", "binary"]),
    )
    def test_arbitrary_bytes(self, data, framing):
        if framing == "binary":
            conn = served("length", "binary")
        else:
            conn = ServerConnection(framing)
        self.drive(conn, data)

    @settings(max_examples=300, deadline=None)
    @given(text=MESSAGE_SHAPED, handshaken_first=st.booleans())
    def test_message_shaped_json(self, text, handshaken_first):
        conn = served() if handshaken_first else ServerConnection()
        self.drive(conn, text.encode("utf-8") + b"\n")


# ----------------------------------------------------------------------
# a recorded session, each side re-fed at arbitrary chunk boundaries
# ----------------------------------------------------------------------
PUSH_CONFIG = ServiceConfig(
    prefetch=PrefetchPolicy(k=4, push="on", fidelity="progressive"),
    cache=CacheConfig(recent_capacity=4, prefetch_capacity=8),
)


def pan_walk():
    walk = [(None, TileKey(3, 0, 1))]
    for move in [Move.PAN_RIGHT] * 4 + [Move.PAN_DOWN] * 2:
        walk.append((move, walk[-1][1].apply(move)))
    return walk


@pytest.fixture(scope="module")
def recording(small_dataset):
    """``(client messages, server bytes)`` of one real push session
    (length framing, binary payloads, progressive push)."""
    pyramid = small_dataset.pyramid

    def engine_factory():
        model = MomentumRecommender()
        return PredictionEngine(
            pyramid.grid, {model.name: model}, SingleModelStrategy(model.name)
        )

    with ThreadedSocketServer(
        pyramid, PUSH_CONFIG, engine_factory=engine_factory, framing="length"
    ) as server:
        with SocketTransport(
            *server.address,
            framing="length",
            push=True,
            payload="binary",
            wire_tap=True,
        ) as transport:
            conn = transport.connect(session_id="walker")
            for move, key in pan_walk():
                conn.request(move, key)
            transport.settle()
            assert conn.push_cache.hits > 0 and conn.push_cache.upgraded > 0
            conn.close()
            sent = bytes(transport.wire_sent)
            received = bytes(transport.wire_received)
    # The hello went out length-framed, everything after it binary.
    hello_end = 4 + int.from_bytes(sent[:4], "big")
    decoder = FrameDecoder("length")
    frames = decoder.feed(sent[:hello_end])
    decoder.switch_to_binary()
    frames += decoder.feed(sent[hello_end:])
    # Likewise the welcome.  It is the one chunk edge the replays keep:
    # the framing flips there, and the strict request/reply pairing means
    # no later byte exists before the client has read it.
    welcome_end = 4 + int.from_bytes(received[:4], "big")
    return (
        [decode_wire(frame) for frame in frames],
        sent,
        received[:welcome_end],
        received[welcome_end:],
    )


def replay(recording, chunks):
    """Feed the welcome, then the rest of the recorded server bytes cut
    as ``chunks``, into a bare core; returns its replies, push-cache
    contents and resent bytes."""
    messages, _, welcome, _ = recording
    core = ClientConnection("length", wire_tap=True)
    feed = iter([welcome, *chunks])

    def exchange(message):
        core.begin(message)
        while (reply := core.reply()) is None:
            core.receive(next(feed))
        return reply

    hello = core.hello(messages[0].client, push=True, payload="binary")
    assert hello == messages[0]
    core.welcome(exchange(hello))
    replies, cache = [], None
    for message in messages[1:]:
        reply = exchange(message)
        if isinstance(message, OpenSession):
            _, cache = core.session_opened(reply)
        replies.append(reply)
    assert next(feed, None) is None  # every recorded byte was needed
    held = {
        key: (cache.fidelity(key), cache.get(key).attributes)
        for key in cache.digest()
    }
    return replies, held, bytes(core.wire_sent)


def assert_same_outcome(first, second):
    replies, held, sent = first
    other_replies, other_held, other_sent = second
    assert replies == other_replies and sent == other_sent
    assert held.keys() == other_held.keys()
    for key, (fidelity, blocks) in held.items():
        assert other_held[key][0] == fidelity
        for name, block in blocks.items():
            assert np.array_equal(other_held[key][1][name], block)


class TestRecordedStream:
    def test_whole_stream_reproduces_the_session(self, recording):
        messages, sent, _, received = recording
        replies, held, resent = replay(recording, [received])
        # Framing the decoded requests again gives the client's bytes back.
        assert resent == sent
        assert any(isinstance(m, PushAck) for m in messages)  # local hits
        assert sum(isinstance(r, protocol.TileResponse) for r in replies) == (
            len(pan_walk())
        )
        assert not any(isinstance(r, PushTile) for r in replies)
        assert held  # pushed tiles landed in the session's cache

    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=1), max_size=40))
    def test_any_chunking_gives_the_same_replies_and_cache(
        self, recording, cuts
    ):
        received = recording[3]
        edges = sorted({cut % len(received) for cut in cuts} | {0})
        chunks = [
            received[start:end]
            for start, end in zip(edges, [*edges[1:], len(received)])
        ]
        assert_same_outcome(
            replay(recording, [received]), replay(recording, chunks)
        )

    @pytest.mark.parametrize("size", [1, 7, 4096])
    def test_fixed_size_reads_give_the_same_replies_and_cache(
        self, recording, size
    ):
        received = recording[3]
        chunks = [
            received[start : start + size]
            for start in range(0, len(received), size)
        ]
        assert_same_outcome(
            replay(recording, [received]), replay(recording, chunks)
        )


def admitted(recording, chunks) -> list:
    """Feed the hello, then the rest of the recorded *client* bytes cut
    as ``chunks``, into a bare server core; returns what it admitted.
    (The hello stays its own chunk for the client's reason: the framing
    flips behind the welcome, which a client waits for.)"""
    _, sent_bytes, _, _ = recording
    hello_end = 4 + int.from_bytes(sent_bytes[:4], "big")
    conn = ServerConnection("length")
    (frame,) = conn.receive(sent_bytes[:hello_end])
    hello = conn.admit(frame)
    conn.send(conn.welcome(hello, server="srv", push=True, payloads=PAYLOADS))
    messages = [hello]
    for chunk in chunks:
        messages += [conn.admit(frame) for frame in conn.receive(chunk)]
    return messages


class TestRecordedRequests:
    def test_every_cut_admits_the_recorded_messages(self, recording):
        messages, sent_bytes, _, _ = recording
        rest = sent_bytes[4 + int.from_bytes(sent_bytes[:4], "big") :]
        assert admitted(recording, [rest]) == messages
        assert isinstance(messages[-1], CloseSession)
        for cut in range(1, len(rest)):
            assert admitted(recording, [rest[:cut], rest[cut:]]) == messages

    @pytest.mark.parametrize("size", [1, 7, 4096])
    def test_fixed_size_reads_admit_the_recorded_messages(
        self, recording, size
    ):
        messages, sent_bytes, _, _ = recording
        rest = sent_bytes[4 + int.from_bytes(sent_bytes[:4], "big") :]
        chunks = [rest[i : i + size] for i in range(0, len(rest), size)]
        assert admitted(recording, chunks) == messages


# ----------------------------------------------------------------------
# session stub
# ----------------------------------------------------------------------
class TestSessionStub:
    def test_pull_session_sends_plain_requests(self, tiny_dataset):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(1, 0, 0))
        core = handshaken()
        stub = SessionStub(core, *open_session(core))
        assert stub.push_cache is None
        message, held_tile = stub.request(Move.ZOOM_IN_NW, tile.key)
        assert held_tile is None
        assert message == TileRequest(
            session_id="s", tile=TileRef(1, 0, 0), move="zoom_in_nw"
        )
        response = stub.response(tile_reply(tile))
        assert response.tile.key == tile.key and response.hit
        assert response.latency_seconds == 0.0195

    def test_miss_carries_the_digest_of_held_tiles(self, tiny_dataset):
        pyramid = tiny_dataset.pyramid
        core = handshaken(push=True)
        stub = SessionStub(core, *open_session(core))
        message, _ = stub.request(None, TileKey(0, 0, 0))
        assert message.held == ()  # a push session always reports, even empty
        stub.push_cache.put(pyramid.fetch_tile(TileKey(2, 1, 0)))
        stub.push_cache.put(pyramid.fetch_tile(TileKey(2, 0, 1)))
        message, held_tile = stub.request(Move.PAN_RIGHT, TileKey(2, 3, 3))
        assert held_tile is None and isinstance(message, TileRequest)
        assert message.held == (TileRef(2, 0, 1), TileRef(2, 1, 0))

    def test_held_tile_is_acked_and_answered_locally(self, tiny_dataset):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(2, 1, 0))
        core = handshaken(push=True)
        stub = SessionStub(core, *open_session(core))
        stub.push_cache.put(tile, fidelity=0.25)
        message, held_tile = stub.request(Move.PAN_RIGHT, tile.key)
        assert held_tile is tile
        assert message == PushAck(
            session_id="s",
            held=(TileRef(2, 1, 0),),
            move="pan_right",
            tile=TileRef(2, 1, 0),
        )
        reply = protocol.TileResponse(
            session_id="s",
            tile=TileRef(2, 1, 0),
            latency_seconds=0.0,
            hit=True,
            prefetched=(TileRef(2, 2, 0),),
        )
        response = held_response(stub, reply, held_tile)
        assert response.tile is tile and response.hit
        assert response.prefetched == (TileKey(2, 2, 0),)
        # The cache's fidelity, not the payload-less reply's default.
        assert response.fidelity == 0.25
        with pytest.raises(ProtocolError, match="expected tile_response"):
            held_response(stub, session_info(), held_tile)
        error = ErrorInfo(code="session_not_found", message="gone")
        with pytest.raises(protocol.SessionNotFoundError):
            held_response(stub, error, held_tile)

    def test_payloadless_reply_to_a_wire_request_is_a_violation(self):
        core = handshaken()
        stub = SessionStub(core, *open_session(core))
        reply = protocol.TileResponse(
            session_id="s", tile=TileRef(0, 0, 0), latency_seconds=0.0, hit=True
        )
        with pytest.raises(ProtocolError, match="no payload"):
            stub.response(reply)

    def test_close_is_idempotent_and_tolerates_a_reaped_session(self):
        core = handshaken(push=True)
        stub = SessionStub(core, *open_session(core))
        assert isinstance(stub.push_cache, PushCache)
        assert stub.close() == protocol.CloseSession("s")
        assert stub.close() is None
        # The core no longer files pushes for the closed session.
        core.begin(OpenSession(session_id="t"))
        core.receive(
            encode_wire(
                PushTile(
                    session_id="s", tile=TileRef(0, 0, 0), rank=0,
                    generation=1, utility=1.0,
                ),
                "lines",
            )
            + encode_wire(session_info("t"), "lines")
        )
        assert core.reply() == session_info("t")
        assert len(stub.push_cache) == 0
        stub.close_acknowledged(session_info())
        stub.close_acknowledged(
            ErrorInfo(code="session_not_found", message="already reaped")
        )
        with pytest.raises(protocol.InvalidRequestError):
            stub.close_acknowledged(
                ErrorInfo(code="invalid_request", message="nope")
            )

    def test_engines_stay_server_side(self):
        core = handshaken()
        with pytest.raises(ValueError, match="engine_factory"):
            core.open_session(object(), None)
        assert core.open_session(None, 7) == OpenSession(session_id="7")
        with pytest.raises(protocol.DuplicateSessionError):
            core.session_opened(
                ErrorInfo(code="duplicate_session", message="taken")
            )
        with pytest.raises(ProtocolError, match="expected session_info"):
            core.session_opened(Welcome(version=1))


# ----------------------------------------------------------------------
# posted acks: a local hit returns at once, its reply is owed
# ----------------------------------------------------------------------
def hit_reply(key: TileKey, session_id="s") -> protocol.TileResponse:
    """The payload-less reply a server gives a ``push_ack``."""
    return protocol.TileResponse(
        session_id=session_id,
        tile=TileRef.from_key(key),
        latency_seconds=0.0,
        hit=True,
        phase="navigation",
        prefetched=(TileRef(2, 3, 3),),
    )


class TestOwedReplyCore:
    def test_post_leaves_the_reply_owed_until_settle_hands_it_over(self):
        core = handshaken(push=True)
        taken: list = []
        frame = core.post(PushAck(session_id="s"), taken.append)
        assert frame == encode_wire(PushAck(session_id="s"), "lines")
        assert core.reply_outstanding and not core.settle()
        reply = encode_wire(session_info(), "lines")
        core.receive(reply[:-1])
        assert not core.settle() and taken == []
        core.receive(reply[-1:])
        assert core.settle() and taken == [session_info()]
        assert not core.reply_outstanding
        assert core.settle() and len(taken) == 1  # nothing owed: a no-op

    def test_nothing_is_framed_while_a_reply_is_owed(self):
        core = handshaken(push=True, wire_tap=True)
        core.post(PushAck(session_id="s"), lambda reply: None)
        sent = bytes(core.wire_sent)
        for frame_another in (
            lambda: core.begin(OpenSession(session_id="t")),
            lambda: core.post(PushAck(session_id="s"), lambda reply: None),
        ):
            with pytest.raises(RuntimeError, match="owed"):
                frame_another()
        assert bytes(core.wire_sent) == sent
        core.receive(encode_wire(session_info(), "lines"))
        assert core.settle()
        core.begin(OpenSession(session_id="t"))

    def test_settle_absorbs_the_pushes_ahead_of_the_owed_reply(
        self, tiny_dataset
    ):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(2, 1, 0))
        core = handshaken(push=True)
        _, cache = open_session(core)
        taken: list = []
        core.post(PushAck(session_id="s"), taken.append)
        stream = encode_wire(push_frame(tile), "lines") + encode_wire(
            session_info(), "lines"
        )
        core.receive(stream[:50])
        assert not core.settle() and len(cache) == 0
        core.receive(stream[50:])
        assert core.settle() and cache.digest() == [tile.key]
        assert taken == [session_info()]

    def test_an_undecodable_owed_reply_loses_the_pairing(self):
        core = handshaken(push=True)
        core.post(PushAck(session_id="s"), lambda reply: None)
        core.receive(b'{"type": "no_such_message"}\n')
        with pytest.raises(ProtocolError):
            core.settle()
        assert core.reply_outstanding


class TestPostedAckStub:
    """What the stub answers a held tile with, and whom a failed ack
    finds: the session that posted it, at its next call."""

    def held_stub(self, tile, fidelity=1.0, session_id="s"):
        core = handshaken(push=True)
        stub = SessionStub(core, *open_session(core, session_id))
        stub.push_cache.put(tile, fidelity=fidelity)
        return stub

    def test_local_response_carries_what_the_client_knows(self, tiny_dataset):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(2, 1, 0))
        stub = self.held_stub(tile, fidelity=0.25)
        _, held_tile = stub.request(Move.PAN_RIGHT, tile.key)
        declared = PushHitResult(phase=None)
        assert stub.local_response(held_tile) == TileResponse(
            tile=tile,
            latency_seconds=declared.latency_seconds,
            hit=declared.hit,
            phase=None,
            prefetched=(),
            fidelity=0.25,
        )

    def test_fidelity_is_the_one_the_tile_was_held_at_when_probed(
        self, tiny_dataset
    ):
        pyramid = tiny_dataset.pyramid
        tile = pyramid.fetch_tile(TileKey(2, 1, 0))
        stub = self.held_stub(tile, fidelity=0.25)
        _, held_tile = stub.request(Move.PAN_RIGHT, tile.key)
        # The round the ack starts upgrades the key — or evicts it — but
        # the caller holds the stand-in that was probed.
        stub.push_cache.put(tile, fidelity=1.0)
        assert stub.local_response(held_tile).fidelity == 0.25
        assert held_response(stub, hit_reply(tile.key), held_tile).fidelity == 0.25
        stub.push_cache.clear()
        assert held_response(stub, hit_reply(tile.key), held_tile).fidelity == 0.25

    def test_a_good_reply_settles_to_nothing(self, tiny_dataset):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(2, 1, 0))
        stub = self.held_stub(tile)
        _, held_tile = stub.request(None, tile.key)
        stub.settled(hit_reply(tile.key))
        message, held_tile = stub.request(None, tile.key)
        assert isinstance(message, PushAck) and held_tile is tile

    @pytest.mark.parametrize(
        "reply, raised",
        [
            (
                ErrorInfo(
                    code="worker_unavailable", message="down", session_id="s"
                ),
                protocol.WorkerUnavailableError,
            ),
            (
                ErrorInfo(code="session_closed", message="gone"),
                protocol.SessionClosedError,
            ),
            (session_info(), ProtocolError),
        ],
        ids=["worker_unavailable", "session_closed", "wrong_type"],
    )
    @pytest.mark.parametrize("next_call", ["request", "close"])
    def test_a_failed_ack_is_raised_once_by_the_posters_next_call(
        self, tiny_dataset, reply, raised, next_call
    ):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(2, 1, 0))
        stub = self.held_stub(tile)
        _, held_tile = stub.request(None, tile.key)
        hits = stub.push_cache.hits
        stub.settled(reply)  # never raises: it is not the reader's
        call = (
            (lambda: stub.request(None, tile.key))
            if next_call == "request"
            else stub.close
        )
        with pytest.raises(raised):
            call()
        # Raised before anything was probed or marked closed, so the
        # same call can simply be made again.
        assert stub.push_cache.hits == hits and not stub.closed
        assert call() is not None


class ScriptedSocket:
    """What a :class:`SocketTransport` needs of a socket, scripted: what
    ``recv`` returns (or raises) call by call, and a record of every
    ``sendall``.  Reading past the script is the failure "read more
    than it was owed"."""

    def __init__(self) -> None:
        self.script: list = []
        self.sent = bytearray()
        self.recv_calls = 0
        self.closed = False

    def feed(self, *items, chunk: int | None = None) -> None:
        for item in items:
            if isinstance(item, bytes) and chunk:
                self.script += [
                    item[i : i + chunk] for i in range(0, len(item), chunk)
                ]
            else:
                self.script.append(item)

    def recv(self, size: int) -> bytes:
        self.recv_calls += 1
        assert self.script, "read past the end of what the server sent"
        item = self.script.pop(0)
        if isinstance(item, BaseException):
            raise item
        return item

    def sendall(self, data: bytes) -> None:
        if self.closed:
            raise OSError("socket is closed")
        self.sent += data

    def close(self) -> None:
        self.closed = True


def lines(*messages) -> bytes:
    return b"".join(encode_wire(message, "lines") for message in messages)


WELCOME = Welcome(version=1, server="fake", max_frame_bytes=1 << 20, push=True)


class Shell:
    """One scripted push connection and its two sessions."""

    def __init__(self, monkeypatch, tiles) -> None:
        self.sock = ScriptedSocket()
        self.sock.feed(lines(WELCOME))
        monkeypatch.setattr(
            net.socket, "create_connection", lambda *a, **kw: self.sock
        )
        self.transport = SocketTransport("fake", 0, push=True)
        assert self.transport.push_enabled
        self.a, self.b = (self.connect(name) for name in "ab")
        for tile in tiles:
            self.a.push_cache.put(tile)
        self.core = self.transport._core

    def connect(self, session_id: str):
        self.sock.feed(lines(session_info(session_id)))
        return self.transport.connect(session_id=session_id)

    def close(self) -> None:
        self.transport.close()


@pytest.fixture
def shell(monkeypatch, tiny_dataset):
    pyramid = tiny_dataset.pyramid
    shell = Shell(
        monkeypatch,
        [pyramid.fetch_tile(TileKey(2, x, 0)) for x in (0, 1)],
    )
    yield shell
    shell.close()


class TestOwedReplyShells:
    """Contracts 2–5 on the client's I/O shell, its socket a script:
    every ``recv`` is counted, nothing sleeps, nothing real is opened."""

    HELD = TileKey(2, 0, 0)
    ALSO_HELD = TileKey(2, 1, 0)

    def test_a_local_hit_reads_nothing(self, shell, tiny_dataset):
        reads, sent = shell.sock.recv_calls, len(shell.sock.sent)
        response = shell.a.request(Move.PAN_LEFT, self.HELD)
        assert shell.sock.recv_calls == reads and shell.core.reply_outstanding
        assert response.tile is shell.a.push_cache.get(self.HELD)
        assert (response.hit, response.latency_seconds) == (True, 0.0)
        assert (response.phase, response.prefetched) == (None, ())
        # The ack went out whole, digest and all, before the call returned.
        assert decode_wire(shell.sock.sent[sent:].decode()) == PushAck(
            session_id="a",
            held=(TileRef(2, 0, 0), TileRef(2, 1, 0)),
            move="pan_left",
            tile=TileRef(2, 0, 0),
        )

    def test_the_next_call_reads_exactly_the_owed_reply(
        self, shell, tiny_dataset
    ):
        pyramid = tiny_dataset.pyramid
        pushed = pyramid.fetch_tile(TileKey(2, 2, 0))
        shell.a.request(None, self.HELD)
        # The owed round — a push, then the reply — in 1-byte reads, and
        # not one byte behind it: reading on would fail the script.
        shell.sock.feed(
            lines(push_frame(pushed, session_id="a"), hit_reply(pushed.key, "a")),
            chunk=1,
        )
        owed = len(shell.sock.script)
        reads = shell.sock.recv_calls
        # Settled first, so the tile that round pushed is a local hit now.
        response = shell.a.request(Move.PAN_RIGHT, pushed.key)
        assert shell.sock.recv_calls == reads + owed and not shell.sock.script
        assert response.hit and np.array_equal(
            response.tile.attributes["ndsi_avg"], pushed.attributes["ndsi_avg"]
        )
        assert shell.core.reply_outstanding  # that hit's own reply, now owed

    def test_settle_makes_the_books_current_and_is_a_noop_otherwise(
        self, shell
    ):
        reads = shell.sock.recv_calls
        shell.transport.settle()  # nothing owed
        assert shell.sock.recv_calls == reads
        shell.a.request(None, self.HELD)
        shell.sock.feed(lines(hit_reply(self.HELD, "a")), chunk=7)
        shell.transport.settle()
        assert not shell.core.reply_outstanding and not shell.sock.script
        reads = shell.sock.recv_calls
        shell.transport.settle()
        assert shell.sock.recv_calls == reads

    def test_any_roundtrip_settles_first(self, shell):
        shell.a.request(None, self.HELD)
        shell.sock.feed(
            lines(hit_reply(self.HELD, "a"), session_info("a"))
        )
        # What benchmarks/perf/live.py's ``finish`` does, verbatim.
        info = shell.transport.roundtrip(CloseSession("a"))
        assert info == session_info("a")
        assert not shell.core.reply_outstanding

    @pytest.mark.parametrize(
        "failure, raised",
        [
            ([socket.timeout("timed out")], OSError),
            ([ConnectionResetError("reset")], OSError),
            ([b'{"type": "tile_resp', b""], ProtocolError),
            ([b'{"type": "no_such_message"}\n'], ProtocolError),
            ([b"x" * (protocol.DEFAULT_MAX_FRAME_BYTES + 64)], FramingError),
        ],
        ids=["timeout", "reset", "hangup_mid_reply", "undecodable", "framing"],
    )
    def test_a_failure_while_a_reply_is_owed_closes_the_transport(
        self, shell, failure, raised
    ):
        shell.a.request(None, self.HELD)
        shell.sock.feed(*failure)
        with pytest.raises(raised):
            shell.b.request(None, TileKey(0, 0, 0))
        assert shell.sock.closed
        sent = len(shell.sock.sent)
        for session in (shell.a, shell.b):
            with pytest.raises(protocol.SessionClosedError):
                session.request(None, TileKey(0, 0, 0))
        assert len(shell.sock.sent) == sent
        shell.transport.settle()  # closed: a no-op
        shell.a.close()  # and a session close tolerates it

    def test_closing_with_a_reply_owed_is_abortive(self, shell):
        shell.a.request(None, self.HELD)
        reads = shell.sock.recv_calls
        shell.close()
        assert shell.sock.closed and shell.sock.recv_calls == reads

    def test_an_error_finds_the_session_that_posted(self, shell, tiny_dataset):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(1, 0, 0))
        shell.a.request(None, self.HELD)
        # The ack met a dead worker; session b's request happens to be
        # the call that reads so.  It is served, and told nothing.
        shell.sock.feed(
            lines(
                ErrorInfo(
                    code="worker_unavailable", message="down", session_id="a"
                ),
                tile_reply(tile, "b"),
            )
        )
        assert shell.b.request(None, tile.key).tile.key == tile.key
        sent, hits = len(shell.sock.sent), shell.a.push_cache.hits
        with pytest.raises(protocol.WorkerUnavailableError):
            shell.a.request(Move.PAN_RIGHT, self.ALSO_HELD)
        # Before that call probed or sent anything: it can be retried.
        assert len(shell.sock.sent) == sent
        assert shell.a.push_cache.hits == hits
        response = shell.a.request(Move.PAN_RIGHT, self.ALSO_HELD)
        assert response.tile.key == self.ALSO_HELD

    def test_close_raises_the_failed_ack_before_sending(self, shell):
        shell.a.request(None, self.HELD)
        shell.sock.feed(lines(session_info("a")))  # not a tile_response
        sent = len(shell.sock.sent)
        with pytest.raises(ProtocolError, match="expected tile_response"):
            shell.a.close()
        assert len(shell.sock.sent) == sent
        shell.sock.feed(lines(session_info("a")))
        shell.a.close()
        assert decode_wire(shell.sock.sent[sent:].decode()) == CloseSession("a")


def test_a_refused_handshake_closes_the_socket(monkeypatch):
    sock = ScriptedSocket()
    sock.feed(lines(ErrorInfo(code="version_mismatch", message="no common version")))
    monkeypatch.setattr(net.socket, "create_connection", lambda *a, **kw: sock)
    with pytest.raises(VersionMismatchError, match="no common version"):
        SocketTransport("fake", 0)
    assert sock.closed
    assert decode_wire(sock.sent.decode()) == Hello(
        versions=protocol.SUPPORTED_VERSIONS, client=SocketTransport.client_name
    )


def test_an_error_reply_of_the_wrong_types_is_a_protocol_error(monkeypatch):
    # ``"code": ["x"]`` used to decode, then escape ``to_exception`` —
    # and the transport — as ``TypeError: unhashable type``.
    sock = ScriptedSocket()
    sock.feed(
        lines(Welcome(version=1, server="fake")),
        b'{"type": "error", "code": ["x"], "message": "m"}\n',
    )
    monkeypatch.setattr(net.socket, "create_connection", lambda *a, **kw: sock)
    with SocketTransport("fake", 0) as transport:
        with pytest.raises(ProtocolError, match="code: expected a string"):
            transport.connect(session_id="s")


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------
def test_the_core_imports_no_io_module():
    """Sans-IO by construction: the core must stay drivable by bytes."""
    tree = ast.parse(inspect.getsource(connection))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert imported.isdisjoint({"socket", "asyncio", "threading", "selectors"})


def test_no_message_writes_its_own_codec():
    """Replaced, not forked: the wire form of every message (and of
    ``TilePayload``) is generated from its field table, so no class can
    carry a type check — or miss one — of its own."""
    derived = {cls.__name__ for cls in MESSAGE_TYPES.values()} | {"TilePayload"}
    tree = ast.parse(inspect.getsource(protocol))
    classes = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in derived
    ]
    assert {node.name for node in classes} == derived
    for node in classes:
        written = {
            n.name for n in ast.walk(node) if isinstance(n, ast.FunctionDef)
        } | {
            n.id
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        assert written.isdisjoint({"to_json", "from_dict"}), node.name
        # ... and what it carries is what the generator compiled.
        cls = getattr(protocol, node.name)
        for codec in (cls.from_dict, cls.to_json):
            assert codec.__code__.co_filename == "<string>", node.name
    # One ``to_move``, under both messages that name a move.
    assert TileRequest.to_move is PushAck.to_move


def test_the_serve_loop_has_a_handler_for_exactly_what_the_core_admits():
    assert set(_WireServer._HANDLERS) == connection.CLIENT_MESSAGES
