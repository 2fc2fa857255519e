"""The socket transport: framing, handshake, isolation, and resilience.

Everything runs over loopback on ephemeral ports — no external network.
The resilience tests are the ones the paper's client/server split makes
load-bearing: a malformed frame, an oversized frame, a truncated frame,
or a client that vanishes mid-request must never poison the service or
any other client's session.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.client import BrowsingSession
from repro.middleware.cluster import ThreadedClusterServer
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.net import (
    SocketTransport,
    ThreadedSocketServer,
)
from repro.middleware.protocol import (
    CloseSession,
    ErrorInfo,
    FrameDecoder,
    FramingError,
    FrameTooLargeError,
    InvalidRequestError,
    ProtocolError,
    SessionClosedError,
    SessionNotFoundError,
    TileRef,
    TileRequest,
    VersionMismatchError,
    encode_frame,
)
from repro.middleware.service import ForeCacheService
from repro.modis.dataset import MODISDataset
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey

CONFIG = ServiceConfig(prefetch=PrefetchPolicy(k=5))


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def serving(endpoint_kind, pyramid, config):
    """A direct socket server, or a 2-worker cluster's router: what a
    raw client is told must not depend on which."""
    factory = lambda: make_engine(pyramid.grid)  # noqa: E731
    if endpoint_kind == "server":
        return ThreadedSocketServer(pyramid, config, engine_factory=factory)
    return ThreadedClusterServer(
        pyramid, config, workers=2, engine_factory=factory
    )


@pytest.fixture
def server(small_dataset):
    with ThreadedSocketServer(
        small_dataset.pyramid,
        CONFIG,
        engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
    ) as server:
        yield server


def raw_connection(server, timeout=10.0) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=timeout)
    return sock


def send_line(sock, payload: dict) -> None:
    sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")


def recv_lines(sock, count=1) -> list[dict]:
    decoder = FrameDecoder("lines")
    frames: list[str] = []
    while len(frames) < count:
        data = sock.recv(65536)
        if not data:
            break
        frames.extend(decoder.feed(data))
    return [json.loads(frame) for frame in frames]


def handshake(sock) -> dict:
    send_line(sock, {"type": "hello", "versions": [1]})
    (welcome,) = recv_lines(sock)
    assert welcome["type"] == "welcome"
    return welcome


def replies_until_closed(sock) -> list[dict]:
    """Every reply up to the ``close_session`` one, pushed tiles dropped
    (they arrive in between and span reads: one decoder for the stream)."""
    decoder, replies = FrameDecoder("lines"), []
    while not (replies and replies[-1].get("open") is False):
        data = sock.recv(65536)
        assert data, "connection closed before close_session's reply"
        replies.extend(
            reply
            for reply in map(json.loads, decoder.feed(data))
            if reply["type"] != "push_tile"
        )
    return replies


def wait_for(predicate, timeout=10.0, interval=0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# frame decoder units (the fuzz lives in test_properties.py)
# ----------------------------------------------------------------------
class TestFrameDecoder:
    @pytest.mark.parametrize("framing", ["lines", "length"])
    def test_single_frame_round_trip(self, framing):
        decoder = FrameDecoder(framing)
        assert decoder.feed(encode_frame('{"a": 1}', framing)) == ['{"a": 1}']

    @pytest.mark.parametrize("framing", ["lines", "length"])
    def test_byte_at_a_time_reassembly(self, framing):
        texts = ['{"a": 1}', '{"b": [2, 3]}', '{"c": "\\u00e9"}']
        stream = b"".join(encode_frame(t, framing) for t in texts)
        decoder = FrameDecoder(framing)
        out: list[str] = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == texts
        assert decoder.buffered == 0

    def test_lines_skips_blank_keepalives(self):
        decoder = FrameDecoder("lines")
        assert decoder.feed(b"\n\r\n{\"a\": 1}\n\n") == ['{"a": 1}']

    def test_lines_oversized_unterminated(self):
        decoder = FrameDecoder("lines", max_frame_bytes=16)
        with pytest.raises(FrameTooLargeError):
            decoder.feed(b"A" * 17)

    def test_lines_oversized_terminated(self):
        decoder = FrameDecoder("lines", max_frame_bytes=16)
        with pytest.raises(FrameTooLargeError):
            decoder.feed(b"A" * 17 + b"\n")

    def test_length_oversized_header(self):
        decoder = FrameDecoder("length", max_frame_bytes=16)
        with pytest.raises(FrameTooLargeError):
            decoder.feed((17).to_bytes(4, "big"))

    def test_length_zero_frame_rejected(self):
        decoder = FrameDecoder("length")
        with pytest.raises(FramingError):
            decoder.feed((0).to_bytes(4, "big"))

    def test_truncated_length_frame_stays_buffered(self):
        decoder = FrameDecoder("length")
        frame = encode_frame('{"a": 1}', "length")
        assert decoder.feed(frame[:5]) == []
        assert decoder.buffered == 5
        assert decoder.feed(frame[5:]) == ['{"a": 1}']

    @pytest.mark.parametrize("framing", ["lines", "length"])
    def test_invalid_utf8_is_a_framing_error(self, framing):
        decoder = FrameDecoder(framing)
        bad = b"\xff\xfe\xfd"
        payload = (
            bad + b"\n" if framing == "lines"
            else len(bad).to_bytes(4, "big") + bad
        )
        with pytest.raises(FramingError):
            decoder.feed(payload)

    def test_decoder_refuses_input_after_failure(self):
        decoder = FrameDecoder("length", max_frame_bytes=16)
        with pytest.raises(FrameTooLargeError):
            decoder.feed((999).to_bytes(4, "big"))
        with pytest.raises(FramingError):
            decoder.feed(b"more")

    def test_embedded_newline_rejected_on_encode(self):
        with pytest.raises(FramingError):
            encode_frame('{"a":\n1}', "lines")
        # Length framing is binary-safe: embedded newlines are fine.
        decoder = FrameDecoder("length")
        assert decoder.feed(encode_frame('{"a":\n1}', "length")) == [
            '{"a":\n1}'
        ]

    def test_oversized_rejected_on_encode(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame("A" * 32, "lines", max_frame_bytes=16)

    def test_unknown_framing_rejected(self):
        with pytest.raises(ValueError):
            FrameDecoder("pigeon")
        with pytest.raises(ValueError):
            encode_frame("x", "pigeon")


# ----------------------------------------------------------------------
# handshake and control envelope
# ----------------------------------------------------------------------
class TestHandshake:
    def test_welcome_reports_negotiated_version_and_limits(self, server):
        sock = raw_connection(server)
        welcome = handshake(sock)
        assert welcome["version"] == 1
        assert welcome["server"] == "forecache-repro"
        assert welcome["max_frame_bytes"] == CONFIG.max_frame_bytes
        sock.close()

    def test_client_exposes_handshake_results(self, server, small_dataset):
        with SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        ) as transport:
            assert transport.server_version == 1
            assert transport.server_name == "forecache-repro"
            assert transport.server_max_frame_bytes == CONFIG.max_frame_bytes

    def test_hello_picks_highest_common_version(self, server):
        sock = raw_connection(server)
        send_line(sock, {"type": "hello", "versions": [0, 1, 99]})
        (welcome,) = recv_lines(sock)
        assert welcome["version"] == 1
        sock.close()

    def test_version_mismatch_is_typed_and_fatal(self, server):
        sock = raw_connection(server)
        send_line(sock, {"type": "hello", "versions": [99]})
        (error,) = recv_lines(sock)
        assert error["type"] == "error"
        assert error["code"] == VersionMismatchError.code
        assert sock.recv(65536) == b""  # server hung up
        sock.close()

    def test_requests_before_hello_are_fatal(self, server):
        sock = raw_connection(server)
        send_line(sock, {"type": "open_session", "session_id": "sneaky"})
        (error,) = recv_lines(sock)
        assert error["code"] == InvalidRequestError.code
        assert "hello" in error["message"]
        assert sock.recv(65536) == b""
        sock.close()

    def test_unknown_fields_in_hello_are_tolerated(self, server):
        # Forward compatibility: a newer client may say more.
        sock = raw_connection(server)
        send_line(
            sock,
            {
                "type": "hello",
                "versions": [1],
                "client": "future",
                "compression": "zstd",
            },
        )
        (welcome,) = recv_lines(sock)
        assert welcome["type"] == "welcome"
        sock.close()

    def test_open_session_replies_session_info(self, server):
        sock = raw_connection(server)
        handshake(sock)
        send_line(sock, {"type": "open_session", "session_id": "s1"})
        (info,) = recv_lines(sock)
        assert info["type"] == "session_info"
        assert info["session_id"] == "s1"
        assert info["open"] is True
        assert info["requests"] == 0
        sock.close()

    def test_a_session_is_registered_under_the_id_its_reply_names(
        self, server, small_dataset
    ):
        service = server.server.service
        with SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        ) as transport:
            named = transport.connect(session_id="s3")
            generated = [transport.connect() for _ in range(2)]
            ids = [named.session_id] + [c.session_id for c in generated]
            assert ids[0] == "s3" and len(set(ids)) == 3
            for session_id in ids:
                assert service.session(session_id).session_id == session_id
            assert service.session_count == 3

    def test_close_session_replies_final_snapshot(self, server, small_dataset):
        with SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        ) as transport:
            conn = transport.connect(session_id="s2")
            conn.request(None, TileKey(0, 0, 0))
            reply = transport.roundtrip(CloseSession("s2"))
            assert reply.open is False
            assert reply.requests == 1


# ----------------------------------------------------------------------
# resilience: bad frames, bad peers
# ----------------------------------------------------------------------
class TestResilience:
    def test_malformed_frame_answered_and_connection_survives(self, server):
        sock = raw_connection(server)
        handshake(sock)
        sock.sendall(b"{not json\n")
        (error,) = recv_lines(sock)
        assert error["code"] == InvalidRequestError.code
        # Same connection still serves.
        send_line(sock, {"type": "open_session", "session_id": "after"})
        (info,) = recv_lines(sock)
        assert info["type"] == "session_info"
        sock.close()

    def test_a_number_too_large_for_an_int_is_answered_and_survivable(
        self, server, capfd
    ):
        # JSON 1e400 is a float infinity, int() of it an OverflowError:
        # it used to escape the serve loop, drop the connection without
        # a reply and leave asyncio's traceback on stderr.
        sock = raw_connection(server)
        handshake(sock)
        send_line(sock, {"type": "open_session", "session_id": "s"})
        recv_lines(sock)
        sock.sendall(
            b'{"type":"tile_request","session_id":"s","tile":[1e400,0,0]}\n'
        )
        (error,) = recv_lines(sock)
        assert error["code"] == InvalidRequestError.code
        send_line(
            sock, {"type": "tile_request", "session_id": "s", "tile": [0, 0, 0]}
        )
        (reply,) = recv_lines(sock)
        assert (reply["type"], reply["tile"]) == ("tile_response", [0, 0, 0])
        sock.close()
        assert wait_for(lambda: server.server.connection_count == 0)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("session_id", [123, ["a"], {"a": 1}, True])
    def test_a_non_string_session_id_opens_nothing(self, server, session_id):
        # It used to open the service session under the raw value and
        # the connection's under its str(): unreachable, unclosable,
        # and still there after the disconnect.
        service = server.server.service
        sock = raw_connection(server)
        handshake(sock)
        send_line(sock, {"type": "open_session", "session_id": "good"})
        recv_lines(sock)
        send_line(sock, {"type": "open_session", "session_id": session_id})
        (error,) = recv_lines(sock)
        assert (error["type"], error["code"]) == ("error", "invalid_request")
        assert service.session_ids == ["good"]
        send_line(sock, {"type": "open_session"})  # auto id: still fine
        (info,) = recv_lines(sock)
        assert info["type"] == "session_info"
        assert service.session_count == 2
        sock.close()
        assert wait_for(lambda: service.session_ids == [])

    @pytest.mark.parametrize("endpoint_kind", ["server", "cluster"])
    @pytest.mark.parametrize(
        "reference",
        [(0, -1, 0), (99, 0, 0), (1, 7, 0)],
        ids=["negative-coordinate", "level-beyond-pyramid", "x-outside-level"],
    )
    def test_an_invalid_tile_reference_is_refused_before_the_session_sees_it(
        self, endpoint_kind, reference, small_dataset
    ):
        pyramid = small_dataset.pyramid
        endpoint = serving(endpoint_kind, pyramid, CONFIG)
        with endpoint, SocketTransport(*endpoint.address) as transport:
            conn = transport.connect(session_id="guarded")
            conn.request(None, TileKey(0, 0, 0))
            bad = transport.roundtrip(
                TileRequest(session_id="guarded", tile=TileRef(*reference))
            )
            assert isinstance(bad, ErrorInfo)
            assert (bad.code, bad.session_id) == ("invalid_request", "guarded")
            # Recorder (and with it the engine's history) did not move,
            # and the session still serves.
            assert conn.request(None, TileKey(0, 0, 0)).hit
            info = transport.roundtrip(CloseSession("guarded"))
            assert (info.requests, info.hits) == (2, 1)

    @pytest.mark.parametrize("endpoint_kind", ["server", "cluster"])
    @pytest.mark.parametrize(
        "bad",
        [
            {"type": "tile_request", "tile": [0, 0, 0], "held": [[0, -1, 0]]},
            {"type": "push_ack", "held": [[-3, 0, 0]]},
        ],
        ids=["tile_request", "push_ack"],
    )
    def test_an_unkeyable_held_reference_is_refused_typed(
        self, endpoint_kind, bad, small_dataset
    ):
        # It used to reach ErrorInfo.from_exception as TileKey's bare
        # ValueError: the catch-all code and no session id.
        pyramid = small_dataset.pyramid
        endpoint = serving(
            endpoint_kind,
            pyramid,
            ServiceConfig(prefetch=PrefetchPolicy(k=5, push="on")),
        )
        good = {"type": "tile_request", "session_id": "s", "tile": [0, 0, 0]}
        with endpoint:
            sock = raw_connection(endpoint)
            send_line(sock, {"type": "hello", "versions": [1], "push": True})
            (welcome,) = recv_lines(sock)
            assert welcome["push"] is True
            send_line(sock, {"type": "open_session", "session_id": "s"})
            send_line(sock, good)
            send_line(sock, {**bad, "session_id": "s"})
            send_line(sock, good)
            send_line(sock, {"type": "close_session", "session_id": "s"})
            replies = replies_until_closed(sock)
            sock.close()
        assert [reply["type"] for reply in replies] == [
            "session_info",
            "tile_response",
            "error",
            "tile_response",
            "session_info",
        ]
        assert (replies[2]["code"], replies[2]["session_id"]) == (
            "invalid_request",
            "s",
        )
        # The refused message moved nothing: two requests, the second a hit.
        assert (replies[4]["requests"], replies[4]["hits"]) == (2, 1)

    @pytest.mark.parametrize("endpoint_kind", ["server", "cluster"])
    def test_a_reference_of_another_json_type_is_refused_naming_its_field(
        self, endpoint_kind, small_dataset
    ):
        # Each used to be coerced: "120" unpacked to [1, 2, 0], an
        # object to its keys, 1.9 to 1, "2" to 2 — and served or refused
        # as whatever tile that happened to name.
        request = {"type": "tile_request", "session_id": "s", "tile": [0, 0, 0]}
        ack = {"type": "push_ack", "session_id": "s", "held": []}
        bad = [
            ("tile", {**request, "tile": "120"}),
            ("tile", {**request, "tile": {"1": 0, "2": 0, "3": 0}}),
            ("tile", {**request, "tile": [1.9, 0.5, 2]}),
            ("tile", {**request, "tile": ["1", "0", "0"]}),
            ("held", {**request, "held": ["000"]}),
            ("held", {**request, "held": [[0, 0.0, 0]]}),
            ("held", {**ack, "held": [{"0": 0, "1": 0, "2": 0}]}),
            ("held", {**ack, "held": [["0", "0", "0"]]}),
            ("tile", {**ack, "tile": "000"}),
        ]
        endpoint = serving(
            endpoint_kind,
            small_dataset.pyramid,
            ServiceConfig(prefetch=PrefetchPolicy(k=5, push="on")),
        )
        with endpoint:
            sock = raw_connection(endpoint)
            send_line(sock, {"type": "hello", "versions": [1], "push": True})
            assert recv_lines(sock)[0]["push"] is True
            send_line(sock, {"type": "open_session", "session_id": "s"})
            for message in [request, *(m for _, m in bad), request]:
                send_line(sock, message)
            send_line(sock, {"type": "close_session", "session_id": "s"})
            opened, first, *refusals, last, closed = replies_until_closed(sock)
            sock.close()
        assert [r["type"] for r in (opened, first, last, closed)] == [
            "session_info",
            "tile_response",
            "tile_response",
            "session_info",
        ]
        assert [(r["type"], r["code"]) for r in refusals] == [
            ("error", "invalid_request")
        ] * len(bad)
        for (field, message), refusal in zip(bad, refusals):
            assert (
                f"malformed {message['type']} message: {field}: "
                "expected [level, x, y], got " in refusal["message"]
            )
        # The connection kept serving and nothing refused moved anything.
        assert (closed["requests"], closed["hits"]) == (2, 1)

    @pytest.mark.parametrize("endpoint_kind", ["server", "cluster"])
    def test_a_hello_of_the_wrong_types_is_refused_and_grants_nothing(
        self, endpoint_kind, small_dataset
    ):
        # bool("false") used to welcome the client *with push*, "1" was
        # iterated as [1] and True read as version 1.
        endpoint = serving(
            endpoint_kind,
            small_dataset.pyramid,
            ServiceConfig(prefetch=PrefetchPolicy(k=5, push="on")),
        )
        bad = [
            ("push", {"versions": [1], "push": "false"}),
            ("push", {"versions": [1], "push": 1}),
            ("versions", {"versions": "1", "push": True}),
            ("versions", {"versions": [True], "push": True}),
        ]
        with endpoint:
            sock = raw_connection(endpoint)
            for _, fields in bad:
                send_line(sock, {"type": "hello", **fields})
            refusals = recv_lines(sock, len(bad))
            # A malformed frame on a healthy stream is answered and the
            # connection keeps reading: still un-negotiated, so the
            # handshake can yet be made — with what *this* hello asks.
            welcome = handshake(sock)
            sock.close()
        for (field, _), refusal in zip(bad, refusals):
            assert (refusal["type"], refusal["code"]) == ("error", "invalid_request")
            assert f"malformed hello message: {field}: expected " in refusal["message"]
        assert welcome["push"] is False

    @pytest.mark.parametrize("endpoint_kind", ["server", "cluster"])
    def test_a_push_ack_without_negotiated_push_is_refused_alike(
        self, endpoint_kind, small_dataset
    ):
        # The router used to word it differently and drop the session id.
        endpoint = serving(endpoint_kind, small_dataset.pyramid, CONFIG)
        with endpoint:
            sock = raw_connection(endpoint)
            handshake(sock)
            send_line(sock, {"type": "open_session", "session_id": "a"})
            send_line(
                sock, {"type": "push_ack", "session_id": "a", "held": []}
            )
            _, refusal = recv_lines(sock, 2)
            sock.close()
        assert refusal == {
            "type": "error",
            "code": "invalid_request",
            "message": "push_ack on a connection that did not negotiate push",
            "session_id": "a",
        }

    @pytest.mark.parametrize("endpoint_kind", ["server", "cluster"])
    def test_a_lone_surrogate_session_id_is_served_alike(
        self, endpoint_kind, small_dataset
    ):
        # JSON can spell one; the router hashes session ids onto its
        # ring, and UTF-8 alone cannot encode it.
        endpoint = serving(endpoint_kind, small_dataset.pyramid, CONFIG)
        with endpoint:
            sock = raw_connection(endpoint)
            handshake(sock)
            for line in (
                b'{"type": "open_session", "session_id": "\\ud800"}\n',
                b'{"type": "tile_request", "session_id": "\\ud800",'
                b' "tile": [0, 0, 0]}\n',
                b'{"type": "close_session", "session_id": "\\ud800"}\n',
            ):
                sock.sendall(line)
            opened, tile, closed = recv_lines(sock, 3)
            sock.close()
        assert [opened["type"], tile["type"], closed["type"]] == [
            "session_info",
            "tile_response",
            "session_info",
        ]
        assert closed["session_id"] == "\ud800" and closed["requests"] == 1

    @pytest.mark.parametrize("endpoint_kind", ["server", "cluster"])
    def test_a_hot_set_frame_is_an_unknown_type_and_moves_no_registry(
        self, endpoint_kind, small_dataset
    ):
        # Every endpoint used to serve "hotspot_gossip" to any client:
        # the entries were max-merged into the registry that steers every
        # session's hot set, the tick jumped ahead (decaying every count
        # to nothing), and the reply listed the other users' hot tiles.
        endpoint = serving(
            endpoint_kind,
            small_dataset.pyramid,
            ServiceConfig(
                prefetch=PrefetchPolicy(
                    k=5, shared_hotspots="boost", hotspot_decay=0.5
                )
            ),
        )
        request = {"type": "tile_request", "session_id": "s", "tile": [1, 0, 0]}
        with endpoint:
            workers = endpoint.workers if endpoint_kind == "cluster" else [endpoint]
            services = [worker.server.service for worker in workers]
            registries = [service.hotspot_registry for service in services]

            def state():
                # Only the session's owner holds "s".
                requests = sum(
                    service.info("s").requests
                    for service in services
                    if "s" in service.session_ids
                )
                return requests, [(r.snapshot(), r.tick) for r in registries]

            sock = raw_connection(endpoint)
            handshake(sock)
            send_line(sock, {"type": "open_session", "session_id": "s"})
            send_line(sock, request)
            recv_lines(sock, 2)
            requests, before = state()
            send_line(
                sock,
                {
                    "type": "hotspot_gossip",
                    "entries": [[2, 3, 3, 1e300]],
                    "tick": 1000000,
                },
            )
            (refusal,) = recv_lines(sock)
            assert state() == (requests, before)
            send_line(sock, request)
            (reply,) = recv_lines(sock)
            assert state()[0] == requests + 1
            sock.close()
        assert refusal == {
            "type": "error",
            "code": "invalid_request",
            "message": "unknown message type 'hotspot_gossip'",
            "session_id": None,
        }
        assert (reply["type"], reply["tile"]) == ("tile_response", [1, 0, 0])
        # There was a learned count to lose.
        assert any(snapshot for snapshot, _ in before)

    @pytest.mark.parametrize("endpoint_kind", ["server", "cluster"])
    def test_a_hot_set_frame_before_hello_is_unknown_and_survivable(
        self, endpoint_kind, small_dataset
    ):
        # Like any undecodable frame, it is refused before the handshake
        # guard looks at it: answered, and the client may still say hello.
        endpoint = serving(endpoint_kind, small_dataset.pyramid, CONFIG)
        with endpoint:
            sock = raw_connection(endpoint)
            send_line(sock, {"type": "hotspot_gossip", "entries": [], "tick": 0})
            (error,) = recv_lines(sock)
            welcome = handshake(sock)
            sock.close()
        assert error == {
            "type": "error",
            "code": "invalid_request",
            "message": "unknown message type 'hotspot_gossip'",
            "session_id": None,
        }
        assert welcome["version"] == 1

    def test_oversized_frame_typed_error_then_close(self, server):
        sock = raw_connection(server)
        handshake(sock)
        sock.sendall(b"A" * (CONFIG.max_frame_bytes + 2))
        (error,) = recv_lines(sock)
        assert error["code"] == FrameTooLargeError.code
        assert sock.recv(65536) == b""
        sock.close()

    def test_oversized_frame_does_not_poison_other_clients(
        self, server, small_dataset
    ):
        with SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        ) as good:
            conn = good.connect()
            bad = raw_connection(server)
            handshake(bad)
            bad.sendall(b"B" * (CONFIG.max_frame_bytes + 2))
            (error,) = recv_lines(bad)
            assert error["code"] == FrameTooLargeError.code
            bad.close()
            # The well-behaved client's session is untouched.
            response = conn.request(None, TileKey(0, 0, 0))
            assert response.tile.key == TileKey(0, 0, 0)

    def test_truncated_frame_then_disconnect_leaves_service_healthy(
        self, server, small_dataset
    ):
        sock = raw_connection(server)
        handshake(sock)
        # Half a length-prefixed frame... on a lines server this is an
        # unterminated line; either way: never completed.
        sock.sendall(b'{"type": "open_session"')
        sock.close()
        assert wait_for(lambda: server.server.connection_count == 0)
        with SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        ) as transport:
            conn = transport.connect()
            assert conn.request(None, TileKey(0, 0, 0)).hit is False

    def test_disconnect_reaps_the_connections_sessions(
        self, server, small_dataset
    ):
        transport = SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        )
        transport.connect(session_id="doomed")
        service = server.server.service
        assert service.session_count == 1
        transport.close()  # no close_session — just vanish
        assert wait_for(lambda: service.session_count == 0)

    def test_mid_request_disconnect_leaves_service_healthy(
        self, small_dataset
    ):
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=5),
            cache=CacheConfig(backend_delay_seconds=0.2),
        )
        with ThreadedSocketServer(
            small_dataset.pyramid,
            config,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        ) as server:
            sock = raw_connection(server)
            handshake(sock)
            send_line(sock, {"type": "open_session", "session_id": "ghost"})
            recv_lines(sock)
            send_line(
                sock,
                {"type": "tile_request", "session_id": "ghost",
                 "tile": [0, 0, 0], "move": None},
            )
            sock.close()  # vanish while the 200 ms backend query runs
            service = server.server.service
            assert wait_for(lambda: service.session_count == 0)
            # The service keeps serving new clients.
            with SocketTransport(
                *server.address, pyramid=small_dataset.pyramid
            ) as transport:
                conn = transport.connect()
                response = conn.request(None, TileKey(0, 0, 0))
                # The doomed client's query already populated the cache.
                assert response.tile.key == TileKey(0, 0, 0)


# ----------------------------------------------------------------------
# per-connection session isolation
# ----------------------------------------------------------------------
class TestIsolation:
    def test_connections_cannot_touch_each_others_sessions(
        self, server, small_dataset
    ):
        with SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        ) as alice, SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        ) as mallory:
            alice.connect(session_id="alice")
            # Request against someone else's session: typed rejection.
            reply = mallory.roundtrip(
                TileRequest(
                    session_id="alice", tile=TileRef(0, 0, 0), move=None
                )
            )
            assert reply.to_exception().__class__ is SessionNotFoundError
            # Closing it is rejected the same way...
            reply = mallory.roundtrip(CloseSession("alice"))
            assert reply.to_exception().__class__ is SessionNotFoundError
            # ...and the session is still alive for its owner.
            assert server.server.service.session_count == 1

    def test_client_send_limit_clamps_to_server_advertisement(
        self, small_dataset
    ):
        """An over-budget request fails locally and recoverably instead
        of tripping the server's decoder (which hangs up and would take
        every session on the connection down)."""
        budget = 256 * 1024  # fits a ~71 KB tile response, not a 260 KB request
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=5), max_frame_bytes=budget
        )
        with ThreadedSocketServer(
            small_dataset.pyramid,
            config,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        ) as server:
            with SocketTransport(
                *server.address, pyramid=small_dataset.pyramid
            ) as transport:
                assert transport.server_max_frame_bytes == budget
                assert transport._core.send_limit == budget  # clamped from 8 MiB
                conn = transport.connect()
                with pytest.raises(FrameTooLargeError):
                    transport.roundtrip(
                        TileRequest(
                            session_id="x" * (budget + 1024),
                            tile=TileRef(0, 0, 0),
                            move=None,
                        )
                    )
                # Local rejection: the connection is still perfectly
                # usable — nothing was sent, nothing desynced.
                response = conn.request(None, TileKey(0, 0, 0))
                assert response.tile.key == TileKey(0, 0, 0)

    def test_small_client_limit_does_not_choke_on_large_replies(
        self, server, small_dataset
    ):
        """The handshake aligns the client's receive limit with the
        server's advertised budget, so a large-but-legal tile response
        (~71 KB of JSON here) never kills the connection even when the
        client was built with a tiny local limit."""
        with SocketTransport(
            *server.address, pyramid=small_dataset.pyramid,
            max_frame_bytes=8192,
        ) as transport:
            conn = transport.connect()
            response = conn.request(None, TileKey(0, 0, 0))
            assert response.tile.key == TileKey(0, 0, 0)

    def test_failed_bind_surfaces_and_leaks_nothing(self, server, small_dataset):
        baseline = {
            t.name for t in threading.enumerate() if "forecache" in t.name
        }
        taken_port = server.address[1]
        doomed = ThreadedSocketServer(
            small_dataset.pyramid,
            ServiceConfig(prefetch=CONFIG.prefetch, bind_port=taken_port),
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        )
        with pytest.raises(OSError):
            doomed.start()
        assert wait_for(lambda: not doomed._thread.is_alive())
        # The service built for the doomed server was torn down: no
        # stray bridge-pool or scheduler threads remain.
        leftover = {
            t.name for t in threading.enumerate() if "forecache" in t.name
        } - baseline
        assert leftover == set()

    def test_engine_argument_is_rejected(self, server, small_dataset):
        with SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        ) as transport:
            with pytest.raises(ValueError):
                transport.connect(make_engine(small_dataset.pyramid.grid))


# ----------------------------------------------------------------------
# concurrency and lifecycle
# ----------------------------------------------------------------------
class TestConcurrency:
    @pytest.mark.parametrize("payload", ("json", "binary"))
    def test_concurrent_clients_replay_over_one_server(
        self, server, small_dataset, small_study, payload
    ):
        traces = sorted(small_study.traces, key=len, reverse=True)[:4]
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def drive(index: int, trace) -> None:
            try:
                with SocketTransport(
                    *server.address, pyramid=small_dataset.pyramid, payload=payload
                ) as transport:
                    assert transport.payload == payload
                    conn = transport.connect(session_id=f"user-{index}")
                    responses = BrowsingSession(conn).replay(trace)
                    conn.close()
                    results[index] = responses
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(i, trace))
            for i, trace in enumerate(traces)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == len(traces)
        for index, trace in enumerate(traces):
            assert [r.tile.key for r in results[index]] == trace.tiles()
        service = server.server.service
        assert wait_for(lambda: service.session_count == 0)

    def test_one_transport_multiplexes_many_sessions(
        self, server, small_dataset
    ):
        with SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        ) as transport:
            sessions = [transport.connect() for _ in range(4)]
            for conn in sessions:
                assert conn.request(
                    None, TileKey(0, 0, 0)
                ).tile.key == TileKey(0, 0, 0)
            for conn in sessions:
                conn.close()
        assert wait_for(lambda: server.server.service.session_count == 0)

    def test_slow_miss_does_not_delay_another_connections_hits(
        self, small_dataset
    ):
        """A backend that blocks is queried off the loop: while one
        connection waits out four 50 ms misses, another's hits keep
        being answered (were the loop blocked, only a handful would)."""
        config = ServiceConfig(
            prefetch=PrefetchPolicy(enabled=False),
            cache=CacheConfig(backend_delay_seconds=0.05),
        )
        pyramid = small_dataset.pyramid
        with ThreadedSocketServer(
            pyramid,
            config,
            engine_factory=lambda: make_engine(pyramid.grid),
        ) as server, SocketTransport(
            *server.address, pyramid=pyramid, payload="binary"
        ) as slow, SocketTransport(
            *server.address, pyramid=pyramid, payload="binary"
        ) as fast:
            slow_conn, fast_conn = slow.connect(), fast.connect()
            assert not fast_conn.request(None, TileKey(0, 0, 0)).hit
            missing = threading.Thread(
                target=lambda: [
                    slow_conn.request(None, TileKey(2, x, 0)) for x in range(4)
                ]
            )
            missing.start()
            hits = 0
            while missing.is_alive():
                assert fast_conn.request(None, TileKey(0, 0, 0)).hit
                hits += 1
            missing.join()
            assert hits >= 20

    def test_graceful_shutdown_drains_in_flight_request(self, small_dataset):
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=5),
            cache=CacheConfig(backend_delay_seconds=0.3),
        )
        server = ThreadedSocketServer(
            small_dataset.pyramid,
            config,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        )
        server.start()
        transport = SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        )
        conn = transport.connect()
        response_box: list = []

        def slow_request() -> None:
            response_box.append(conn.request(None, TileKey(2, 1, 1)))

        requester = threading.Thread(target=slow_request)
        requester.start()
        time.sleep(0.1)  # let the request reach the backend
        server.stop()  # must drain, not abort
        requester.join(timeout=30)
        assert response_box, "in-flight request was dropped on shutdown"
        assert response_box[0].tile.key == TileKey(2, 1, 1)
        transport.close()

    def test_bytes_behind_the_shutdown_eof_are_dropped_quietly(
        self, small_dataset
    ):
        """A request pipelined behind an in-flight one while the server
        shuts down is never fed to the (ended) reader: the in-flight
        reply still arrives whole and the loop sees no error."""
        config = ServiceConfig(
            prefetch=PrefetchPolicy(enabled=False),
            cache=CacheConfig(backend_delay_seconds=0.4),
        )
        server = ThreadedSocketServer(
            small_dataset.pyramid,
            config,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        )
        server.start()
        loop_errors: list = []

        async def collect_loop_errors():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )

        server._run(collect_loop_errors())
        sock = raw_connection(server)
        try:
            handshake(sock)
            send_line(sock, {"type": "open_session", "session_id": "s"})
            recv_lines(sock)
            request = {"type": "tile_request", "session_id": "s",
                       "tile": [2, 1, 1], "move": None}
            send_line(sock, request)
            time.sleep(0.1)  # the request is at the slow backend
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            time.sleep(0.1)  # shutdown has fed the EOF
            send_line(sock, {**request, "tile": [2, 0, 0]})
            (reply,) = recv_lines(sock, count=2)  # one reply, then EOF
            stopper.join(timeout=30)
            assert not stopper.is_alive()
        finally:
            sock.close()
            server.stop()
        assert reply["type"] == "tile_response"
        assert reply["tile"] == [2, 1, 1]
        assert loop_errors == []

    def test_recv_timeout_poisons_the_transport(self, small_dataset):
        """A timed-out roundtrip may leave its reply in flight; the
        strict request/reply pairing is gone, so the transport must
        close itself rather than serve request N+1 the reply to N."""
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=5),
            cache=CacheConfig(backend_delay_seconds=0.5),
        )
        with ThreadedSocketServer(
            small_dataset.pyramid,
            config,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        ) as server:
            transport = SocketTransport(
                *server.address, pyramid=small_dataset.pyramid, timeout=0.1
            )
            conn = transport.connect()
            with pytest.raises(OSError):  # socket.timeout
                conn.request(None, TileKey(0, 0, 0))
            # The stale reply must never answer a later request.
            with pytest.raises(SessionClosedError):
                conn.request(None, TileKey(1, 0, 0))

    def test_threaded_server_stop_is_idempotent(self, small_dataset):
        server = ThreadedSocketServer(
            small_dataset.pyramid,
            CONFIG,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        )
        server.start()
        server.stop()
        server.stop()

    def test_transport_after_server_shutdown_raises_typed(
        self, small_dataset
    ):
        server = ThreadedSocketServer(
            small_dataset.pyramid,
            CONFIG,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        )
        server.start()
        transport = SocketTransport(
            *server.address, pyramid=small_dataset.pyramid
        )
        conn = transport.connect()
        server.stop()
        # Depending on RST timing the failure surfaces as the typed
        # "server closed the connection" ProtocolError or as the raw
        # socket error — never as a hang or a bogus response.
        with pytest.raises((ProtocolError, OSError)):
            conn.request(None, TileKey(0, 0, 0))
        transport.close()


class TestAsyncServerInOneLoop:
    """The server used natively from a single event loop (no thread)."""

    def test_server_and_client_share_a_loop(self, small_dataset):
        from repro.middleware.net import ForeCacheSocketServer
        from repro.middleware.service import ForeCacheService

        pyramid = small_dataset.pyramid

        def browse(address):
            # The blocking client runs off the loop, which keeps serving.
            with SocketTransport(*address, pyramid=pyramid) as transport:
                conn = transport.connect()
                response = BrowsingSession(conn).start()
                assert response.tile.key == pyramid.grid.root
                conn.close()

        async def scenario():
            service = ForeCacheService(
                pyramid,
                CONFIG,
                engine_factory=lambda: make_engine(pyramid.grid),
            )
            async with ForeCacheSocketServer(service) as server:
                await asyncio.to_thread(browse, server.address)
            assert server.connection_count == 0

        asyncio.run(scenario())


class TestSocketClient:
    """The one client's own lifecycle, against a live server."""

    def test_a_session_close_after_the_server_dropped_it_is_quiet(
        self, small_dataset
    ):
        server = ThreadedSocketServer(
            small_dataset.pyramid,
            CONFIG,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        )
        server.start()
        with SocketTransport(*server.address) as transport:
            conn = transport.connect()
            conn.request(None, TileKey(0, 0, 0))
            server.stop()
            conn.close()  # the server reaped the session with the connection
            conn.close()

    def test_a_closed_transport_refuses_new_sessions_typed(self, server):
        service = server.server.service
        transport = SocketTransport(*server.address)
        transport.connect()
        transport.close()
        with pytest.raises(SessionClosedError):
            transport.connect()
        transport.close()  # idempotent
        assert wait_for(lambda: service.session_count == 0)

    def test_a_trace_replays_without_a_client_side_pyramid(
        self, server, small_dataset, small_study
    ):
        trace = max(small_study.traces, key=len)
        with ForeCacheService(small_dataset.pyramid, CONFIG) as service:
            handle = service.open_session(make_engine(small_dataset.pyramid.grid))
            expected = BrowsingSession(handle).replay(trace)
        with SocketTransport(*server.address) as transport:
            conn = transport.connect()
            assert conn.pyramid is None
            responses = BrowsingSession(conn).replay(trace)
        assert [
            (r.tile.key, r.hit, r.latency_seconds) for r in responses
        ] == [(r.tile.key, r.hit, r.latency_seconds) for r in expected]


# ----------------------------------------------------------------------
# encode once, send many (the byte-identity fuzz lives in
# test_properties.py; the conformance suite pins whole streams)
# ----------------------------------------------------------------------
class TestEncodeOnce:
    @pytest.mark.parametrize("payload", ["json", "binary"])
    def test_a_resend_encodes_nothing_and_sends_the_same_tile(
        self, server, small_dataset, segment_encodes, payload
    ):
        pyramid = small_dataset.pyramid
        with SocketTransport(
            *server.address, pyramid=pyramid, payload=payload
        ) as one, SocketTransport(
            *server.address, pyramid=pyramid, payload=payload
        ) as two:
            first = one.connect().request(None, TileKey(2, 1, 1))
            encoded = len(segment_encodes)
            again = two.connect().request(None, TileKey(2, 1, 1))
            assert len(segment_encodes) == encoded
        expected = pyramid.fetch_tile(TileKey(2, 1, 1))
        assert first.tile == again.tile == expected

    def test_each_payload_encoding_is_encoded_once(
        self, server, small_dataset, segment_encodes
    ):
        tile = small_dataset.pyramid.fetch_tile(TileKey(0, 0, 0), charge=False)
        tile.segments.clear()  # forget what earlier tests sent
        for _ in range(2):
            for payload in ("json", "binary"):
                with SocketTransport(
                    *server.address, payload=payload
                ) as transport:
                    transport.connect().request(None, TileKey(0, 0, 0))
        assert [(t.key, binary) for t, binary in segment_encodes] == [
            (TileKey(0, 0, 0), False),
            (TileKey(0, 0, 0), True),
        ]
        assert set(tile.segments) == {False, True}

    def test_degraded_reply_encodes_and_stores_nothing(
        self, small_dataset, segment_encodes
    ):
        config = ServiceConfig(
            prefetch=PrefetchPolicy(
                k=2,
                fidelity="progressive",
                shed_miss_streak=2,
            ),
            cache=CacheConfig(recent_capacity=8, prefetch_capacity=4),
        )
        full = small_dataset.pyramid.fetch_tile(TileKey(3, 1, 1), charge=False)
        full.segments.clear()
        with ThreadedSocketServer(
            small_dataset.pyramid,
            config,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        ) as server:
            with SocketTransport(*server.address) as transport:
                conn = transport.connect()
                # Warm the level-1 ancestor, then trip the miss streak.
                for key in (TileKey(1, 0, 0), TileKey(4, 9, 9), TileKey(5, 20, 20)):
                    assert conn.request(None, key).fidelity == 1.0
                encoded = len(segment_encodes)
                degraded = conn.request(None, TileKey(3, 1, 1))
                assert degraded.fidelity == 0.25
                # Same key, other bytes: neither encoded as a segment
                # nor left on the full tile.
                assert len(segment_encodes) == encoded
                assert full.segments == {}

    @pytest.mark.parametrize("endpoint_kind", ["server", "cluster"])
    def test_a_store_write_is_served_on_the_next_request(self, endpoint_kind):
        # A world of its own: this test writes into a view.
        pyramid = MODISDataset.build(size=256, tile_size=32, days=1, seed=7).pyramid
        config = ServiceConfig(
            prefetch=PrefetchPolicy(enabled=False),
            cache=CacheConfig(recent_capacity=1, prefetch_capacity=1),
        )
        key = TileKey(2, 1, 1)
        with serving(endpoint_kind, pyramid, config) as server:
            with SocketTransport(
                *server.address, payload="json"
            ) as json_wire, SocketTransport(
                *server.address, payload="binary"
            ) as binary_wire:
                conns = [json_wire.connect(), binary_wire.connect()]
                for conn in conns:
                    assert conn.request(None, key).tile == pyramid.fetch_tile(
                        key, charge=False
                    )
                served = []
                for conn in conns:
                    old = pyramid.fetch_tile(key, charge=False)
                    for name, block in old.attributes.items():
                        pyramid.db.write(
                            pyramid.view_name(key.level),
                            name,
                            block + 1.0,
                            pyramid.tile_region(key),
                        )
                    # Still cached, but written since it was loaded: a
                    # miss, the new bytes fetched from the store.
                    response = conn.request(None, key)
                    new = pyramid.fetch_tile(key, charge=False)
                    assert new != old
                    served.append((response.tile == new, response.hit))
                assert served == [(True, False)] * 2  # json, binary

    @pytest.mark.parametrize("payload", ["json", "binary"])
    def test_oversized_reply_is_a_typed_error_cold_and_warm(
        self, small_dataset, payload
    ):
        # Room for the handshake and control frames, not for a tile
        # (~71 KB as JSON, ~8 KB binary).
        config = ServiceConfig(prefetch=PrefetchPolicy(k=5), max_frame_bytes=4096)
        with ThreadedSocketServer(
            small_dataset.pyramid,
            config,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        ) as server:
            with SocketTransport(*server.address, payload=payload) as transport:
                conn = transport.connect()
                for _ in range(2):
                    with pytest.raises(FrameTooLargeError, match="4096-byte"):
                        conn.request(None, TileKey(0, 0, 0))
                # A typed answer each time; the connection keeps serving.
                info = transport.roundtrip(CloseSession(conn.session_id))
                assert info.requests == 2
