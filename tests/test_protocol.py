"""Wire-protocol round trips: every message survives JSON losslessly."""

import ast
import copy
import functools
import json
import math
import os
import pickle
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
import zlib
from dataclasses import MISSING, fields, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.middleware import protocol
from repro.middleware.latency import LatencyRecorder
from repro.middleware.transport import response_to_client
from repro.middleware.protocol import (
    ERROR_TYPES,
    MESSAGE_TYPES,
    SUPPORTED_VERSIONS,
    AttributeBlock,
    CloseSession,
    DuplicateSessionError,
    ErrorInfo,
    FramingError,
    FrameTooLargeError,
    Hello,
    InvalidRequestError,
    OpenSession,
    ProtocolError,
    PushAck,
    PushTile,
    SessionClosedError,
    SessionInfo,
    SessionNotFoundError,
    TilePayload,
    TileRef,
    TileRequest,
    TileResponse,
    VersionMismatchError,
    Welcome,
    negotiate_version,
)
from repro.modis.dataset import MODISDataset
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.tile import DataTile


def roundtrip(message):
    """encode -> JSON string -> decode."""
    encoded = protocol.encode(message)
    json.loads(encoded)  # must be valid JSON, not just a repr
    return protocol.decode(encoded)


class TestTileRef:
    def test_key_round_trip(self):
        key = TileKey(3, 5, 2)
        ref = TileRef.from_key(key)
        assert type(ref) is TileRef
        back = ref.to_key()
        assert back == key and type(back) is TileKey

    @pytest.mark.parametrize(
        "value, got", [(TileKey(3, 5, 2), "TileKey"), ((3, 5, 2), "tuple")]
    )
    def test_a_key_or_tuple_is_no_wire_reference(self, value, got):
        # A key is a tuple, and equals [level, x, y] field for field: only
        # the JSON list itself may enter as a reference.
        with pytest.raises(TypeError, match=rf"^expected \[level, x, y\], got {got}$"):
            TileRef.from_list(value)

    def test_list_round_trip(self):
        ref = TileRef(2, 1, 3)
        assert TileRef.from_list(ref.to_list()) == ref

    def test_pickle_and_copy_rebuild_a_ref_through_its_checks(self):
        ref = TileRef(2, -1, 3)  # a peer's: no key can hold it
        for again in (pickle.loads(pickle.dumps(ref)), copy.copy(ref), copy.deepcopy(ref)):
            assert type(again) is TileRef and again == ref
            assert (again.level, again.x, again.y) == (2, -1, 3)
        with pytest.raises(TypeError, match=r"^expected \[level, x, y\], got \[float, int, int\]$"):
            TileRef(2.0, 1, 3)


class TestTilePayload:
    def test_payload_round_trip_is_lossless(self):
        tile = DataTile(
            key=TileKey(2, 1, 0),
            attributes={
                "ndsi_avg": np.linspace(-1.0, 1.0, 16).reshape(4, 4),
                "count": np.arange(16, dtype="int32").reshape(4, 4),
            },
        )
        payload = TilePayload.from_tile(tile)
        rebuilt = TilePayload.from_dict(
            json.loads(payload.to_json())
        )
        assert rebuilt == payload
        restored = rebuilt.to_tile()
        assert restored.key == tile.key
        for name, array in tile.attributes.items():
            assert restored.attributes[name].dtype == array.dtype
            np.testing.assert_array_equal(restored.attributes[name], array)

    def test_float32_exact(self):
        array = np.asarray([0.1, 2.0 / 3.0], dtype="float32")
        block = AttributeBlock.from_array("v", array.reshape(1, 2))
        rebuilt = AttributeBlock.from_dict(
            json.loads(block.to_json())
        ).to_array()
        assert rebuilt.dtype == np.float32
        np.testing.assert_array_equal(rebuilt, array.reshape(1, 2))


class TestMessages:
    def test_tile_request_round_trip(self):
        request = TileRequest(
            session_id="s1",
            tile=TileRef(2, 1, 1),
            move=Move.PAN_RIGHT.value,
        )
        assert roundtrip(request) == request
        assert roundtrip(request).to_move() is Move.PAN_RIGHT

    def test_start_request_has_no_move(self):
        request = TileRequest(session_id="s1", tile=TileRef(0, 0, 0))
        assert roundtrip(request) == request
        assert roundtrip(request).to_move() is None

    def test_unknown_move_rejected(self):
        request = TileRequest(
            session_id="s1", tile=TileRef(0, 0, 0), move="teleport"
        )
        with pytest.raises(InvalidRequestError):
            request.to_move()

    def test_tile_response_round_trip(self):
        tile = DataTile(
            key=TileKey(1, 0, 1),
            attributes={"v": np.ones((2, 2))},
        )
        response = TileResponse(
            session_id="s1",
            tile=TileRef(1, 0, 1),
            latency_seconds=0.0195,
            hit=True,
            phase="foraging",
            prefetched=(TileRef(1, 1, 1), TileRef(0, 0, 0)),
            payload=TilePayload.from_tile(tile),
        )
        assert roundtrip(response) == response

    def test_session_info_round_trip(self):
        info = SessionInfo(
            session_id="s9",
            open=True,
            prefetch_mode="background",
            requests=12,
            hits=9,
            hit_rate=0.75,
            average_latency_seconds=0.05,
        )
        assert roundtrip(info) == info

    @pytest.mark.parametrize(
        "exc_type",
        sorted(ERROR_TYPES.values(), key=lambda cls: cls.code),
        ids=lambda cls: cls.code,
    )
    def test_error_round_trip_and_reraise(self, exc_type):
        """Every typed exception survives the wire as exactly itself."""
        original = exc_type("boom", session_id="s3")
        info = ErrorInfo.from_exception(original)
        back = roundtrip(info)
        assert back == info
        raised = back.to_exception()
        assert type(raised) is exc_type
        assert raised.message == "boom"
        assert raised.session_id == "s3"

    @pytest.mark.parametrize(
        ("exc_type", "legacy_base"),
        [
            (SessionNotFoundError, KeyError),
            (DuplicateSessionError, ValueError),
            (SessionClosedError, RuntimeError),
            (InvalidRequestError, ValueError),
            (FramingError, ValueError),
            (FrameTooLargeError, FramingError),
            (VersionMismatchError, ValueError),
        ],
        ids=lambda arg: getattr(arg, "code", arg.__name__),
    )
    def test_reraised_errors_keep_their_legacy_bases(
        self, exc_type, legacy_base
    ):
        """Catching by builtin base still works after a wire round trip."""
        raised = roundtrip(
            ErrorInfo.from_exception(exc_type("boom"))
        ).to_exception()
        assert isinstance(raised, legacy_base)
        assert isinstance(raised, ProtocolError)

    def test_foreign_exception_maps_to_base_error(self):
        info = ErrorInfo.from_exception(ZeroDivisionError("np"))
        assert info.code == ProtocolError.code
        assert isinstance(info.to_exception(), ProtocolError)

    def test_unknown_error_code_degrades_to_base_error(self):
        """A newer server's error code still raises *something* typed."""
        raised = ErrorInfo(code="quota_exceeded", message="nope").to_exception()
        assert type(raised) is ProtocolError
        assert raised.message == "nope"


class TestPayloadEdgeCases:
    @pytest.mark.parametrize(
        "values",
        [
            [float("nan"), 1.0, 2.0],
            [float("inf"), float("-inf"), 0.0],
            [float("nan"), float("inf"), float("-inf")],
        ],
        ids=["nan", "inf", "mixed"],
    )
    def test_non_finite_floats_survive_the_wire(self, values):
        tile = DataTile(
            key=TileKey(1, 0, 0),
            attributes={"v": np.asarray(values).reshape(1, len(values))},
        )
        payload = TilePayload.from_tile(tile)
        rebuilt = TilePayload.from_dict(
            json.loads(payload.to_json())
        ).to_tile()
        # assert_array_equal treats NaN as equal to NaN (exact positions).
        np.testing.assert_array_equal(
            rebuilt.attributes["v"], tile.attributes["v"]
        )

    @pytest.mark.parametrize(
        "shape", [(0,), (0, 4), (4, 0)], ids=["0", "0x4", "4x0"]
    )
    def test_zero_size_arrays_survive_the_wire(self, shape):
        array = np.zeros(shape, dtype="float32")
        block = AttributeBlock.from_array("empty", array)
        rebuilt = AttributeBlock.from_dict(
            json.loads(block.to_json())
        ).to_array()
        assert rebuilt.shape == shape
        assert rebuilt.dtype == np.float32
        assert rebuilt.size == 0

    def test_zero_size_payload_in_full_response(self):
        tile = DataTile(
            key=TileKey(2, 1, 1),
            attributes={"v": np.zeros((0, 0), dtype="int16")},
        )
        response = TileResponse(
            session_id="s1",
            tile=TileRef(2, 1, 1),
            latency_seconds=0.0195,
            hit=True,
            payload=TilePayload.from_tile(tile),
        )
        back = roundtrip(response)
        restored = back.payload.to_tile()
        assert restored.attributes["v"].shape == (0, 0)
        assert restored.attributes["v"].dtype == np.int16


def _reply_carrying(payload: TilePayload) -> TileResponse:
    return TileResponse(
        session_id="s", tile=payload.tile, latency_seconds=0.0, hit=True,
        payload=payload,
    )


def _with_blob(body: bytes, blob: bytes, **entry) -> bytes:
    """``body`` with its blob replaced, its codec set to ``"zlib"`` and
    ``entry``'s keys written over its first descriptor entry."""
    size = int.from_bytes(body[:4], "big")
    header = json.loads(body[4 : 4 + size])
    header["payload"]["codec"] = "zlib"
    header["payload"]["attributes"][0].update(entry)
    text = json.dumps(header).encode("utf-8")
    return len(text).to_bytes(4, "big") + text + blob


@functools.cache
def _zlib_bomb() -> bytes:
    """A zlib stream of 64 MiB of zeros, 64 KB on the wire; built a MiB
    at a time."""
    deflate = zlib.compressobj(9)
    chunk = bytes(1 << 20)
    return b"".join(deflate.compress(chunk) for _ in range(64)) + deflate.flush()


def bomb_body(declared: int) -> bytes:
    """A binary ``tile_response`` whose one ``uint8`` attribute declares
    ``declared`` bytes and whose zlib blob inflates to 64 MiB."""
    body = protocol.encode_binary_message(
        _reply_carrying(
            TilePayload(
                tile=TileRef(0, 0, 0),
                attributes=(
                    AttributeBlock.from_array(
                        "v", np.zeros(0, dtype="uint8"), binary=True
                    ),
                ),
            )
        )
    )
    return _with_blob(body, _zlib_bomb(), shape=[declared], nbytes=declared)


def traced_peak(call) -> int:
    """The peak of traced allocations while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBinaryBlob:
    """The blob deflates one attribute block at a time: a block that
    does not shrink under fixed codes goes stored, a repeated block
    becomes back-references — in one standard zlib stream."""

    def test_float_noise_is_stored_and_repeats_are_references(
        self, tiny_dataset
    ):
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(2, 1, 2))
        payload = TilePayload.from_tile(tile, binary=True)
        descriptor, blob = protocol._payload_descriptor(payload)
        arrays = [block.to_array() for block in payload.attributes]
        block_bytes = arrays[0].nbytes
        # At days=1 the three NDSI blocks are one block three times.
        names = [block.name for block in payload.attributes]
        avg, high, low = (arrays[names.index(n)] for n in
                          ("ndsi_avg", "ndsi_max", "ndsi_min"))
        assert np.array_equal(avg, high) and np.array_equal(avg, low)
        assert descriptor.codec == "zlib"
        assert block_bytes <= len(blob) < 1.25 * block_bytes
        assert zlib.decompress(blob) == b"".join(a.tobytes() for a in arrays)

    def test_a_blob_deflated_in_one_piece_still_decodes(self, tiny_dataset):
        # What a server from before the per-block stream sends.
        tile = tiny_dataset.pyramid.fetch_tile(TileKey(1, 1, 0))
        reply = _reply_carrying(TilePayload.from_tile(tile, binary=True))
        raw = b"".join(
            block.to_array().tobytes() for block in reply.payload.attributes
        )
        body = _with_blob(
            protocol.encode_binary_message(reply), zlib.compress(raw, 1)
        )
        decoded = protocol.decode_binary_message(body)
        assert decoded == reply
        for name, array in tile.attributes.items():
            np.testing.assert_array_equal(
                decoded.payload.to_tile().attributes[name], array
            )

    def test_incompressible_blocks_are_sent_raw(self):
        rng = np.random.default_rng(3)
        tile = DataTile(
            key=TileKey(1, 0, 0),
            attributes={
                name: rng.integers(0, 256, (32, 32), dtype="uint8")
                for name in ("a", "b")
            },
        )
        payload = TilePayload.from_tile(tile, binary=True)
        descriptor, blob = protocol._payload_descriptor(payload)
        assert descriptor.codec == "raw"
        assert blob == b"".join(a.tobytes() for a in tile.attributes.values())

    def test_binary_frame_bytes_reduced_5x_on_256px_block(self):
        """The acceptance bar from the wire redesign: on the 256px days=1
        attribute block (four float64 32x32 attributes) the binary frame
        must be at least 5x smaller than its JSON form (7.60x with one
        deflate block per attribute; 7.97x with one dynamic-coded
        stream)."""
        pyramid = MODISDataset.build(
            size=256, tile_size=32, days=1, seed=7
        ).pyramid
        tile = pyramid.fetch_tile(pyramid.grid.root)
        json_frame = protocol.encode_wire(
            _reply_carrying(TilePayload.from_tile(tile)), "length"
        )
        binary_frame = protocol.encode_wire(
            _reply_carrying(TilePayload.from_tile(tile, binary=True)), "binary"
        )
        ratio = len(json_frame) / len(binary_frame)
        assert ratio >= 5.0, (
            f"256px block frame bytes: json={len(json_frame)} "
            f"binary={len(binary_frame)} ({ratio:.2f}x)"
        )

    def test_a_zero_size_blob_is_refused_before_it_inflates(self):
        # zlib reads a max_length of 0 as "no limit": the decoder must
        # not hand it one.
        body = bomb_body(declared=0)

        def refused():
            with pytest.raises(InvalidRequestError, match="declared size"):
                protocol.decode_binary_message(body)

        assert traced_peak(refused) < 4 << 20


class TestEncodeTileFrame:
    """The encode-once framer: the segment is memoised on the tile."""

    def test_a_tile_frame_round_trips_and_is_encoded_once(
        self, segment_encodes
    ):
        tile = DataTile(
            key=TileKey(1, 0, 0),
            attributes={"v": np.arange(64, dtype="float64").reshape(8, 8)},
        )
        message = TileResponse(
            session_id="s", tile=TileRef(1, 0, 0), latency_seconds=0.0, hit=True
        )
        for _ in range(2):
            frame = protocol.encode_tile_frame(
                message, tile, "lines", protocol.DEFAULT_MAX_FRAME_BYTES
            )
            back = protocol.decode(frame.decode("utf-8"))
            np.testing.assert_array_equal(
                back.payload.to_tile().attributes["v"], tile.attributes["v"]
            )
        assert segment_encodes == [(tile, False)]
        assert list(tile.segments) == [False]

    def test_racing_first_sends_all_frame_the_reference_bytes(self):
        # Event loops sharing one pyramid (a ThreadedClusterServer's
        # in-process workers) may fill a tile's slot at the same time.
        tiles = [
            DataTile(
                key=TileKey(2, x, 0),
                attributes={"v": np.arange(64.0).reshape(8, 8) * (x + 1)},
            )
            for x in range(4)
        ]

        def message(tile):
            return TileResponse(
                session_id="s",
                tile=TileRef.from_key(tile.key),
                latency_seconds=0.0,
                hit=False,
            )

        expected = {
            (tile.key, framing): protocol.encode_wire(
                replace(
                    message(tile),
                    payload=TilePayload.from_tile(tile, binary=framing == "binary"),
                ),
                framing,
            )
            for tile in tiles
            for framing in ("lines", "binary")
        }
        senders = 8
        barrier = threading.Barrier(senders)
        sent = []

        def send(framing):
            barrier.wait(timeout=10)
            for tile in tiles:
                frame = protocol.encode_tile_frame(
                    message(tile), tile, framing, protocol.DEFAULT_MAX_FRAME_BYTES
                )
                sent.append(frame == expected[tile.key, framing])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=send, args=(("lines", "binary")[i % 2],))
                for i in range(senders)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sent == [True] * (senders * len(tiles))

    @pytest.mark.parametrize(
        "message",
        [
            TileResponse(
                session_id="s",
                tile=TileRef(1, 0, 0),
                latency_seconds=0.0,
                hit=True,
                fidelity=0.25,
            ),
            SessionInfo("s", True, "sync", 0, 0, 0.0, 0.0),
        ],
        ids=["reduced-fidelity", "no-payload-type"],
    )
    def test_only_full_fidelity_tile_messages_are_accepted(self, message):
        tile = DataTile(
            key=TileKey(1, 0, 0), attributes={"v": np.zeros((2, 2))}
        )
        with pytest.raises(ValueError):
            protocol.encode_tile_frame(
                message, tile, "binary", protocol.DEFAULT_MAX_FRAME_BYTES
            )
        assert tile.segments == {}


class TestForwardCompatibility:
    """Unknown fields from a newer peer are ignored, never fatal."""

    @pytest.mark.parametrize(
        "message",
        [
            TileRequest(session_id="s1", tile=TileRef(1, 0, 0), move="pan_right"),
            TileResponse(
                session_id="s1",
                tile=TileRef(1, 0, 0),
                latency_seconds=0.02,
                hit=True,
            ),
            SessionInfo(
                session_id="s1",
                open=True,
                prefetch_mode="sync",
                requests=1,
                hits=1,
                hit_rate=1.0,
                average_latency_seconds=0.02,
            ),
            ErrorInfo(code="error", message="boom"),
            Hello(versions=(1,), client="c"),
            Welcome(version=1, server="s", max_frame_bytes=4096),
            OpenSession(session_id="s1"),
            CloseSession(session_id="s1"),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_unknown_fields_are_ignored(self, message):
        encoded = json.loads(protocol.encode(message))
        encoded["x_future_extension"] = {"nested": [1, 2, 3]}
        assert protocol.decode(json.dumps(encoded)) == message

    def test_unknown_fields_inside_payload_blocks(self):
        block = AttributeBlock.from_array("v", np.ones((2, 2)))
        data = json.loads(block.to_json())
        data["compression"] = "none"
        assert AttributeBlock.from_dict(data) == block


class TestControlEnvelope:
    def test_hello_round_trip(self):
        hello = Hello(versions=(1, 2), client="browser/9")
        assert roundtrip(hello) == hello

    def test_welcome_round_trip(self):
        welcome = Welcome(version=1, server="forecache", max_frame_bytes=8192)
        assert roundtrip(welcome) == welcome

    def test_open_close_round_trip(self):
        assert roundtrip(OpenSession(session_id=None)) == OpenSession()
        assert roundtrip(OpenSession(session_id="s1")) == OpenSession("s1")
        assert roundtrip(CloseSession(session_id="s1")) == CloseSession("s1")

    def test_negotiate_picks_highest_common(self):
        assert negotiate_version((0, 1, 99)) == max(SUPPORTED_VERSIONS)

    def test_negotiate_rejects_disjoint_offer(self):
        with pytest.raises(VersionMismatchError):
            negotiate_version((99, 100))
        with pytest.raises(VersionMismatchError):
            negotiate_version(())


class TestEnvelope:
    def test_decode_rejects_garbage(self):
        with pytest.raises(InvalidRequestError):
            protocol.decode("{not json")

    def test_decode_rejects_non_string_type_tag(self):
        # An unhashable tag must be a typed rejection, not a TypeError.
        with pytest.raises(InvalidRequestError):
            protocol.decode(json.dumps({"type": ["hello"], "versions": [1]}))
        with pytest.raises(InvalidRequestError):
            protocol.decode(json.dumps({"type": 7}))

    def test_decode_rejects_deeply_nested_json(self):
        # Deep nesting exhausts json.loads' recursion; typed, not a crash.
        with pytest.raises(InvalidRequestError):
            protocol.decode("[" * 100000)

    def test_decode_rejects_unknown_type(self):
        with pytest.raises(InvalidRequestError):
            protocol.decode(json.dumps({"type": "warp_drive"}))

    def test_hotspot_gossip_is_not_a_message_type(self):
        header = json.dumps(
            {"type": "hotspot_gossip", "entries": [[2, 3, 3, 1.0]], "tick": 1}
        )
        assert "hotspot_gossip" not in protocol.MESSAGE_TYPES
        with pytest.raises(
            InvalidRequestError, match="^unknown message type 'hotspot_gossip'$"
        ):
            protocol.decode(header)
        body = len(header).to_bytes(4, "big") + header.encode()
        with pytest.raises(InvalidRequestError, match="cannot travel as a binary body"):
            protocol.decode_binary_message(body)

    def test_decode_rejects_non_object(self):
        with pytest.raises(InvalidRequestError):
            protocol.decode(json.dumps([1, 2, 3]))

    def test_decode_rejects_missing_fields(self):
        with pytest.raises(InvalidRequestError):
            protocol.decode(json.dumps({"type": "tile_request"}))

    def test_encode_rejects_non_messages(self):
        with pytest.raises(TypeError):
            protocol.encode({"session_id": "s1"})

    @pytest.mark.parametrize(
        "fields",
        [
            {"type": "tile_request", "session_id": "s", "tile": [1e400, 0, 0]},
            {"type": "hello", "versions": [1e400]},
            {
                "type": "push_tile", "session_id": "s", "tile": [0, 0, 0],
                "rank": 1e400, "generation": 1, "utility": 1.0,
            },
            {
                "type": "session_info", "session_id": "s", "open": True,
                "prefetch_mode": "sync", "requests": 1e400, "hits": 0,
                "hit_rate": 0.0, "average_latency_seconds": 0.0,
            },
            {"type": "welcome", "version": 1, "max_frame_bytes": 1e400},
        ],
        ids=lambda fields: fields["type"],
    )
    def test_a_number_too_large_for_an_int_is_a_typed_rejection(self, fields):
        # JSON ``1e400`` parses to ``inf`` and ``int(inf)`` raises
        # OverflowError — none of KeyError / TypeError / ValueError.
        text = json.dumps(fields)
        assert "Infinity" in text
        with pytest.raises(InvalidRequestError, match="malformed"):
            protocol.decode(text)

    @pytest.mark.parametrize("field", ["shape", "nbytes"])
    def test_an_infinite_binary_descriptor_is_a_typed_rejection(self, field):
        message = TileResponse(
            session_id="s", tile=TileRef(1, 0, 0), latency_seconds=0.0,
            hit=True,
            payload=TilePayload(
                tile=TileRef(1, 0, 0),
                attributes=(
                    AttributeBlock.from_array(
                        "v", np.zeros((2, 2)), binary=True
                    ),
                ),
            ),
        )
        body = protocol.encode_binary_message(message)
        header_len = int.from_bytes(body[:4], "big")
        header = json.loads(body[4 : 4 + header_len])
        entry = header["payload"]["attributes"][0]
        entry[field] = [1e400, 2] if field == "shape" else 1e400
        tampered = json.dumps(header).encode("utf-8")
        with pytest.raises(InvalidRequestError, match="malformed"):
            protocol.decode_binary_message(
                len(tampered).to_bytes(4, "big")
                + tampered
                + body[4 + header_len :]
            )

    @pytest.mark.parametrize("session_id", [123, ["a"], {"a": 1}, True, 1.5])
    @pytest.mark.parametrize(
        "fields",
        [
            {"type": "open_session"},
            {"type": "close_session"},
            {"type": "tile_request", "tile": [0, 0, 0]},
            {"type": "push_ack", "held": []},
        ],
        ids=lambda fields: fields["type"],
    )
    def test_a_session_id_is_a_string_or_a_typed_rejection(
        self, fields, session_id
    ):
        with pytest.raises(InvalidRequestError, match="session_id"):
            protocol.decode(json.dumps({**fields, "session_id": session_id}))

    def test_only_open_session_may_leave_the_session_id_out(self):
        assert protocol.decode('{"type": "open_session"}') == OpenSession()
        assert protocol.decode(
            '{"type": "open_session", "session_id": null}'
        ) == OpenSession()
        with pytest.raises(InvalidRequestError):
            protocol.decode('{"type": "close_session", "session_id": null}')


class TestLatencyRecorderExport:
    def test_dict_carries_the_samples(self):
        recorder = LatencyRecorder()
        recorder.record(0.0195, True)
        recorder.record(0.984, False)
        recorder.record(0.0195, True)
        data = json.loads(json.dumps(recorder.to_dict()))
        assert data["latencies"] == recorder.latencies
        assert data["hits"] == recorder.hits == 2
        assert data["count"] == 3

    def test_summary_fields(self):
        recorder = LatencyRecorder()
        for latency in (0.1, 0.2, 0.3, 0.4):
            recorder.record(latency, latency < 0.25)
        data = recorder.to_dict(include_latencies=False)
        assert "latencies" not in data
        assert data["count"] == 4
        assert data["hits"] == 2
        assert data["hit_rate"] == pytest.approx(0.5)
        assert data["average_seconds"] == pytest.approx(0.25)
        assert data["p95_seconds"] == pytest.approx(0.4)
        json.dumps(data)  # JSON-ready


# ----------------------------------------------------------------------
# the field table
# ----------------------------------------------------------------------
_REF = TileRef(2, 1, 3)
_PAYLOAD = TilePayload(
    tile=_REF,
    attributes=(
        AttributeBlock(name="v", dtype="float64", shape=(1, 2), values=(1.0, 2.5)),
    ),
)
#: One frame per message type with every default left alone and one with
#: none, byte for byte what ``encode`` gave before the codecs were
#: derived: key order and what is left off the wire are the format.
GOLDEN = [
    (
        TileRequest(session_id="s", tile=_REF),
        '{"type": "tile_request", "session_id": "s", "tile": [2, 1, 3], "move": null}',
    ),
    (
        TileRequest(session_id="s", tile=_REF, move="pan_left", held=()),
        '{"type": "tile_request", "session_id": "s", "tile": [2, 1, 3], "move": "pan_left", "held": []}',
    ),
    (
        TileRequest(session_id="s", tile=_REF, move="zoom_in_0", held=(TileRef(0, 0, 0), _REF)),
        '{"type": "tile_request", "session_id": "s", "tile": [2, 1, 3], "move": "zoom_in_0", "held": [[0, 0, 0], [2, 1, 3]]}',
    ),
    (
        TileResponse(session_id="s", tile=_REF, latency_seconds=0.0195, hit=True),
        '{"type": "tile_response", "session_id": "s", "tile": [2, 1, 3], "latency_seconds": 0.0195, "hit": true, "phase": null, "prefetched": [], "payload": null}',
    ),
    (
        TileResponse(session_id="s", tile=_REF, latency_seconds=0.984, hit=False, phase="foraging", prefetched=(TileRef(0, 0, 0), _REF), payload=_PAYLOAD, fidelity=0.25),
        '{"type": "tile_response", "session_id": "s", "tile": [2, 1, 3], "latency_seconds": 0.984, "hit": false, "phase": "foraging", "prefetched": [[0, 0, 0], [2, 1, 3]], "payload": {"tile": [2, 1, 3], "attributes": [{"name": "v", "dtype": "float64", "shape": [1, 2], "values": [1.0, 2.5]}]}, "fidelity": 0.25}',
    ),
    (
        PushTile(session_id="s", tile=_REF, rank=0, generation=3, utility=0.5),
        '{"type": "push_tile", "session_id": "s", "tile": [2, 1, 3], "rank": 0, "generation": 3, "utility": 0.5, "payload": null}',
    ),
    (
        PushTile(session_id="s", tile=_REF, rank=1, generation=3, utility=0.25, payload=_PAYLOAD, fidelity=0.5),
        '{"type": "push_tile", "session_id": "s", "tile": [2, 1, 3], "rank": 1, "generation": 3, "utility": 0.25, "payload": {"tile": [2, 1, 3], "attributes": [{"name": "v", "dtype": "float64", "shape": [1, 2], "values": [1.0, 2.5]}]}, "fidelity": 0.5}',
    ),
    (
        PushAck(session_id="s"),
        '{"type": "push_ack", "session_id": "s", "held": [], "move": null, "tile": null}',
    ),
    (
        PushAck(session_id="s", held=(_REF,), move="pan_up", tile=_REF),
        '{"type": "push_ack", "session_id": "s", "held": [[2, 1, 3]], "move": "pan_up", "tile": [2, 1, 3]}',
    ),
    (
        SessionInfo(session_id="s", open=True, prefetch_mode="sync", requests=3, hits=2, hit_rate=0.6666666666666666, average_latency_seconds=0.341),
        '{"type": "session_info", "session_id": "s", "open": true, "prefetch_mode": "sync", "requests": 3, "hits": 2, "hit_rate": 0.6666666666666666, "average_latency_seconds": 0.341}',
    ),
    (
        ErrorInfo(code="invalid_request", message="no"),
        '{"type": "error", "code": "invalid_request", "message": "no", "session_id": null}',
    ),
    (
        ErrorInfo(code="session_not_found", message="gone", session_id="s"),
        '{"type": "error", "code": "session_not_found", "message": "gone", "session_id": "s"}',
    ),
    (
        Hello(),
        '{"type": "hello", "versions": [1], "client": "", "push": false}',
    ),
    (
        Hello(versions=(1, 2), client="browser/9", push=True, payloads=("json", "binary")),
        '{"type": "hello", "versions": [1, 2], "client": "browser/9", "push": true, "payloads": ["json", "binary"]}',
    ),
    (
        Welcome(version=1),
        '{"type": "welcome", "version": 1, "server": "", "max_frame_bytes": 0, "push": false}',
    ),
    (
        Welcome(version=1, server="forecache-repro", max_frame_bytes=8388608, push=True, payload="binary"),
        '{"type": "welcome", "version": 1, "server": "forecache-repro", "max_frame_bytes": 8388608, "push": true, "payload": "binary"}',
    ),
    (
        OpenSession(),
        '{"type": "open_session", "session_id": null}',
    ),
    (
        OpenSession(session_id="s"),
        '{"type": "open_session", "session_id": "s"}',
    ),
    (
        CloseSession(session_id="s"),
        '{"type": "close_session", "session_id": "s"}',
    ),
]


def _walk(node, path=()):
    """Every ``(path, value)`` of a JSON tree, the root included."""
    yield path, node
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _walk(child, (*path, key))


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _put(tree, path, value):
    if not path:
        return value
    _at(tree, path[:-1])[path[-1]] = value
    return tree


def _wrong_typed(message, path, original, value) -> bool:
    """Is ``value`` of another JSON type than the ``original`` the
    encoder put at ``path`` (and not one the field's kind also takes)?"""
    if original is None:
        # A null says nothing of its field's type.
        return False
    mine, theirs = type(original), type(value)
    if mine is theirs or (mine is float and theirs is int):
        return False
    if value is None and len(path) == 1 and path[0] != "type":
        # null is legal exactly where the constructor's default is None.
        (field,) = (f for f in fields(message) if f.name == path[0])
        return field.default is not None
    return True


_PLACES = [
    (message, text, path)
    for message, text in GOLDEN
    for path, _ in _walk(json.loads(text))
]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=8,
)


class TestFieldTable:
    @pytest.mark.parametrize(
        ("message", "text"), GOLDEN, ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_golden_frames(self, message, text):
        assert protocol.encode(message) == text
        assert protocol.decode(text) == message

    def test_every_message_type_is_pinned_with_its_defaults_set_and_unset(self):
        for name, cls in protocol.MESSAGE_TYPES.items():
            frames = [message for message, _ in GOLDEN if type(message) is cls]
            defaulted = [f for f in fields(cls) if f.default is not MISSING]
            for at_default in (True, False):
                assert any(
                    all(
                        (getattr(message, f.name) == f.default) is at_default
                        for f in defaulted
                    )
                    for message in frames
                ), (name, at_default)

    @given(place=st.sampled_from(_PLACES), value=_JSON)
    @settings(max_examples=1500, deadline=None)
    def test_a_value_of_another_json_type_is_a_typed_rejection(self, place, value):
        """Every message type x every declared field, at any depth x a
        value of the wrong JSON type (null where not nullable, a bool
        for an integer, an integer for a string, a string or an object
        for a list, a list for an object, ...): InvalidRequestError and
        nothing else.  No other replacement may raise anything else."""
        message, text, path = place
        tree = json.loads(text)
        original = _at(tree, path)
        try:
            decoded = protocol.decode(json.dumps(_put(tree, path, value)))
        except InvalidRequestError:
            decoded = None
        if _wrong_typed(message, path, original, value):
            assert decoded is None, (path, value, decoded)

    @given(
        place=st.sampled_from(
            [p for p in _PLACES if isinstance(_at(json.loads(p[1]), p[2]), dict)]
        ),
        key=st.text(),
        value=_JSON,
    )
    @settings(max_examples=300, deadline=None)
    def test_an_unknown_key_is_ignored_at_any_depth(self, place, key, value):
        message, text, path = place
        tree = json.loads(text)
        _at(tree, path)["x-" + key] = value  # no declared name starts so
        assert protocol.decode(json.dumps(tree)) == message


# ----------------------------------------------------------------------
# the one reader
# ----------------------------------------------------------------------
def read(text) -> dict:
    """What ``_load_tagged`` makes of one frame (``str``) or binary
    header (``bytes``): its keys, the ``type`` tag put back."""
    name, _, raw = protocol._load_tagged(text, "frame")
    return raw if name is None else {"type": name, **raw}


def in_domain(literal: str):
    """The wire's number domain, for ``json.loads``' ``parse_int``: an
    integer literal outside [-2**63, 2**64) is the nearest double."""
    value = int(literal)
    return value if -(2**63) <= value < 2**64 else float(literal)


def same(a, b) -> bool:
    """Equal in type, in bits (any NaN equals any NaN, -0.0 is not 0.0)
    and in key order, at every depth."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b) or (a != a and b != b)
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[key], b[key]) for key in a)
    return a == b


#: Any text, lone surrogates and astral characters included.
_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["\ud800", "\udfff", "a\udc00b", "\U0001f600", "😀"]
)
#: Every value ``json.dumps`` writes inside the wire's number domain:
#: NaN, infinities, -0.0 and subnormals among the floats.
WIRE_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**64 - 1)
    | st.floats()
    | _TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=12,
)


@st.composite
def damaged_json(draw) -> str:
    """A written value with up to three characters put in or replaced."""
    text = json.dumps(draw(WIRE_VALUES), ensure_ascii=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = (
            text[:at]
            + draw(st.sampled_from('[]{},:"\\ 0123456789.-+eEtrufalsnNIy\ud800'))
            + text[at + draw(st.integers(0, 1)) :]
        )
    return text


class TestTheReader:
    """``_load_tagged`` reads what ``json.loads`` reads, bit for bit,
    with orjson where it can and ``json.loads`` where it cannot."""

    @given(value=WIRE_VALUES, ensure_ascii=st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_every_written_value_reads_back_as_json_loads_reads_it(
        self, value, ensure_ascii
    ):
        text = json.dumps({"v": value}, ensure_ascii=ensure_ascii)
        expected = json.loads(text)
        assert same(read(text), expected)
        try:
            data = text.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate written unescaped
            return
        assert same(read(data), expected)

    @given(text=st.text() | damaged_json())
    @settings(max_examples=1000, deadline=None)
    def test_on_any_text_the_readers_both_refuse_or_agree(self, text):
        framed = '{"v": ' + text + "}"
        try:
            expected = json.loads(framed, parse_int=in_domain)
        except (ValueError, RecursionError):
            expected = None
        try:
            got = read(framed)
        except InvalidRequestError:
            got = None
        assert (got is None) == (expected is None), (got, expected)
        assert got is None or same(got, expected)

    @pytest.mark.parametrize(
        ("text", "value"),
        [
            ("NaN", float("nan")),
            ("Infinity", float("inf")),
            ("-Infinity", float("-inf")),
            ("1e400", float("inf")),
            ('"\\ud800"', "\ud800"),
            ('"\ud800"', "\ud800"),
        ],
    )
    def test_what_orjson_refuses_is_read_by_json_loads(self, text, value):
        framed = '{"v": ' + text + "}"
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(framed)
        with mock.patch.object(protocol.json, "loads", wraps=json.loads) as loads:
            assert same(read(framed), {"v": value})
        assert loads.call_count == 1

    def test_what_orjson_reads_never_reaches_json_loads(self):
        expected = [json.loads(text) for _, text in GOLDEN]
        with mock.patch.object(protocol.json, "loads", wraps=json.loads) as loads:
            assert [read(text) for _, text in GOLDEN] == expected
            assert read(b'{"v": [1, -0.0, 5e-324, "\\u00e9"]}')["v"] == [1, -0.0, 5e-324, "é"]
        assert loads.call_count == 0

    def test_a_utf16_header_is_read_by_json_loads(self):
        data = '{"type": "x", "v": 1}'.encode("utf-16")
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(data)
        assert read(data) == {"type": "x", "v": 1}

    @pytest.mark.parametrize(
        ("framed", "value"),
        [
            ('{"v": ' + "[" * 1100 + "]" * 1100 + "}", None),
            ('{"v": ' + '{"a": ' * 1100 + "1" + "}" * 1100 + "}", None),
            ('{"v": [' + "[], " * 1100 + "[]]}", [[]] * 1101),
            ('{"v": "' + "[{" * 600 + '"}', "[{" * 600),
        ],
        ids=["deep-lists", "deep-objects", "many-lists", "brackets-in-a-string"],
    )
    def test_more_than_1024_brackets_are_read_by_json_loads_alone(self, framed, value):
        with mock.patch.object(
            protocol.orjson, "loads", wraps=orjson.loads
        ) as fast, mock.patch.object(protocol.json, "loads", wraps=json.loads) as slow:
            if value is None:
                # json.loads recurses out at this depth: typed, no crash.
                with pytest.raises(InvalidRequestError, match="^JSON nested too deeply$"):
                    read(framed)
            else:
                assert read(framed) == {"v": value}
        assert (fast.call_count, slow.call_count) == (0, 1)

    def test_a_hostile_closed_nesting_is_refused_typed_not_crashed_on(self):
        # In a child process: a reader that overflows the C stack dies
        # there (SIGSEGV), and fails this test instead of the test run.
        # orjson 3.8 alone does exactly that on the larger depth.
        script = (
            "import sys\n"
            "from repro.middleware import protocol\n"
            "from repro.middleware.connection import ServerConnection\n"
            "for depth in map(int, sys.argv[1:]):\n"
            "    nesting = b'[' * depth + b']' * depth\n"
            "    conn = ServerConnection('lines')\n"
            "    (frame,) = conn.receive(nesting + b'\\n')\n"
            "    header = b'{\"type\": \"tile_response\", \"v\": ' + nesting + b'}'\n"
            "    body = len(header).to_bytes(4, 'big') + header\n"
            "    for read in (conn.admit, protocol.decode_binary_message):\n"
            "        try:\n"
            "            read(frame if read == conn.admit else body)\n"
            "        except protocol.InvalidRequestError as exc:\n"
            "            print(depth, exc)\n"
        )
        depths = [10**5, protocol.DEFAULT_MAX_FRAME_BYTES // 2]
        run = subprocess.run(
            [sys.executable, "-c", script, *map(str, depths)],
            env=dict(os.environ, PYTHONPATH=str(Path(protocol.__file__).parents[2])),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            f"{depth} JSON nested too deeply" for depth in depths for _ in range(2)
        ]

    def test_1024_brackets_are_still_read_by_orjson(self):
        framed = '{"v": ' + "[" * 1023 + "]" * 1023 + "}"
        with mock.patch.object(protocol.json, "loads", wraps=json.loads) as slow:
            nested = read(framed)["v"]
        assert slow.call_count == 0
        for _ in range(1022):
            (nested,) = nested
        assert nested == []

    @pytest.mark.parametrize("fallback", [False, True], ids=["orjson", "json.loads"])
    def test_the_number_domain_is_doubles_and_64_bit_integers(self, fallback):
        # NaN elsewhere in the frame sends all of it to json.loads.
        framed = (
            '{"x": NaN, "v": [%d, %d, %d, %d, %d]}' if fallback
            else '{"v": [%d, %d, %d, %d, %d]}'
        ) % (2**64 - 1, -(2**63), 2**64, -(2**63) - 1, 2**70)
        values = read(framed)["v"]
        assert same(values, [2**64 - 1, -(2**63), 2.0**64, -(2.0**63), 2.0**70])


#: Every integer field, ``N`` where the integer goes.
_INTEGER_FIELDS = {
    "tile ref": '{"type": "tile_request", "session_id": "s", "tile": [N, 0, 0]}',
    "held ref": '{"type": "push_ack", "session_id": "s", "held": [[0, N, 0]]}',
    "rank": '{"type": "push_tile", "session_id": "s", "tile": [0, 0, 0], "rank": N, "generation": 1, "utility": 0.5}',
    "generation": '{"type": "push_tile", "session_id": "s", "tile": [0, 0, 0], "rank": 0, "generation": N, "utility": 0.5}',
    "requests": '{"type": "session_info", "session_id": "s", "open": true, "prefetch_mode": "sync", "requests": N, "hits": 0, "hit_rate": 0.0, "average_latency_seconds": 0.0}',
    "hits": '{"type": "session_info", "session_id": "s", "open": true, "prefetch_mode": "sync", "requests": 0, "hits": N, "hit_rate": 0.0, "average_latency_seconds": 0.0}',
    "version": '{"type": "welcome", "version": N}',
    "versions": '{"type": "hello", "versions": [1, N]}',
    "max_frame_bytes": '{"type": "welcome", "version": 1, "max_frame_bytes": N}',
    "block shape": '{"type": "tile_response", "session_id": "s", "tile": [0, 0, 0], "latency_seconds": 0.0, "hit": true, "payload": {"tile": [0, 0, 0], "attributes": [{"name": "v", "dtype": "float64", "shape": [N], "values": []}]}}',
}
_OVER_RANGE = [2**64, -(2**63) - 1, 2**70]


def _binary_body(entry_field: str, literal: int) -> bytes:
    """A binary ``tile_response`` whose descriptor entry has ``literal``
    (written as the integer literal) for ``entry_field``."""
    message = TileResponse(
        session_id="s", tile=TileRef(1, 0, 0), latency_seconds=0.0, hit=True,
        payload=TilePayload(
            tile=TileRef(1, 0, 0),
            attributes=(AttributeBlock.from_array("v", np.zeros((2, 2)), binary=True),),
        ),
    )
    body = protocol.encode_binary_message(message)
    size = int.from_bytes(body[:4], "big")
    header = json.loads(body[4 : 4 + size])
    entry = header["payload"]["attributes"][0]
    entry[entry_field] = [literal, 2] if entry_field == "shape" else literal
    tampered = json.dumps(header).encode("utf-8")
    return len(tampered).to_bytes(4, "big") + tampered + body[4 + size :]


class TestOverRangeIntegers:
    """An integer literal outside [-2**63, 2**64) reads as a double, so
    every integer field refuses it — typed, whichever reader read it."""

    @pytest.mark.parametrize("fallback", [False, True], ids=["orjson", "json.loads"])
    @pytest.mark.parametrize("literal", _OVER_RANGE)
    @pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
    def test_every_integer_field_refuses_it(self, field, literal, fallback):
        text = _INTEGER_FIELDS[field].replace("N", str(literal))
        if fallback:
            text = text.replace("{", '{"x": NaN, ', 1)
        with pytest.raises(InvalidRequestError, match="malformed .*expected"):
            protocol.decode(text)

    @pytest.mark.parametrize("literal", _OVER_RANGE)
    @pytest.mark.parametrize("entry_field", ["shape", "nbytes"])
    def test_a_binary_descriptor_refuses_it(self, entry_field, literal):
        with pytest.raises(
            InvalidRequestError,
            match="malformed binary attribute descriptor: expected an integer",
        ):
            protocol.decode_binary_message(_binary_body(entry_field, literal))

    def test_the_edges_of_the_domain_are_still_integers(self):
        text = _INTEGER_FIELDS["rank"].replace("N", str(2**64 - 1))
        assert protocol.decode(text).rank == 2**64 - 1
        text = _INTEGER_FIELDS["generation"].replace("N", str(-(2**63)))
        assert protocol.decode(text).generation == -(2**63)


# ----------------------------------------------------------------------
# JSON payload entries are read, not coerced
# ----------------------------------------------------------------------
def _reply(dtype: str, shape: list, values: str) -> str:
    """A ``tile_response`` frame carrying one JSON payload block ``v``."""
    return (
        '{"type": "tile_response", "session_id": "s", "tile": [1, 0, 0], '
        '"latency_seconds": 0.0, "hit": true, "phase": null, "prefetched": [], '
        '"payload": {"tile": [1, 0, 0], "attributes": [{"name": "v", '
        f'"dtype": "{dtype}", "shape": {json.dumps(shape)}, "values": {values}}}]}}}}'
    )


class TestJsonPayloadEntries:
    @pytest.mark.parametrize(
        ("dtype", "shape", "values", "reason"),
        [
            ("float64", [1], '["1"]', "entries must be numbers, got str"),
            ("float64", [1], "[true]", "entries must be numbers, got bool"),
            ("float64", [1], "[null]", "entries must be numbers, got NoneType"),
            ("float64", [2], "[true, 1.5]", "entries must be numbers, got bool"),
            ("float64", [1], "[[1.0]]", "entries must be numbers, got list"),
            ("float64", [1], '[{"a": 1}]', "entries must be numbers, got dict"),
            ("int64", [1], "[1.5]", "entries must be integers, got float"),
            ("int64", [1], "[%d]" % 2**70, "entries must be integers, got float"),
            ("int64", [1], "[%d]" % 2**63, "an entry is outside int64"),
            ("uint8", [2], "[0, 256]", "an entry is outside uint8"),
            ("uint8", [1], "[-1]", "an entry is outside uint8"),
            ("bool", [1], "[1]", "entries must be booleans, got int"),
            ("float64", [2], "[1.0]", "1 entries for shape \\[2\\]"),
            ("float64", [2, 2], "[1.0, 2.0, 3.0]", "3 entries for shape \\[2, 2\\]"),
            ("float64", [-1], "[]", "0 entries for shape \\[-1\\]"),
            ("float64", [-2, -2], "[1, 2, 3, 4]", "4 entries for shape \\[-2, -2\\]"),
            ("object", [1], "[1]", "dtype object cannot travel as JSON"),
            ("complex128", [1], "[1]", "dtype complex128 cannot travel as JSON"),
            ("<U4", [1], '["a"]', "dtype <U4 cannot travel as JSON"),
            ("floaty", [1], "[1.0]", "unknown dtype 'floaty'"),
        ],
    )
    def test_a_wrong_entry_is_a_typed_refusal_naming_the_attribute(
        self, dtype, shape, values, reason
    ):
        with pytest.raises(InvalidRequestError, match=f"attribute 'v': .*{reason}"):
            response_to_client(protocol.decode_wire(_reply(dtype, shape, values)))

    @pytest.mark.parametrize(
        ("dtype", "shape", "values", "expected"),
        [
            ("float64", [2], "[1, 2.5]", [1.0, 2.5]),
            ("float64", [3], "[NaN, Infinity, -Infinity]", [np.nan, np.inf, -np.inf]),
            ("float32", [1, 2], "[0.5, -0.0]", [[0.5, -0.0]]),
            ("int64", [2], "[%d, %d]" % (-(2**63), 2**63 - 1), [-(2**63), 2**63 - 1]),
            ("uint64", [1], "[%d]" % (2**64 - 1), [2**64 - 1]),
            ("int16", [0, 3], "[]", np.zeros((0, 3))),
            ("bool", [2], "[true, false]", [True, False]),
        ],
    )
    def test_entries_of_the_block_s_own_type_are_read_exactly(
        self, dtype, shape, values, expected
    ):
        tile = response_to_client(protocol.decode_wire(_reply(dtype, shape, values)))
        array = tile.tile.attributes["v"]
        assert array.dtype == np.dtype(dtype)
        assert array.shape == tuple(shape)
        np.testing.assert_array_equal(array, np.asarray(expected, dtype=dtype))

    def test_a_caller_s_integer_outside_the_dtype_is_refused_too(self):
        with pytest.raises(ValueError, match="attribute 'v': an entry is outside int64"):
            AttributeBlock(name="v", dtype="int64", shape=(1,), values=(2**70,))

    @given(
        array=st.sampled_from(["float64", "float32", "int64", "uint8", "bool"]).flatmap(
            lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_side=0))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_block_survives_the_json_wire(self, array):
        block = AttributeBlock.from_array("v", array)
        text = protocol.encode(TileResponse(
            session_id="s", tile=TileRef(1, 0, 0), latency_seconds=0.0, hit=True,
            payload=TilePayload(tile=TileRef(1, 0, 0), attributes=(block,)),
        ))
        back = protocol.decode(text).payload.attributes[0]
        assert back == block
        # Bit for bit, but for a NaN's sign and payload, which JSON's
        # one NaN literal does not carry.
        def canonical(x):
            return np.where(np.isnan(x), np.nan, x) if x.dtype.kind == "f" else x

        got = back.to_array()
        assert (got.dtype, got.shape) == (array.dtype, array.shape)
        assert canonical(got).tobytes() == canonical(array).tobytes()


def _reference_values_array(block) -> np.ndarray:
    """``protocol._values_array`` before its exact-float route: one scan
    of the entries' types, then ``np.array`` converts.  The oracle the
    route is held to."""
    name, values, shape = block.name, block.values, block.shape
    try:
        dtype = np.dtype(block.dtype)
    except (TypeError, ValueError):
        raise TypeError(f"attribute {name!r}: unknown dtype {block.dtype!r}") from None
    if dtype.kind not in protocol._ENTRY_TYPES:
        raise TypeError(f"attribute {name!r}: dtype {dtype} cannot travel as JSON")
    allowed, what = protocol._ENTRY_TYPES[dtype.kind]
    stray = set(map(type, values)) - allowed
    if stray:
        got = ", ".join(sorted(kind.__name__ for kind in stray))
        raise TypeError(f"attribute {name!r}: {dtype} entries must be {what}, got {got}")
    if min(shape, default=0) < 0 or math.prod(shape) != len(values):
        raise ValueError(
            f"attribute {name!r}: {len(values)} entries for shape {list(shape)}"
        )
    if dtype.kind in "iu" and values:
        bounds = np.iinfo(dtype)
        if min(values) < bounds.min or max(values) > bounds.max:
            raise ValueError(f"attribute {name!r}: an entry is outside {dtype}")
    return np.array(values, dtype=dtype).reshape(shape)


def _conversion(convert, block):
    """What ``convert(block)`` gives — dtype, shape and bytes, or the
    exception's type and text — and the kinds of warning it raised on
    the way (``np.array`` warns of an overflowing cast once per entry, a
    whole-array cast once)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            array = convert(block)
        except Exception as exc:
            outcome = (type(exc), str(exc))
        else:
            outcome = (array.dtype, array.shape, array.tobytes())
    return outcome, {(w.category, str(w.message)) for w in caught}


#: Doubles at the edges a conversion can get wrong: signed zero, the
#: subnormal range, overflow of each narrower float, and a value that
#: rounds differently through float32 than straight to float16.
_EDGE_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
    2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    65504.0, 65520.0, 3.4028235677973366e38, 1e300,
    1 + 2**-11 + 2**-40, 2**-25 + 2**-60,
]
_EDGE_INTS = [0, 1, -1, 255, 256, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1]
_EXACT_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
_ENTRIES = st.one_of(
    _EXACT_FLOATS,
    st.integers(-(2**64), 2**64) | st.sampled_from(_EDGE_INTS),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(_EXACT_FLOATS, max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    _EXACT_FLOATS.map(np.float64),
)


@st.composite
def _json_blocks(draw):
    """A JSON-born block as ``AttributeBlock`` hands it over: all exact
    floats, exact floats but one, or a mix, with a shape that fits or
    does not."""
    values = draw(st.lists(_EXACT_FLOATS, max_size=12) | st.lists(_ENTRIES, max_size=12))
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(_ENTRIES)
    values = tuple(values)
    count = len(values)
    shape = draw(
        st.sampled_from([(count,), (1, count), (count, 1)])
        | st.lists(st.integers(-2, 13), max_size=3).map(tuple)
    )
    dtype = draw(st.sampled_from(
        ["float64", "float32", "float16", ">f8", "int64", "uint8", "bool"]
    ))
    return SimpleNamespace(name="v", dtype=dtype, shape=shape, values=values)


class TestExactFloatRoute:
    """A float block of exact ``float`` entries is checked by one type
    count and packed by ``struct``; every other block takes the scan and
    ``np.array``.  Both must give what the scan and ``np.array`` alone
    gave, down to the bytes, the refusal text and the warnings."""

    @given(block=_json_blocks())
    @settings(max_examples=600, deadline=None)
    def test_it_converts_and_refuses_as_the_reference_does(self, block):
        assert _conversion(protocol._values_array, block) == _conversion(
            _reference_values_array, block
        )

    def test_a_native_float64_block_is_read_only(self):
        reply = protocol.decode_wire(_reply("float64", [2], "[0.5, -1.5]"))
        array = reply.payload.attributes[0].to_array()
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0

    @pytest.fixture(scope="class")
    def socket_json_tiles(self):
        """Every distinct tile of ``benchmarks/perf``'s ``socket_json``
        cycle, for the two seeds its numbers are quoted at."""
        perf = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
        with mock.patch.object(sys, "path", [str(perf), *sys.path]):
            from launch import build_world
            from workloads import wire_cycles
        pyramid = build_world().pyramid
        keys = {
            key
            for seed in (3, 7)
            for cycle in wire_cycles(pyramid.grid, seed)
            for key in cycle
        }
        return [pyramid.fetch_tile(key, charge=False) for key in sorted(keys)]

    def test_socket_json_s_tiles_decode_as_their_binary_form_does(
        self, socket_json_tiles
    ):
        for tile in socket_json_tiles:
            decoded = {}
            for binary, framing in ((False, "lines"), (True, "binary")):
                reply = _reply_carrying(TilePayload.from_tile(tile, binary=binary))
                (frame,) = protocol.FrameDecoder(framing).feed(
                    protocol.encode_wire(reply, framing)
                )
                decoded[binary] = protocol.decode_wire(frame).payload.to_tile()
            for name, array in tile.attributes.items():
                got, want = decoded[False].attributes[name], decoded[True].attributes[name]
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes() == array.tobytes()


# ----------------------------------------------------------------------
# the generated codecs against the table walk they replaced
# ----------------------------------------------------------------------
def reference(form) -> dict:
    """The dict ``json.dumps`` was handed before the codecs were
    generated: the field table walked, a value left off where ``omit``
    says, a reference as its list, a nested form as its dict, a tuple as
    a list, a binary-born block's values listed from its array."""
    data = {}
    for name, _, absent, omit in type(form).wire_fields:
        value = getattr(form, name)
        if not (omit and value == absent):
            data[name] = _reference_value(value)
    if type(form) is AttributeBlock and form.values is None:
        data["values"] = form.array.ravel().tolist()
    return data


def _reference_value(value):
    if type(value) is TileRef:
        return [value.level, value.x, value.y]
    if hasattr(type(value), "wire_fields"):
        return reference(value)
    if type(value) is tuple:
        return list(map(_reference_value, value))
    return value


def same_form(a, b) -> bool:
    """Equal field by field, a float in bits (any NaN equals any NaN)."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return same(a, b)
    if type(a) is tuple:
        return len(a) == len(b) and all(map(same_form, a, b))
    if hasattr(type(a), "wire_fields") and type(a) is not AttributeBlock:
        return all(same_form(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return a == b  # an AttributeBlock compares its arrays, NaN as NaN


_WIRE_INT = st.integers(-(2**63), 2**64 - 1) | st.sampled_from(
    [-(2**63), 2**64 - 1, 0, -1]
)
_WIRE_FLOAT = st.floats() | st.sampled_from(_EDGE_FLOATS + [1e16, -1e16, 1e-310])
_WIRE_REF = st.builds(TileRef, _WIRE_INT, _WIRE_INT, _WIRE_INT)


@st.composite
def _wire_blocks(draw):
    dtype = draw(st.sampled_from(["float64", "float32", "int64", "uint64", "uint8", "bool"]))
    array = draw(hnp.arrays(
        dtype, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
        elements=_WIRE_FLOAT if dtype == "float64" else None,
    ))
    return AttributeBlock.from_array(draw(_TEXT), array, binary=draw(st.booleans()))


_WIRE_PAYLOAD = st.builds(
    TilePayload, _WIRE_REF, st.lists(_wire_blocks(), max_size=3).map(tuple)
)
#: What each kind of field may hold.
_KIND_VALUES = [
    (protocol._STR, _TEXT),
    (protocol._INT, _WIRE_INT),
    (protocol._BOOL, st.booleans()),
    (protocol._NUMBER, _WIRE_FLOAT),
    (protocol._REF, _WIRE_REF),
    (protocol._REFS, st.lists(_WIRE_REF, max_size=3).map(tuple)),
    (protocol._INTS, st.lists(_WIRE_INT, max_size=3).map(tuple)),
    (protocol._STRS, st.lists(_TEXT, max_size=3).map(tuple)),
    (protocol._PAYLOAD, _WIRE_PAYLOAD),
]


def _wire_messages(cls):
    """``cls`` with every field drawn from its kind's values, a field
    with a default left at it (and so omitted, where ``omit`` says) or
    not, ``None`` where ``null`` is legal."""
    values = {}
    for f, (name, kind, _, _) in zip(fields(cls), cls.wire_fields):
        (strategy,) = [values for each, values in _KIND_VALUES if each is kind]
        if f.default is not MISSING:
            strategy = st.just(f.default) | strategy
        values[name] = strategy
    return st.builds(cls, **values)


class TestGeneratedCodecs:
    """Each message's generated writer is byte for byte ``json.dumps``
    of the table walk it replaced, and its reader reads that text back
    to an equal message — on strings with lone surrogates, control and
    astral characters, on NaN, infinities, -0.0, subnormals and 1e16, on
    integers at both ends of the wire's domain, defaults left off or
    written."""

    @pytest.mark.parametrize("cls", list(MESSAGE_TYPES.values()), ids=lambda cls: cls.wire_type)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_message_is_written_as_json_dumps_and_reads_back(self, cls, data):
        message = data.draw(_wire_messages(cls))
        text = protocol.encode(message)
        assert text == json.dumps({"type": cls.wire_type, **reference(message)})
        assert same_form(protocol.decode(text), message)

    @given(payload=_WIRE_PAYLOAD)
    @settings(max_examples=150, deadline=None)
    def test_a_payload_and_its_blocks_are_written_as_json_dumps(self, payload):
        assert payload.to_json() == json.dumps(reference(payload))
        for block in payload.attributes:
            assert block.to_json() == json.dumps(reference(block))
        assert same_form(TilePayload.from_dict(json.loads(payload.to_json())), payload)

    @pytest.mark.parametrize(
        "message",
        [
            CloseSession(session_id=type("Text", (str,), {})("s")),
            SessionInfo("s", True, "sync", True, 2, np.float64(0.5), 2**64 - 1),
            Welcome(version=1, server="\x00 ", max_frame_bytes=False),
            TileResponse("s", TileRef(0, 0, 0), math.nan, True, prefetched=[TileRef(1, 0, 0)]),
        ],
        ids=["str-subclass", "numpy-and-bool-in-int", "false-in-int", "nan-and-a-list"],
    )
    def test_a_value_not_of_its_kind_s_exact_type_is_written_by_json_dumps(self, message):
        reference_text = json.dumps({"type": message.wire_type, **reference(message)})
        assert protocol.encode(message) == reference_text


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------
#: The functions under ``repro/middleware`` that may parse JSON: the
#: wire's one reader.
JSON_READERS = {("protocol", "_load_tagged")}


def _json_parsers(path: Path) -> set:
    """``(module, qualified function)`` of every place in ``path`` that
    names a ``json`` / ``orjson`` parser (call or not, under any alias);
    importing one by name is reported as its own offence."""
    parsers = {"load", "loads", "JSONDecoder"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] in ("json", "orjson")
    }
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if (
                isinstance(child, ast.ImportFrom)
                and (child.module or "").split(".")[0] in ("json", "orjson")
                and any(alias.name in parsers for alias in child.names)
            ):
                found.add((path.stem, f"from {child.module} import"))
            if (
                isinstance(child, ast.Attribute)
                and child.attr in parsers
                and isinstance(child.value, ast.Name)
                and child.value.id in aliases
            ):
                found.add((path.stem, ".".join(scope)))
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_wire_has_one_json_reader():
    """A second decode path cannot quietly bring the stdlib parser back
    onto the hot path: nothing else under ``repro/middleware`` parses."""
    found = set()
    for path in sorted(Path(protocol.__file__).parent.glob("*.py")):
        found |= _json_parsers(path)
    assert found == JSON_READERS
