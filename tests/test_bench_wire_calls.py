"""The protocol calls ``benchmarks/perf`` makes, in the fast tier.

The benchmark builds its frames through the public protocol surface —
``TileRef.from_key``, the ``TileRequest`` / ``PushTile`` / ``CloseSession``
constructors, ``TileResponse.from_result``, ``TilePayload.from_tile``,
``to_move`` / ``to_key``, ``encode_wire`` / ``decode_wire``,
``FrameDecoder`` and ``response_to_client`` — the way
``tracing.py::WireStages.request`` (a pull round, routed or not) and
``run.py::push_frame_bytes`` (a push frame) make them.  Each frame must
be the bytes the reference encoder writes: ``json.dumps`` of the field
table walked (``test_protocol.reference``), framed by hand.
"""

import json
import struct
from dataclasses import replace

import pytest

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware import protocol
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.protocol import (
    CloseSession,
    FrameDecoder,
    PushTile,
    TilePayload,
    TileRef,
    TileRequest,
    decode_wire,
    encode_wire,
)
from repro.middleware.service import ForeCacheService
from repro.middleware.transport import response_to_client
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from test_protocol import reference


def reference_wire(message, wire: str) -> bytes:
    """What ``encode_wire(message, wire)`` wrote while ``json.dumps``
    wrote every frame."""
    fields = {"type": message.wire_type, **reference(message)}
    if wire == "binary" and getattr(message, "payload", None) is not None:
        descriptor, blob = protocol._payload_descriptor(message.payload)
        fields["payload"] = reference(descriptor)
        header = json.dumps(fields).encode()
        body = struct.pack(">I", len(header)) + header + blob
        return struct.pack(">BI", 1, len(body)) + body
    text = json.dumps(fields).encode()
    if wire == "binary":
        return struct.pack(">BI", 0, len(text)) + text
    if wire == "length":
        return struct.pack(">I", len(text)) + text
    return text + b"\n"


@pytest.fixture
def service(tiny_dataset):
    grid = tiny_dataset.pyramid.grid

    def engine():
        model = MomentumRecommender()
        return PredictionEngine(grid, {model.name: model}, SingleModelStrategy(model.name))

    config = ServiceConfig(prefetch=PrefetchPolicy(k=5))
    with ForeCacheService(tiny_dataset.pyramid, config, engine_factory=engine) as service:
        yield service


#: A walk over the 128 px world's three levels: zooms both ways, pans.
WALK = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 2, 2), (2, 3, 2), (1, 1, 1)]


def walk():
    """``(move, key)`` per request, as ``workloads.requests_of`` makes
    them: no move on the first."""
    previous = None
    for key in [TileKey(*fields) for fields in WALK]:
        yield (previous.move_to(key) if previous is not None else None), key
        previous = key


@pytest.mark.parametrize("wire", ["binary", "length", "lines"])
@pytest.mark.parametrize("routed", [False, True], ids=["direct", "routed"])
def test_a_pull_round_frames_what_the_reference_encoder_frames(service, wire, routed):
    binary = wire == "binary"
    session_id = service.open_session(None, "session-1").session_id
    feed = {side: FrameDecoder(wire) for side in ("server", "client", "router")}

    def forward(frame: bytes) -> bytes:
        """A router's hop: decode, then encode again, byte for byte."""
        (cut,) = feed["router"].feed(frame)
        again = encode_wire(decode_wire(cut), wire)
        assert again == frame
        return again

    for move, key in walk():
        message = TileRequest(
            session_id=session_id,
            tile=TileRef.from_key(key),
            move=move.value if move is not None else None,
        )
        frame = encode_wire(message, wire)
        assert frame == reference_wire(message, wire)
        if routed:
            frame = forward(frame)
        (cut,) = feed["server"].feed(frame)
        request = decode_wire(cut)
        assert request == message
        result = service.request(request.session_id, request.to_move(), request.tile.to_key())
        response = protocol.TileResponse.from_result(request.session_id, result, binary=binary)
        reply = encode_wire(response, wire)
        assert reply == reference_wire(response, wire)
        if routed:
            reply = forward(reply)
        (cut,) = feed["client"].feed(reply)
        client = response_to_client(decode_wire(cut))
        assert client.tile == result.tile
        assert (client.hit, client.latency_seconds, client.phase, client.prefetched) == (
            result.hit, result.latency_seconds, result.phase, result.prefetched
        )
    close = CloseSession(session_id)
    assert encode_wire(close, wire) == reference_wire(close, wire)


def test_a_push_frame_is_what_the_reference_encoder_frames(tiny_dataset):
    pyramid = tiny_dataset.pyramid
    for key in pyramid.grid.all_keys():
        push = PushTile(
            session_id="session-1",
            tile=TileRef.from_key(key),
            rank=0,
            generation=1,
            utility=1.0,
            payload=TilePayload.from_tile(pyramid.fetch_tile(key, charge=False), binary=True),
        )
        frame = encode_wire(push, "binary")
        assert frame == reference_wire(push, "binary")
        (cut,) = FrameDecoder("binary").feed(frame)
        back = decode_wire(cut)
        assert back == push and back.payload.to_tile() == pyramid.fetch_tile(key, charge=False)
        assert encode_wire(back, "binary") == frame
        # The JSON form of the same frame, as a JSON-payload server sends it.
        push = replace(push, payload=TilePayload.from_tile(pyramid.fetch_tile(key, charge=False)))
        assert encode_wire(push, "length") == reference_wire(push, "length")
