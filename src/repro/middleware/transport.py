"""What every wire client does with a decoded reply.

The transports live in :mod:`repro.middleware.net` (I/O shells) over
:mod:`repro.middleware.connection` (protocol cores); this is the step
they share with anything else that reads server replies (the
benchmark's stage replay imports it from here).
"""

from __future__ import annotations

from repro.middleware import protocol
from repro.middleware.protocol import ErrorInfo, ProtocolError
from repro.middleware.service import TileResponse


def response_to_client(message) -> TileResponse:
    """Turn a decoded server reply into an in-process ``TileResponse``.

    The one materialization path every transport's client shares:
    errors re-raise as their typed exception, non-responses and
    payload-less responses are protocol violations.
    """
    if isinstance(message, ErrorInfo):
        raise message.to_exception()
    if not isinstance(message, protocol.TileResponse):
        raise ProtocolError(
            f"expected tile_response, got {type(message).__name__}"
        )
    if message.payload is None:
        raise ProtocolError(
            "transport returned no payload; client cannot materialize"
            f" tile {message.tile.to_key()}"
        )
    return TileResponse(
        tile=message.payload.to_tile(),
        latency_seconds=message.latency_seconds,
        hit=message.hit,
        phase=message.to_phase(),
        prefetched=protocol.prefetched_keys(message),
        fidelity=message.fidelity,
    )
