"""Client-side transports: the wire protocol with and without a network.

:class:`Transport` is the contract every client-side transport
implements — ``connect()`` opens a session and returns a connection
satisfying the ``BrowsingSession`` interface (``.pyramid``,
``.request(move, key)``, ``.close()``), so the one client drives every
transport.  Two implementations exist:

- :class:`InProcessTransport` (here) proves transport independence:
  every request is serialized to a JSON
  :class:`~repro.middleware.protocol.TileRequest`, handed to the server
  side as a *string*, served by the facade, and the response comes back
  as a JSON string that the client decodes — exactly the round trip a
  socket transport makes, minus the socket.  With ``payload="binary"``
  responses come back instead as the binary *message* encoding (JSON
  header + raw array bytes) that the socket transports negotiate,
  exercising the dense-payload codec without a socket.
- :class:`~repro.middleware.net.SocketTransport` speaks the same
  protocol as framed bytes over TCP.

    transport = InProcessTransport(service)
    conn = transport.connect(engine)          # opens a facade session
    BrowsingSession(conn).replay(trace)       # same client code as ever
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.engine import PredictionEngine
from repro.middleware import protocol
from repro.middleware.protocol import (
    ErrorInfo,
    InvalidRequestError,
    ProtocolError,
    SessionNotFoundError,
    TileRef,
    TileRequest,
)
from repro.middleware.service import ForeCacheService, TileResponse
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.pyramid import TilePyramid


class Transport(ABC):
    """What a client-side transport provides: sessions over the wire.

    ``connect()`` opens a server-side session and returns a connection
    exposing ``.pyramid``, ``.request(move, key)`` and ``.close()``.
    ``close()`` releases the transport itself (idempotent; the
    in-process transport holds nothing to release).
    """

    @abstractmethod
    def connect(
        self,
        engine: PredictionEngine | None = None,
        session_id: str | None = None,
    ):
        """Open a session; return its wire-speaking connection."""

    def close(self) -> None:
        """Release transport resources.  Idempotent."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
        prefetched=tuple(ref.to_key() for ref in message.prefetched),
        fidelity=message.fidelity,
    )


class InProcessTransport(Transport):
    """Moves protocol JSON strings between client stubs and a facade.

    With ``payload="binary"`` responses travel as the binary message
    encoding instead (bytes: JSON header + packed array blob) — the
    same codec the socket transports negotiate, minus the framing.
    Requests stay JSON either way, as they do on the wire.
    """

    def __init__(
        self,
        service: ForeCacheService,
        include_payload: bool = True,
        *,
        payload: str = "json",
    ) -> None:
        if payload not in protocol.PAYLOADS:
            raise ValueError(
                f"payload must be one of {protocol.PAYLOADS}, got {payload!r}"
            )
        self.service = service
        #: Ship tile payloads in responses (a metadata-only transport
        #: would resolve tiles out of band).
        self.include_payload = include_payload
        #: Payload encoding for responses ("json" | "binary").
        self.payload = payload

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def send(self, data: str) -> str | bytes:
        """Serve one encoded request; errors come back as ErrorInfo."""
        binary = self.payload == "binary"
        try:
            message = protocol.decode(data)
            if not isinstance(message, TileRequest):
                raise InvalidRequestError(
                    f"transport serves tile_request messages, got"
                    f" {type(message).__name__}"
                )
            result = self.service.request(
                message.session_id, message.to_move(), message.tile.to_key()
            )
            response = protocol.TileResponse.from_result(
                message.session_id,
                result,
                include_payload=self.include_payload,
                binary=binary,
            )
            if binary and response.payload is not None:
                return protocol.encode_binary_message(response)
            return protocol.encode(response)
        except Exception as exc:
            # Errors carry no payload, so they stay JSON in both modes —
            # exactly as the binary wire framing sends them (kind-0).
            return protocol.encode(ErrorInfo.from_exception(exc))

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def connect(
        self,
        engine: PredictionEngine | None = None,
        session_id: str | None = None,
    ) -> "WireSessionClient":
        """Open a facade session and return a wire-speaking client for it.

        Wire session ids are strings (they travel in JSON), so a
        non-string id is stringified *before* the session opens — the
        facade and the wire must agree on the key.
        """
        handle = self.service.open_session(
            engine, str(session_id) if session_id is not None else None
        )
        return WireSessionClient(self, str(handle.session_id))


class WireSessionClient:
    """One session's client stub: talks JSON, returns in-process responses."""

    def __init__(self, transport: InProcessTransport, session_id: str) -> None:
        self.transport = transport
        self.session_id = session_id
        self._closed = False

    @property
    def pyramid(self) -> TilePyramid:
        """Client-side pyramid knowledge (move validation, root tile)."""
        return self.transport.service.pyramid

    def request(self, move: Move | None, key: TileKey) -> TileResponse:
        """Round-trip one request through the wire protocol."""
        raw = self.transport.send(
            protocol.encode(
                TileRequest(
                    session_id=self.session_id,
                    tile=TileRef.from_key(key),
                    move=move.value if move is not None else None,
                )
            )
        )
        # decode_wire dispatches on type: str replies are JSON, bytes
        # replies are binary message bodies (payload="binary" mode).
        return response_to_client(protocol.decode_wire(raw))

    def close(self) -> None:
        """Close the underlying facade session.  Idempotent, matching
        the ``SessionHandle.close`` contract this client mirrors."""
        if self._closed:
            return
        self._closed = True
        try:
            self.transport.service.close_session(self.session_id)
        except SessionNotFoundError:
            pass  # already closed server-side (e.g. service.close())
