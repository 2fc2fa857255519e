"""The lightweight client interface.

The front-end visualizer only ever talks to the back-end through tile
requests (Section 3).  :class:`BrowsingSession` models one user session:
it tracks the current tile, validates moves against the pyramid, and
forwards requests to a *connection* — anything exposing ``.pyramid``,
``.request(move, key)`` and ``.close()``.  That contract is satisfied by
a facade :class:`~repro.middleware.service.SessionHandle` and a
:class:`~repro.middleware.net.SocketSessionClient` (over a server or a
cluster's router), so the same client code drives every front end.

It can replay a recorded trace — the workhorse of the latency
experiments.
"""

from __future__ import annotations

from repro.middleware.service import TileResponse
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.users.session import Trace


class BrowsingSession:
    """One user's live session against any front end."""

    def __init__(self, server) -> None:
        self.pyramid = server.pyramid
        self.server = server
        self.current: TileKey | None = None

    def start(self, at: TileKey | None = None) -> TileResponse:
        """Open the session at a tile (default: the root overview)."""
        if self.current is not None:
            raise RuntimeError("session already started")
        key = at if at is not None else self.pyramid.grid.root
        if not self.pyramid.grid.valid(key):
            raise ValueError(f"tile {key} is not in the pyramid")
        return self._arrive(key, self.server.request(None, key))

    def move(self, move: Move) -> TileResponse:
        """Apply one interface move and request the resulting tile."""
        if self.current is None:
            raise RuntimeError("session not started; call start() first")
        target = self.pyramid.grid.apply(self.current, move)
        if target is None:
            raise ValueError(f"move {move} is not legal from {self.current}")
        return self._arrive(target, self.server.request(move, target))

    def replay(self, trace: Trace) -> list[TileResponse]:
        """Replay a recorded trace through the server, returning every
        response.  The session must be fresh."""
        if self.current is not None:
            raise RuntimeError("replay requires a fresh session")
        responses = []
        for request in trace.requests:
            responses.append(
                self._arrive(
                    request.tile,
                    self.server.request(request.move, request.tile),
                )
            )
        return responses

    def _arrive(self, key: TileKey, response: TileResponse) -> TileResponse:
        """Advance to ``key`` now that its request returned ``response``.

        The one place position changes, and only ever with a response in
        hand: a request that raised (``worker_unavailable`` mid-failover)
        leaves the client where it was, so the same ``start()`` /
        ``move()`` can simply be retried.  On a push connection the
        failure may be the *previous* move's: that one was answered from
        the push cache, and what its ack met is raised by this call
        before it sends anything.  Retrying is still right; the server's
        history just lacks the move it never saw.
        """
        self.current = key
        return response

    @property
    def available_moves(self) -> list[Move]:
        """Moves legal from the current tile."""
        if self.current is None:
            return []
        return [
            move for move, _ in self.pyramid.grid.available_moves(self.current)
        ]
