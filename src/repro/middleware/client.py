"""The lightweight client interface.

The front-end visualizer only ever talks to the back-end through tile
requests (Section 3).  :class:`BrowsingSession` models one user session:
it tracks the current tile, validates moves against the pyramid, and
forwards requests to a *connection* — anything exposing ``.pyramid``,
``.request(move, key)`` and ``.close()``.  That contract is satisfied by
a facade :class:`~repro.middleware.service.SessionHandle` and a
:class:`~repro.middleware.net.SocketSessionClient` (over a server or a
cluster's router), so the same client code drives every front end.
:class:`AsyncBrowsingSession` is the identical client for connections
whose ``request`` is awaitable
(:class:`~repro.middleware.aio.AsyncSessionHandle`,
:class:`~repro.middleware.net.AsyncSocketSessionClient`).

Both can replay a recorded trace — the workhorse of the latency
experiments.
"""

from __future__ import annotations

from repro.middleware.service import TileResponse
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.users.session import Trace


class _BrowsingState:
    """Position tracking and move validation shared by both clients."""

    def __init__(self, pyramid) -> None:
        self.pyramid = pyramid
        self.current: TileKey | None = None

    def _start_key(self, at: TileKey | None) -> TileKey:
        if self.current is not None:
            raise RuntimeError("session already started")
        key = at if at is not None else self.pyramid.grid.root
        if not self.pyramid.grid.valid(key):
            raise ValueError(f"tile {key} is not in the pyramid")
        return key

    def _move_target(self, move: Move) -> TileKey:
        if self.current is None:
            raise RuntimeError("session not started; call start() first")
        target = self.pyramid.grid.apply(self.current, move)
        if target is None:
            raise ValueError(f"move {move} is not legal from {self.current}")
        return target

    def _check_fresh_for_replay(self) -> None:
        if self.current is not None:
            raise RuntimeError("replay requires a fresh session")

    def _arrive(self, key: TileKey, response: TileResponse) -> TileResponse:
        """Advance to ``key`` now that its request returned ``response``.

        The one place position changes, and only ever with a response in
        hand: a request that raised (``worker_unavailable`` mid-failover)
        or was cancelled before it ran leaves the client where it was,
        so the same ``start()`` / ``move()`` can simply be retried.  On
        a push connection the failure may be the *previous* move's: that
        one was answered from the push cache, and what its ack met is
        raised by this call before it sends anything.  Retrying is still
        right; the server's history just lacks the move it never saw.  A
        cancel *mid-flight* on the asyncio front end is weaker: the
        worker thread finishes the request server-side (engine observes
        it, the recorder logs it) while the client stays put — callers
        who cancel mid-flight and care about exact engine history should
        resync via the session's recorder/info rather than blindly
        retrying the same move.
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


class BrowsingSession(_BrowsingState):
    """One user's live session against any synchronous front end."""

    def __init__(self, server) -> None:
        super().__init__(server.pyramid)
        self.server = server

    def start(self, at: TileKey | None = None) -> TileResponse:
        """Open the session at a tile (default: the root overview)."""
        key = self._start_key(at)
        return self._arrive(key, self.server.request(None, key))

    def move(self, move: Move) -> TileResponse:
        """Apply one interface move and request the resulting tile."""
        target = self._move_target(move)
        return self._arrive(target, self.server.request(move, target))

    def replay(self, trace: Trace) -> list[TileResponse]:
        """Replay a recorded trace through the server, returning every
        response.  The session must be fresh."""
        self._check_fresh_for_replay()
        responses = []
        for request in trace.requests:
            responses.append(
                self._arrive(
                    request.tile,
                    self.server.request(request.move, request.tile),
                )
            )
        return responses


class AsyncBrowsingSession(_BrowsingState):
    """The same client, for awaitable connections (asyncio front end).

    The connection must expose ``.pyramid`` and an awaitable
    ``.request(move, key)`` — an
    :class:`~repro.middleware.aio.AsyncSessionHandle` does.
    """

    def __init__(self, session) -> None:
        super().__init__(session.pyramid)
        self.session = session

    async def start(self, at: TileKey | None = None) -> TileResponse:
        """Open the session at a tile (default: the root overview)."""
        key = self._start_key(at)
        return self._arrive(key, await self.session.request(None, key))

    async def move(self, move: Move) -> TileResponse:
        """Apply one interface move and request the resulting tile."""
        target = self._move_target(move)
        return self._arrive(
            target, await self.session.request(move, target)
        )

    async def replay(self, trace: Trace) -> list[TileResponse]:
        """Replay a recorded trace, returning every response."""
        self._check_fresh_for_replay()
        responses = []
        for request in trace.requests:
            responses.append(
                self._arrive(
                    request.tile,
                    await self.session.request(request.move, request.tile),
                )
            )
        return responses
