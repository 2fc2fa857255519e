"""What the serving shells must keep, whatever moves the bytes.

Two properties of the socket server's and the router's client-side
connections that no handler test reaches:

* *Write backpressure.*  A client that sends requests and does not read
  its replies stops being served once the replies fill the socket
  buffers: the endpoint neither reads nor dispatches while its writes
  are stalled, so it never buffers more than one read's replies.  Once
  the client reads, every reply arrives, in request order.
* *No task per relayed request.*  Over an in-memory backend, a request
  the router relays to its session's worker creates no asyncio task on
  the router's loop (the socket server's twin is
  ``tests/test_server_loop.py::test_in_memory_socket_requests_create_no_tasks``).
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.cluster import ThreadedClusterServer
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.net import SocketTransport, ThreadedSocketServer
from repro.middleware.protocol import FrameDecoder
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move

#: How long a request may stay unserved before the endpoint counts as
#: stalled, and how long a stall is watched for movement.
_STALL_SECONDS = 1.0


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def pan_walk(grid, steps: int) -> list[tuple[Move | None, TileKey]]:
    """``steps`` requests panning back and forth along the finest
    level's top row, starting at its left end."""
    level = grid.num_levels - 1
    width = grid.tiles_per_dim(level)
    walk: list[tuple[Move | None, TileKey]] = [(None, TileKey(level, 0, 0))]
    x, step = 0, 1
    while len(walk) < steps:
        if not 0 <= x + step < width:
            step = -step
        x += step
        walk.append((Move.PAN_RIGHT if step > 0 else Move.PAN_LEFT, TileKey(level, x, 0)))
    return walk


def lines_client(address) -> socket.socket:
    """A raw JSON-lines client whose receive buffer is small, so that
    unread replies back up into the endpoint quickly."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 65536)
    sock.settimeout(20.0)
    sock.connect(address)
    return sock


def read_frames(sock, decoder: FrameDecoder, count: int) -> list[dict]:
    frames: list[str] = []
    while len(frames) < count:
        data = sock.recv(65536)
        assert data, f"connection closed after {len(frames)} of {count} frames"
        frames.extend(decoder.feed(data))
    assert len(frames) == count
    return [json.loads(frame) for frame in frames]


def send(sock, message: dict) -> None:
    sock.sendall(json.dumps(message).encode() + b"\n")


def wait_for(served, target: int) -> bool:
    """True once ``served()`` reaches ``target`` within the stall bound."""
    deadline = time.monotonic() + _STALL_SECONDS
    while time.monotonic() < deadline:
        if served() >= target:
            return True
        time.sleep(0.002)
    return False


def pile_up(address, grid, served_by) -> None:
    """Send JSON tile requests one at a time without reading a reply
    until the endpoint stops serving them; check that it stays stopped,
    then read every reply and check their order."""
    decoder = FrameDecoder("lines")
    sock = lines_client(address)
    try:
        send(sock, {"type": "hello", "versions": [1]})
        send(sock, {"type": "open_session", "session_id": "s"})
        welcome, opened = read_frames(sock, decoder, 2)
        assert (welcome["type"], opened["type"]) == ("welcome", "session_info")
        served = served_by("s")
        walk = pan_walk(grid, 400)
        sent: list[TileKey] = []
        stalled = None
        for move, key in walk:
            send(sock, {
                "type": "tile_request",
                "session_id": "s",
                "tile": list(key),
                "move": move and move.value,
            })
            sent.append(key)
            if not wait_for(served, len(sent)):
                stalled = served()
                break
        assert stalled is not None, "every request was served unread"
        assert stalled < len(sent)
        # Nothing more is served while the client does not read, however
        # much more it sends.
        for move, key in walk[len(sent):len(sent) + 5]:
            send(sock, {
                "type": "tile_request",
                "session_id": "s",
                "tile": list(key),
                "move": move.value,
            })
            sent.append(key)
        time.sleep(0.3)
        assert served() == stalled
        replies = read_frames(sock, decoder, len(sent))
        assert [reply["type"] for reply in replies] == ["tile_response"] * len(sent)
        assert [tuple(reply["tile"]) for reply in replies] == sent
        assert served() == len(sent)
    finally:
        sock.close()


CONFIG = ServiceConfig(prefetch=PrefetchPolicy(enabled=False))


class TestWriteBackpressure:
    def test_a_socket_server_stops_serving_a_client_that_does_not_read(
        self, small_dataset
    ):
        pyramid = small_dataset.pyramid
        with ThreadedSocketServer(
            pyramid, CONFIG, engine_factory=lambda: make_engine(pyramid.grid)
        ) as server:
            service = server.server.service
            pile_up(
                server.address,
                pyramid.grid,
                lambda sid: lambda: service.info(sid).requests,
            )

    def test_a_router_stops_relaying_for_a_client_that_does_not_read(
        self, small_dataset
    ):
        pyramid = small_dataset.pyramid
        with ThreadedClusterServer(
            pyramid,
            CONFIG,
            workers=2,
            engine_factory=lambda: make_engine(pyramid.grid),
        ) as cluster:
            ring = cluster.router.router.ring

            def served_by(sid):
                index = int(ring.owner(sid).rpartition("-")[2])
                service = cluster.workers[index].server.service
                return lambda: service.info(sid).requests

            pile_up(cluster.address, pyramid.grid, served_by)


@pytest.mark.parametrize("payload", ["json", "binary"])
def test_relayed_requests_create_no_tasks_on_the_routers_loop(
    small_dataset, payload
):
    """A relayed ``tile_request`` costs the router no asyncio task."""
    pyramid = small_dataset.pyramid
    with ThreadedClusterServer(
        pyramid,
        ServiceConfig(prefetch=PrefetchPolicy(k=4)),
        workers=2,
        engine_factory=lambda: make_engine(pyramid.grid),
    ) as cluster:
        with SocketTransport(*cluster.address, payload=payload) as transport:
            conn = transport.connect()
            tasks = []

            async def count_tasks():
                def counting_factory(loop, coro, **kwargs):
                    tasks.append(coro)
                    return asyncio.Task(coro, loop=loop, **kwargs)

                asyncio.get_running_loop().set_task_factory(counting_factory)

            cluster.router._run(count_tasks())
            loop = cluster.router._loop
            try:
                responses = [
                    conn.request(move, key) for move, key in pan_walk(pyramid.grid, 50)
                ]
            finally:
                # No coroutine: removing the factory must not count itself.
                loop.call_soon_threadsafe(loop.set_task_factory, None)
            assert 0 < sum(r.hit for r in responses) < 50
            assert tasks == []
