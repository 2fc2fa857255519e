"""The multi-process cluster: ring, handshake intersection, forwarding
as framed, failover, and a spawn-context smoke boot.

Everything runs over loopback on ephemeral ports.  The spawn tests are
the only ones that cross a process boundary; they use small worlds so
worker boot (dataset build + bind) stays cheap.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import os
import socket
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.experiments.sweep import resolve_spec, run_cell
from repro.middleware import cluster as cluster_module
from repro.middleware.cluster import (
    ConsistentHashRing,
    ProcessCluster,
    ThreadedClusterServer,
    ThreadedRouter,
    TileServiceRouter,
    WorkerSpec,
    _BackendLink,
)
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.net import (
    ForeCacheSocketServer,
    SocketTransport,
    ThreadedSocketServer,
)
from repro.middleware.service import ForeCacheService
from repro.middleware.protocol import (
    CloseSession,
    FrameDecoder,
    FrameTooLargeError,
    Hello,
    OpenSession,
    SessionInfo,
    TileRef,
    TileRequest,
    Welcome,
    WorkerUnavailableError,
    decode_wire,
    encode_wire,
    negotiate_payload,
)
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = str(REPO_ROOT / "src")


def load_example(name: str):
    """Import ``examples/<name>.py`` (a script, not a package member)."""
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", REPO_ROOT / "examples" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The cluster demo's deterministic walk doubles as these tests' trace.
_snake_walk = load_example("cluster_serving")._snake_walk


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def all_keys(grid, level: int) -> list[TileKey]:
    n = grid.tiles_per_dim(level)
    return [TileKey(level, x, y) for x in range(n) for y in range(n)]


def node_index(node: str) -> int:
    """``worker-<i>`` → ``i``, what the harnesses stop and kill by."""
    return int(node.rpartition("-")[2])


def session_off(ring, node: str) -> str:
    """A session id the ring places on any worker but ``node``."""
    return next(
        session_id
        for session_id in map("bystander-{}".format, range(64))
        if ring.owner(session_id) != node
    )


def exchange(sock, decoder, message: dict) -> dict:
    """One round trip of a raw JSON-lines client."""
    sock.sendall(json.dumps(message).encode() + b"\n")
    frames = []
    while not frames:
        frames = decoder.feed(sock.recv(65536))
    (frame,) = frames
    return json.loads(frame)


def outcome(response):
    return (response.tile.key, response.hit, response.latency_seconds)


@pytest.fixture
def cluster2(tiny_dataset):
    """A 2-worker threaded cluster over the tiny world."""
    grid = tiny_dataset.pyramid.grid
    with ThreadedClusterServer(
        tiny_dataset.pyramid,
        ServiceConfig(),
        workers=2,
        engine_factory=lambda: make_engine(grid),
    ) as cluster:
        yield cluster


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
class TestConsistentHashRing:
    def test_same_key_same_worker_across_runs(self):
        nodes = ["w0", "w1", "w2", "w3"]
        keys = [TileKey(4, x, y) for x in range(16) for y in range(16)]
        a = ConsistentHashRing(nodes, replicas=64, seed=0)
        b = ConsistentHashRing(list(reversed(nodes)), replicas=64, seed=0)
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_same_key_same_worker_across_processes(self):
        """The mapping is a pure function of (seed, nodes, replicas) —
        a fresh interpreter (fresh PYTHONHASHSEED) must agree."""
        keys = [(3, x, y) for x in range(8) for y in range(8)]
        script = (
            "from repro.middleware.cluster import ConsistentHashRing\n"
            "from repro.tiles.key import TileKey\n"
            "ring = ConsistentHashRing(['w0','w1','w2'], replicas=64, seed=0)\n"
            f"keys = {keys!r}\n"
            "print(','.join(ring.owner(TileKey(*k)) for k in keys))\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED="random")
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        local = ConsistentHashRing(["w0", "w1", "w2"], replicas=64, seed=0)
        mine = ",".join(local.owner(TileKey(*k)) for k in keys)
        assert mine == runs[0]

    def test_balance_within_factor(self):
        ring = ConsistentHashRing(
            ["w0", "w1", "w2", "w3"], replicas=128, seed=0
        )
        keys = [TileKey(5, x, y) for x in range(32) for y in range(32)]
        counts = {n: 0 for n in ring.nodes}
        for key in keys:
            counts[ring.owner(key)] += 1
        expected = len(keys) / len(counts)
        for node, count in counts.items():
            assert count > expected / 3, (node, counts)
            assert count < expected * 3, (node, counts)

    def test_removal_moves_only_dead_nodes_keys(self):
        ring = ConsistentHashRing(
            ["w0", "w1", "w2", "w3"], replicas=64, seed=0
        )
        keys = [TileKey(5, x, y) for x in range(32) for y in range(32)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("w1")
        moved = 0
        for key, owner in before.items():
            after = ring.owner(key)
            if owner == "w1":
                assert after != "w1"
                moved += 1
            else:
                assert after == owner, "a surviving node's key moved"
        # ~1/N of the space moved — and nothing else.
        assert 0 < moved < len(keys) / 2

    def test_seed_changes_partition(self):
        keys = [TileKey(4, x, y) for x in range(16) for y in range(16)]
        a = ConsistentHashRing(["w0", "w1"], replicas=64, seed=0)
        b = ConsistentHashRing(["w0", "w1"], replicas=64, seed=1)
        assert [a.owner(k) for k in keys] != [b.owner(k) for k in keys]

    def test_empty_ring_raises_typed_error(self):
        ring = ConsistentHashRing()
        with pytest.raises(WorkerUnavailableError):
            ring.owner(TileKey(0, 0, 0))

    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing(["w0"])
        with pytest.raises(ValueError):
            ring.add("w0")


# ----------------------------------------------------------------------
# the ring places sessions: any string a client may name one by
# ----------------------------------------------------------------------
NODES = ["w0", "w1", "w2", "w3"]

#: Whatever JSON can put in a ``session_id``, lone surrogates included.
session_ids = st.text(st.characters(exclude_categories=()), max_size=40)


class TestSessionPlacement:
    @settings(max_examples=3, deadline=None)
    @given(st.lists(session_ids, min_size=1, max_size=50))
    @example(["", "session-1", "\ud800", "a\x00b", "naïve/0/0"])
    def test_same_session_same_worker_across_processes(self, ids):
        script = (
            "import json, sys\n"
            "from repro.middleware.cluster import ConsistentHashRing\n"
            f"ring = ConsistentHashRing({NODES!r}, replicas=64, seed=3)\n"
            "ids = json.load(sys.stdin)\n"
            "print(json.dumps([ring.owner(s) for s in ids]))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED="random"),
            input=json.dumps(ids),
            capture_output=True,
            text=True,
            check=True,
        )
        local = ConsistentHashRing(NODES, replicas=64, seed=3)
        assert json.loads(run.stdout) == [local.owner(s) for s in ids]

    @settings(max_examples=100, deadline=None)
    @given(st.sets(session_ids, max_size=60), st.sampled_from(NODES))
    def test_removal_moves_only_the_dead_nodes_sessions(self, ids, dead):
        ring = ConsistentHashRing(NODES, replicas=64, seed=0)
        before = {s: ring.owner(s) for s in ids}
        ring.remove(dead)
        for session_id, owner in before.items():
            after = ring.owner(session_id)
            assert after != dead
            assert after == owner or owner == dead

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda level: st.tuples(
                st.just(level),
                st.integers(0, 2**level - 1),
                st.integers(0, 2**level - 1),
            )
        ),
        st.integers(0, 5),
    )
    def test_a_tile_key_is_placed_as_its_string(self, reference, seed):
        ring = ConsistentHashRing(NODES, replicas=16, seed=seed)
        key = TileKey(*reference)
        assert str(key) == "{}/{}/{}".format(*reference)
        assert ring.owner(key) == ring.owner(str(key))


# ----------------------------------------------------------------------
# handshake capability intersection
# ----------------------------------------------------------------------
class TestHandshakeIntersection:
    def test_binary_granted_when_all_workers_speak_it(self, cluster2):
        host, port = cluster2.address
        transport = SocketTransport(host, port, payload="binary")
        try:
            assert transport.payload == "binary"
        finally:
            transport.close()

    def test_json_client_stays_json(self, cluster2):
        host, port = cluster2.address
        transport = SocketTransport(host, port)
        try:
            assert transport.payload == "json"
            assert transport.push_enabled is False
        finally:
            transport.close()

    def test_binary_denied_when_a_worker_is_json_only(self, tiny_dataset):
        grid = tiny_dataset.pyramid.grid
        factory = lambda: make_engine(grid)  # noqa: E731
        json_only = ThreadedSocketServer(
            tiny_dataset.pyramid,
            ServiceConfig(payloads=("json",)),
            engine_factory=factory,
        )
        full = ThreadedSocketServer(
            tiny_dataset.pyramid, ServiceConfig(), engine_factory=factory
        )
        router = None
        try:
            json_addr = json_only.start()
            full_addr = full.start()
            router = ThreadedRouter(
                {
                    f"{json_addr[0]}:{json_addr[1]}": json_addr,
                    f"{full_addr[0]}:{full_addr[1]}": full_addr,
                }
            )
            host, port = router.start()
            transport = SocketTransport(host, port, payload="binary")
            try:
                # The client offered binary, the router allows it, but
                # one worker cannot speak it: intersection says JSON.
                assert transport.payload == "json"
            finally:
                transport.close()
        finally:
            if router is not None:
                router.stop()
            full.stop()
            json_only.stop()

    def test_capability_probes_leave_no_link_open(self, cluster2):
        """The router learns what each worker grants from one handshake
        at start and closes that link once welcomed: with no client
        connected, no worker serves a connection."""
        servers = [worker.server for worker in cluster2.workers]
        deadline = time.monotonic() + 5.0
        while any(s.connection_count for s in servers) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [s.connection_count for s in servers] == [0, 0]

    def test_push_capable_probes_are_closed_too(self, tiny_dataset):
        """A worker that grants push to the probe still ends up serving
        no connection, and clients are granted push all the same."""
        grid = tiny_dataset.pyramid.grid
        config = ServiceConfig(prefetch=PrefetchPolicy(push="on"))
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            config,
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            servers = [worker.server for worker in cluster.workers]
            deadline = time.monotonic() + 5.0
            while any(s.connection_count for s in servers) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [s.connection_count for s in servers] == [0, 0]
            with SocketTransport(*cluster.address, push=True) as transport:
                assert transport.push_enabled is True

    def test_a_failed_start_leaves_no_link_open(self, tiny_dataset):
        """One worker is up, the next refuses connections: ``start``
        raises the typed error, and the worker it did reach serves no
        connection afterwards."""
        grid = tiny_dataset.pyramid.grid
        with ThreadedSocketServer(
            tiny_dataset.pyramid,
            ServiceConfig(),
            engine_factory=lambda: make_engine(grid),
        ) as live:
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                dead = probe.getsockname()
            # Probed in name order: the live worker first.
            router = ThreadedRouter({"a-live": live.address, "b-dead": dead})
            with pytest.raises(WorkerUnavailableError):
                router.start()
            router.stop()
            deadline = time.monotonic() + 5.0
            while live.server.connection_count and time.monotonic() < deadline:
                time.sleep(0.01)
            assert live.server.connection_count == 0

    def test_push_denied_when_workers_pull_only(self, cluster2):
        # Workers run push="off" (the default): a push-hungry client
        # must be granted the intersection — no push.
        host, port = cluster2.address
        transport = SocketTransport(host, port, push=True)
        try:
            assert transport.push_enabled is False
        finally:
            transport.close()

    def test_push_granted_when_all_workers_push(self, tiny_dataset):
        grid = tiny_dataset.pyramid.grid
        config = ServiceConfig(prefetch=PrefetchPolicy(push="on"))
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            config,
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            host, port = cluster.address
            pushy = SocketTransport(host, port, push=True)
            plain = SocketTransport(host, port)
            try:
                assert pushy.push_enabled is True
                assert plain.push_enabled is False
            finally:
                pushy.close()
                plain.close()


# ----------------------------------------------------------------------
# one config per endpoint: the router and the harnesses read theirs
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def raw_replies(address, frames: list[bytes]) -> list[dict]:
    """Send newline-framed JSON by hand, one frame per reply; return the
    replies, then insist the endpoint hung up."""
    with socket.create_connection(address, timeout=10) as sock:
        data = b""
        for count, frame in enumerate(frames, 1):
            sock.sendall(frame)
            while data.count(b"\n") < count:
                chunk = sock.recv(65536)
                assert chunk, f"hung up after {data!r}"
                data += chunk
        assert sock.recv(65536) == b""
    return [json.loads(line) for line in data.splitlines()]


#: What each endpoint constructor no longer takes: its config says it,
#: or a constant does (the bridge pool's size, the boot timeout, the
#: name a client's hello gives).
REMOVED_OVERRIDES = {
    ForeCacheService: ("hotspot_registry", "latency_model"),
    **{
        cls: ("host", "port", "max_frame_bytes", "payloads", "server_name")
        for cls in (ForeCacheSocketServer, TileServiceRouter, ThreadedRouter)
    },
    ThreadedSocketServer: (
        "host", "port", "max_frame_bytes", "payloads", "server_name", "max_workers"
    ),
    ThreadedClusterServer: ("host", "payloads", "max_workers"),
    ProcessCluster: ("host", "payloads", "max_workers", "boot_timeout"),
    WorkerSpec: ("host", "port", "max_workers"),
    SocketTransport: ("client_name",),
    _BackendLink.connect: ("client_name",),
}


class TestConfiguredEndpoints:
    def test_the_router_binds_the_configured_port_and_no_worker_does(
        self, tiny_dataset
    ):
        grid = tiny_dataset.pyramid.grid
        port = free_port()
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            ServiceConfig(bind_port=port),
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            assert cluster.address == ("127.0.0.1", port)
            assert all(worker.address[1] != port for worker in cluster.workers)
            with SocketTransport(*cluster.address) as transport:
                client = transport.connect(session_id="configured")
                assert client.request(None, grid.root).tile.key == grid.root
                client.close()

    def test_a_router_follows_its_own_config(self, tiny_dataset):
        """Payload grants, the advertised frame budget and the enforced
        one are the router's config's, as they are a worker's."""
        pyramid = tiny_dataset.pyramid
        factory = lambda: make_engine(pyramid.grid)  # noqa: E731
        small = ServiceConfig(max_frame_bytes=4096)
        hello = b'{"type":"hello","versions":[1]}\n'
        request = {"type": "tile_request", "session_id": "", "tile": [0, 0, 0]}
        request["session_id"] = "s" * (6061 - len(json.dumps(request)) - 1)
        oversized = json.dumps(request).encode() + b"\n"
        assert len(oversized) == 6061
        with ThreadedSocketServer(
            pyramid, ServiceConfig(), engine_factory=factory
        ) as worker, ThreadedSocketServer(
            pyramid, small, engine_factory=factory
        ) as small_worker:
            workers = {"worker-0": worker.address}
            with ThreadedRouter(
                workers, ServiceConfig(payloads=("json",))
            ) as router:
                with SocketTransport(
                    *router.address, payload="binary"
                ) as transport:
                    assert transport.payload == "json"
            with ThreadedRouter(workers, small) as router:
                with SocketTransport(*router.address) as transport:
                    assert transport.server_max_frame_bytes == 4096
                routed = raw_replies(router.address, [hello, oversized])
            direct = raw_replies(small_worker.address, [hello, oversized])
        assert [reply["type"] for reply in routed] == ["welcome", "error"]
        assert routed[1]["code"] == "frame_too_large"
        assert routed[1] == direct[1]

    def test_a_removed_override_is_a_type_error(self):
        for cls, keywords in REMOVED_OVERRIDES.items():
            for keyword in keywords:
                with pytest.raises(TypeError, match=keyword):
                    cls(None, **{keyword: None})
        # The push path loads through the socket server's own method,
        # and the server has one constructor, which takes the facade.
        assert not hasattr(ForeCacheService, "load_tile")
        assert not hasattr(ForeCacheSocketServer, "build")


# ----------------------------------------------------------------------
# request routing + failover
# ----------------------------------------------------------------------
class TestRoutingAndFailover:
    def test_replay_through_router_serves_all_tiles(
        self, cluster2, tiny_dataset
    ):
        grid = tiny_dataset.pyramid.grid
        host, port = cluster2.address
        transport = SocketTransport(host, port)
        try:
            client = transport.connect(session_id="router-replay")
            walk = _snake_walk(grid, TileKey(0, 0, 0), 16)
            assert len(walk) == 16
            for move, key in walk:
                response = client.request(move, key)
                assert response.tile.key == key
            client.close()
        finally:
            transport.close()

    def test_worker_death_surfaces_typed_error_then_recovers(
        self, cluster2, tiny_dataset
    ):
        """The dead worker's session meets one typed error and moves on;
        a session living on the survivor never learns anything happened
        — no error, and the very hits of a dedicated single server."""
        pyramid = tiny_dataset.pyramid
        grid = pyramid.grid
        walk = _snake_walk(grid, TileKey(0, 0, 0), 16)
        with ThreadedSocketServer(
            pyramid, ServiceConfig(), engine_factory=lambda: make_engine(grid)
        ) as dedicated:
            with SocketTransport(*dedicated.address) as transport:
                solo = transport.connect()
                expected = [outcome(solo.request(m, k)) for m, k in walk]
        assert any(hit for _, hit, _ in expected)
        ring = cluster2.router.router.ring
        doomed = ring.owner("failover")
        transport = SocketTransport(*cluster2.address)
        try:
            client = transport.connect(session_id="failover")
            bystander = transport.connect(session_id=session_off(ring, doomed))
            keys = all_keys(grid, grid.deepest_level)
            # Serve one request so the connection is warm.
            client.request(None, keys[0])
            seen = [outcome(bystander.request(m, k)) for m, k in walk[:8]]
            cluster2.workers[node_index(doomed)].stop()
            seen += [outcome(bystander.request(m, k)) for m, k in walk[8:]]
            assert seen == expected
            errors = []
            for key in keys:
                try:
                    response = client.request(None, key)
                except WorkerUnavailableError:
                    errors.append(key)
                    # The retry goes to a survivor — same connection,
                    # same session, which the router opens there first.
                    response = client.request(None, key)
                assert response.tile.key == key
            # Once: the ring re-mapped the session at the first failure.
            assert errors == keys[:1]
            client.close()
            bystander.close()
        finally:
            transport.close()

    def test_a_re_mapped_session_is_opened_on_its_successor_once(
        self, cluster2, tiny_dataset, monkeypatch
    ):
        """A session is open on its owner only.  Its ring successor gets
        no copy before the retry that follows the death, which opens it
        there once; a session closed after the re-map with no request in
        between is opened there and closed, with a fresh session's reply."""
        grid = tiny_dataset.pyramid.grid
        keys = all_keys(grid, grid.deepest_level)
        ring = cluster2.router.router.ring
        doomed = ring.owner("failover")
        quiet = next(
            s for s in map("quiet-{}".format, range(64)) if ring.owner(s) == doomed
        )
        successor = cluster2.workers[1 - node_index(doomed)].server.service
        opened = []
        open_session = successor.open_session

        def counted(engine=None, session_id=None, **kwargs):
            opened.append(session_id)
            return open_session(engine, session_id, **kwargs)

        monkeypatch.setattr(successor, "open_session", counted)
        with (
            SocketTransport(*cluster2.address) as transport,
            socket.create_connection(cluster2.address, timeout=10) as raw,
        ):
            decoder = FrameDecoder("lines")
            exchange(raw, decoder, {"type": "hello", "versions": [1]})
            exchange(raw, decoder, {"type": "open_session", "session_id": quiet})
            client = transport.connect(session_id="failover")
            client.request(None, keys[0])
            cluster2.workers[node_index(doomed)].stop()
            with pytest.raises(WorkerUnavailableError):
                client.request(None, keys[1])
            assert (opened, successor.session_count) == ([], 0)
            assert client.request(None, keys[1]).tile.key == keys[1]
            assert client.request(None, keys[2]).tile.key == keys[2]
            assert opened == ["failover"]
            assert successor.info("failover").requests == 2
            closed = exchange(
                raw, decoder, {"type": "close_session", "session_id": quiet}
            )
            assert closed == {
                "type": "session_info",
                "session_id": quiet,
                "open": False,
                "prefetch_mode": "sync",
                "requests": 0,
                "hits": 0,
                "hit_rate": 0.0,
                "average_latency_seconds": 0.0,
            }
            assert opened == ["failover", quiet]
            client.close()
            assert successor.session_count == 0

    def test_an_open_meeting_a_dead_owner_is_answered_by_the_next(
        self, cluster2
    ):
        """The owner's death is learnt by the open itself: the next
        owner answers it, and with no worker left the reply is typed."""
        ring = cluster2.router.router.ring
        doomed = ring.owner("late")
        with SocketTransport(*cluster2.address) as transport:
            cluster2.workers[node_index(doomed)].stop()
            late = transport.connect(session_id="late")
            (alive,) = ring.nodes
            assert alive != doomed
            survivor = cluster2.workers[node_index(alive)]
            assert survivor.server.service.session_ids == ["late"]
            late.close()
            survivor.stop()
            with pytest.raises(WorkerUnavailableError, match="no live workers"):
                transport.connect(session_id="later")

    def test_a_posted_ack_meeting_the_dead_worker_fails_at_its_sessions_next_call(
        self, tiny_dataset
    ):
        """The same death, seen by a push client mid local hit: the hit
        is answered from the cache regardless, and the ack's typed
        failure waits for the session that posted it."""
        grid = tiny_dataset.pyramid.grid
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            ServiceConfig(prefetch=PrefetchPolicy(k=4, push="on")),
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            ring = cluster.router.router.ring
            # Acks go where the session lives; that is the worker that dies.
            doomed = ring.owner("pushy")
            transport = SocketTransport(*cluster.address, push=True)
            try:
                pushy = transport.connect(session_id="pushy")
                bystander = transport.connect(
                    session_id=session_off(ring, doomed)
                )
                pushy.request(None, TileKey(2, 0, 1))
                held = pushy.push_cache.digest()
                assert held  # the round pushed what lies around the start
                fresh = [
                    k
                    for k in all_keys(grid, grid.deepest_level)
                    if k not in held
                ]
                cluster.workers[node_index(doomed)].stop()
                response = pushy.request(None, held[0])
                assert response.tile.key == held[0] and response.hit
                # Whichever call reads the refusal, it is not theirs.
                assert bystander.request(None, fresh[0]).tile.key == fresh[0]
                sent = transport.bytes_sent
                with pytest.raises(WorkerUnavailableError):
                    pushy.request(None, fresh[1])
                assert transport.bytes_sent == sent  # raised before sending
                # The ring has moved the session to the survivor.
                assert pushy.request(None, fresh[1]).tile.key == fresh[1]
                pushy.close()
                bystander.close()
            finally:
                transport.close()

    def test_mid_flight_death_leaves_other_sessions_served(
        self, tiny_dataset
    ):
        grid = tiny_dataset.pyramid.grid
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            ServiceConfig(),
            workers=3,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            ring = cluster.router.router.ring
            doomed = ring.owner("alpha")
            host, port = cluster.address
            t1 = SocketTransport(host, port)
            t2 = SocketTransport(host, port)
            try:
                c1 = t1.connect(session_id="alpha")
                c2 = t2.connect(session_id=session_off(ring, doomed))
                keys = all_keys(grid, grid.deepest_level)
                c1.request(None, keys[0])
                c2.request(None, keys[1])
                cluster.workers[node_index(doomed)].stop()
                # Both sessions — on separate connections — keep being
                # served after the death: one typed retry for the
                # session that lived there, nothing for the other.
                with pytest.raises(WorkerUnavailableError):
                    c1.request(None, keys[0])
                for client in (c1, c2):
                    for key in keys[:8]:
                        assert client.request(None, key).tile.key == key
                c1.close()
                c2.close()
            finally:
                t1.close()
                t2.close()

    def test_sessions_survive_on_fresh_connection_after_death(
        self, cluster2, tiny_dataset
    ):
        grid = tiny_dataset.pyramid.grid
        host, port = cluster2.address
        cluster2.workers[1].stop()
        transport = SocketTransport(host, port)
        try:
            client = transport.connect(session_id="late-joiner")
            for key in all_keys(grid, grid.deepest_level)[:6]:
                assert client.request(None, key).tile.key == key
            client.close()
        finally:
            transport.close()


# ----------------------------------------------------------------------
# the trajectory grid: a second worker changes no virtual number
# ----------------------------------------------------------------------
def test_every_ci_cluster_cell_reads_the_same_on_one_worker_and_on_two():
    """``benchmarks/trajectory/cluster`` as an invariant: whatever is
    not wall clock is equal between a 2-worker cell and its 1-worker
    twin, because each session is served whole by one worker."""
    results = {
        cell.cell_id: run_cell(cell).metrics
        for cell in resolve_spec("ci-cluster").cells()
    }
    pairs = [
        (metrics, results[cell_id.replace("clworkers=2", "clworkers=1")])
        for cell_id, metrics in results.items()
        if "clworkers=2" in cell_id
    ]
    assert len(pairs) == 4
    for two_workers, one_worker in pairs:
        assert two_workers["requests"] > 0
        for metric in set(one_worker) - {"wall_seconds", "throughput_rps"}:
            assert two_workers[metric] == one_worker[metric], metric


# ----------------------------------------------------------------------
# opaque forwarding: a worker's frames reach its client as framed
# ----------------------------------------------------------------------
PUSH_CONFIG = ServiceConfig(
    prefetch=PrefetchPolicy(k=4, push="on"),
    cache=CacheConfig(recent_capacity=4, prefetch_capacity=8),
)


def tapped_walk(address, walk, *, framing, payload, push) -> bytes:
    """Replay ``walk`` as session "walker"; return every byte the
    server side sent after its welcome."""
    with SocketTransport(
        *address, framing=framing, payload=payload, push=push, wire_tap=True
    ) as transport:
        assert transport.payload == payload
        assert transport.push_enabled is push
        client = transport.connect(session_id="walker")
        for move, key in walk:
            assert client.request(move, key).tile.key == key
        client.close()
        # The welcome (the first JSON frame) names the server; skip it.
        stream = bytes(transport.wire_received)
        if framing == "lines":
            return stream.partition(b"\n")[2]
        return stream[4 + int.from_bytes(stream[:4], "big"):]


class TestOpaqueForwarding:
    @pytest.mark.parametrize("push", [False, True], ids=["pull", "push"])
    @pytest.mark.parametrize("payload", ["json", "binary"])
    @pytest.mark.parametrize("framing", ["lines", "length"])
    def test_a_client_gets_the_workers_bytes(
        self, tiny_dataset, framing, payload, push
    ):
        """Through a 1-worker cluster every reply — and every push
        frame — reaches the client byte-identical to what a direct
        ``ForeCacheSocketServer`` sends for the same walk, on every
        framing and payload encoding."""
        pyramid = tiny_dataset.pyramid
        factory = lambda: make_engine(pyramid.grid)  # noqa: E731
        walk = _snake_walk(pyramid.grid, TileKey(0, 0, 0), 12)
        with ThreadedSocketServer(
            pyramid, PUSH_CONFIG, engine_factory=factory, framing=framing
        ) as direct:
            expected = tapped_walk(
                direct.address, walk, framing=framing, payload=payload, push=push
            )
            scheduler = direct.server.push_scheduler
            assert (scheduler.pushed_tiles > 0) is push
        with ThreadedClusterServer(
            pyramid, PUSH_CONFIG, workers=1, engine_factory=factory, framing=framing
        ) as cluster:
            routed = tapped_walk(
                cluster.address, walk, framing=framing, payload=payload, push=push
            )
        assert routed == expected

    def test_a_json_reply_reaches_a_json_client_verbatim(self):
        """The router reads a JSON reply's type tag, never its message:
        a key no message declares, and the worker's own spacing, reach
        the client byte for byte."""
        line = (
            b'{"type":"tile_response","session_id":"s","tile":[0,0,0],'
            b'"latency_seconds":0.0195,"hit":true,"from_a_newer_worker":[1]}\n'
        )
        with FakeWorker(lambda sock: sock.sendall(line)) as fake:
            with ThreadedRouter({"worker-0": fake.address}) as router:
                with SocketTransport(*router.address, wire_tap=True) as transport:
                    transport.connect(session_id="s")
                    before = len(transport.wire_received)
                    reply = transport.roundtrip(
                        TileRequest(session_id="s", tile=TileRef(0, 0, 0))
                    )
                    assert bytes(transport.wire_received[before:]) == line
                    assert reply.hit and reply.tile == TileRef(0, 0, 0)
                    assert fake.requests == 1

    @pytest.mark.parametrize("payload", ["json", "binary"])
    def test_a_forwarded_frame_is_checked_against_the_routers_budget(
        self, tiny_dataset, payload
    ):
        pyramid = tiny_dataset.pyramid
        with ThreadedSocketServer(
            pyramid,
            ServiceConfig(),
            engine_factory=lambda: make_engine(pyramid.grid),
        ) as worker:
            with ThreadedRouter(
                {"worker-0": worker.address}, ServiceConfig(max_frame_bytes=4096)
            ) as router:
                with SocketTransport(
                    *router.address, payload=payload
                ) as transport:
                    assert transport.payload == payload
                    client = transport.connect()
                    with pytest.raises(FrameTooLargeError, match="4096-byte"):
                        client.request(None, TileKey(0, 0, 0))
                    # Typed answer, link and connection both still up.
                    assert router.router.alive_workers == ("worker-0",)
                    client.close()
                    transport.connect(session_id="still-served").close()


# ----------------------------------------------------------------------
# misbehaving workers: corrupt frames and stalls
# ----------------------------------------------------------------------
def grant_offered(hello: Hello, index: int) -> Welcome:
    """A worker's welcome: everything the hello offers."""
    return Welcome(
        version=1, push=hello.push, payload=negotiate_payload(hello.payloads)
    )


class FakeWorker:
    """A worker stand-in: real handshake — ``welcome(hello, index)``
    answers the ``index``-th hello, by default granting what it offers —
    and session replies in the wire granted, then ``on_request(sock)``
    decides what a tile request gets — the connection stays open either
    way."""

    def __init__(self, on_request, welcome=grant_offered) -> None:
        fake = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                decoder, wire = FrameDecoder("lines"), "lines"
                while data := self.request.recv(65536):
                    for frame in decoder.feed(data):
                        message = decode_wire(frame)
                        if isinstance(message, Hello):
                            reply = welcome(message, fake.hellos)
                            fake.hellos += 1
                        elif isinstance(message, (OpenSession, CloseSession)):
                            reply = SessionInfo(
                                message.session_id, True, "sync", 0, 0, 0.0, 0.0
                            )
                        else:
                            assert isinstance(message, TileRequest)
                            fake.requests += 1
                            on_request(self.request)
                            continue
                        self.request.sendall(encode_wire(reply, wire))
                        if isinstance(reply, Welcome) and reply.payload == "binary":
                            decoder.switch_to_binary()
                            wire = "binary"

        self.hellos = 0
        self.requests = 0
        self._server = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), Handler
        )
        self._server.daemon_threads = True
        self.address = self._server.server_address
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )

    def __enter__(self) -> "FakeWorker":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


def kind1_frame(body: bytes) -> bytes:
    return b"\x01" + len(body).to_bytes(4, "big") + body


#: ``(link wire, name, frame)``: what a broken worker answers a tile
#: request with — kind-1 bodies on a binary link, lines on a JSON one.
CORRUPT_FRAMES = [
    ("binary", "truncated", kind1_frame(b"\x00\x00")),
    (
        "binary",
        "header-overrun",
        kind1_frame((64).to_bytes(4, "big") + b'{"type": "tile_response"}'),
    ),
    ("binary", "not-json", kind1_frame((9).to_bytes(4, "big") + b"not json!blob")),
    ("binary", "not-object", kind1_frame((2).to_bytes(4, "big") + b"[]")),
    (
        "binary",
        "wrong-type",
        kind1_frame((19).to_bytes(4, "big") + b'{"type": "welcome"}'),
    ),
    ("json", "not-json", b"not json!\n"),
    ("json", "not-object", b"[]\n"),
    ("json", "unknown-type", b'{"type": "bogus"}\n'),
]


class TestWorkerFaults:
    @pytest.mark.parametrize(
        "payload, frame",
        [
            pytest.param(payload, frame, id=f"{name}-{payload}")
            for payload, name, frame in CORRUPT_FRAMES
        ],
    )
    def test_corrupt_worker_header_is_worker_unavailable(self, payload, frame):
        """Opaque or not, the frame's type tag is still read: a worker
        that sends a broken one loses its link, and the client gets the
        typed error instead of the worker's bytes."""
        with FakeWorker(lambda sock: sock.sendall(frame)) as fake:
            with ThreadedRouter({"worker-0": fake.address}) as router:
                with SocketTransport(
                    *router.address, payload=payload
                ) as transport:
                    assert transport.payload == payload
                    client = transport.connect(session_id="s")
                    with pytest.raises(
                        WorkerUnavailableError, match="died mid-request"
                    ):
                        client.request(None, TileKey(0, 0, 0))
                    assert fake.requests == 1
                    assert router.router.alive_workers == ()

    def test_a_worker_granting_another_wire_than_asked_leaves_the_ring(self):
        """Binary to the ``start()`` probe, JSON to a binary client's
        link: the link could not forward that worker's frames as they
        are, so the worker is handled like one that refused the
        handshake."""

        def fickle(hello: Hello, index: int) -> Welcome:
            return Welcome(version=1, payload="binary" if index == 0 else "json")

        with FakeWorker(lambda sock: None, fickle) as fake:
            with ThreadedRouter({"worker-0": fake.address}) as router:
                with pytest.raises(WorkerUnavailableError, match="no live workers"):
                    SocketTransport(*router.address, payload="binary")
                assert fake.hellos == 2
                assert router.router.alive_workers == ()

    def test_stalled_worker_is_worker_unavailable_within_the_deadline(
        self, monkeypatch
    ):
        """A worker that accepts the request and never answers must not
        hang the client: the round-trip deadline kills the link."""
        monkeypatch.setattr(cluster_module, "_ROUNDTRIP_DEADLINE_SECONDS", 0.5)
        with FakeWorker(lambda sock: None) as fake:
            with ThreadedRouter({"worker-0": fake.address}) as router:
                with SocketTransport(
                    *router.address, payload="binary", timeout=20.0
                ) as transport:
                    client = transport.connect(session_id="s")
                    started = time.monotonic()
                    with pytest.raises(
                        WorkerUnavailableError, match="no answer within 0.5 s"
                    ):
                        client.request(None, TileKey(0, 0, 0))
                    assert time.monotonic() - started < 10.0
                    assert fake.requests == 1
                    assert router.router.alive_workers == ()
                    # The connection itself survived; with the only
                    # worker gone the next request fails fast and typed.
                    with pytest.raises(WorkerUnavailableError):
                        client.request(None, TileKey(0, 0, 0))


# ----------------------------------------------------------------------
# shutdown
# ----------------------------------------------------------------------
class TestRouterShutdown:
    def test_aclose_waits_for_its_client_connections(self, tiny_dataset, capfd):
        """Stopping a router with three idle clients and one in
        mid-request: the in-flight reply arrives whole, every client
        connection has released its backend links by the time
        ``aclose`` returns, and nothing is left for loop teardown to
        cancel (no exception reaches the loop's handler or stderr)."""
        grid = tiny_dataset.pyramid.grid
        config = ServiceConfig(
            prefetch=PrefetchPolicy(enabled=False),
            cache=CacheConfig(backend_delay_seconds=0.3),
        )
        cluster = ThreadedClusterServer(
            tiny_dataset.pyramid,
            config,
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ).start()
        router = cluster.router.router
        links, loop_errors, at_return = [], [], []

        new_link = router._new_link
        router._new_link = lambda node: links.append(new_link(node)) or links[-1]
        aclose = router.aclose

        async def observed_aclose():
            await aclose()
            at_return.append(
                (router.connection_count, [link._writer for link in links])
            )

        router.aclose = observed_aclose

        async def collect_loop_errors():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )

        cluster.router._run(collect_loop_errors())
        transports = [
            SocketTransport(*cluster.address, payload="binary")
            for _ in range(4)
        ]
        clients = [
            transport.connect(session_id=f"s{index}")
            for index, transport in enumerate(transports)
        ]
        replies: list = []
        requester = threading.Thread(
            target=lambda: replies.append(clients[0].request(None, grid.root))
        )
        try:
            requester.start()
            time.sleep(0.1)  # let the request reach the slow backend
            cluster.stop()  # must drain, not abort
            requester.join(timeout=30)
        finally:
            cluster.stop()
            for transport in transports:
                transport.close()
        assert replies and replies[0].tile.key == grid.root
        assert not replies[0].hit
        assert len(links) == 8  # 4 clients x 2 workers
        assert at_return == [(0, [None] * 8)]
        assert loop_errors == []
        assert capfd.readouterr().err == ""


# ----------------------------------------------------------------------
# shared hotspots: one registry per worker
# ----------------------------------------------------------------------
class TestPerWorkerHotspots:
    @pytest.mark.parametrize("mode", ["observe", "boost"])
    def test_each_worker_learns_only_from_the_sessions_it_serves(
        self, mode, tiny_dataset
    ):
        grid = tiny_dataset.pyramid.grid
        config = ServiceConfig(prefetch=PrefetchPolicy(k=2, shared_hotspots=mode))
        walks = [
            [TileKey(1, 0, 0), TileKey(1, 1, 0)],
            [TileKey(2, 3, 3), TileKey(2, 2, 3)],
        ]
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            config,
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            ring = cluster.router.router.ring
            placed: dict[str, str] = {}
            for session_id in map("user-{}".format, range(64)):
                placed.setdefault(ring.owner(session_id), session_id)
            with SocketTransport(*cluster.address) as transport:
                for index, walk in enumerate(walks):
                    client = transport.connect(session_id=placed[f"worker-{index}"])
                    for key in walk:
                        client.request(None, key)
            learned = [
                {
                    key
                    for key, _ in worker.server.service.hotspot_registry.snapshot()
                }
                for worker in cluster.workers
            ]
        assert learned == [set(walk) for walk in walks]


# ----------------------------------------------------------------------
# spawn-context smoke
# ----------------------------------------------------------------------
class TestProcessCluster:
    def test_two_worker_spawn_boot_and_replay(self):
        from repro.modis.dataset import MODISDataset

        dataset = MODISDataset.build(size=64, tile_size=16, days=1, seed=7)
        grid = dataset.pyramid.grid
        with ProcessCluster(
            workers=2, size=64, tile_size=16, days=1, seed=7
        ) as cluster:
            assert len(cluster.worker_ports) == 2
            host, port = cluster.address
            transport = SocketTransport(host, port)
            try:
                client = transport.connect(session_id="spawn-smoke")
                walk = _snake_walk(grid, TileKey(0, 0, 0), 10)
                for move, key in walk:
                    response = client.request(move, key)
                    assert response.tile.key == key
                client.close()
            finally:
                transport.close()

    def test_hard_kill_surfaces_typed_error_and_cluster_survives(self):
        from repro.modis.dataset import MODISDataset

        dataset = MODISDataset.build(size=64, tile_size=16, days=1, seed=7)
        grid = dataset.pyramid.grid
        with ProcessCluster(
            workers=2, size=64, tile_size=16, days=1, seed=7
        ) as cluster:
            host, port = cluster.address
            transport = SocketTransport(host, port)
            try:
                client = transport.connect(session_id="kill-smoke")
                keys = all_keys(grid, grid.deepest_level)
                client.request(None, keys[0])
                doomed = cluster.router.router.ring.owner("kill-smoke")
                cluster.kill_worker(node_index(doomed))
                errors = 0
                for key in keys:
                    try:
                        response = client.request(None, key)
                    except WorkerUnavailableError:
                        errors += 1
                        response = client.request(None, key)
                    assert response.tile.key == key
                assert errors == 1
                client.close()
            finally:
                transport.close()

    def test_the_demo_runs_clean_as_a_script_and_only_as_a_script(self):
        """``python -m repro.middleware.cluster`` ran the module twice
        (the package imports it, runpy runs it again as ``__main__``,
        and every spawned worker re-imports that ``__main__``), warning
        each time; the demo is an example now and the module a library."""
        assert not hasattr(cluster_module, "main")
        run = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                str(REPO_ROOT / "examples" / "cluster_serving.py"),
                "--workers", "1", "--sessions", "1", "--steps", "4",
                "--size", "64", "--tile-size", "16",
            ],
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert "served 4 requests across 1 session(s)" in run.stdout
        assert run.stderr == ""
