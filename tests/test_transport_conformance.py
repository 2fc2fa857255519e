"""One conformance harness, every transport.

Each transport kind — the facade itself (the baseline) and the socket
client over both framings — replays the same trace through a *fresh,
cold* service and must produce numerically identical results: the same
(tile, hit, latency, phase) sequence, the same reconstructed
``LatencyRecorder``, and bit-identical tile payloads.  The second half
checks the shared error contract: typed duplicate-session and
unknown-session errors, idempotent close, on every transport.
"""

from __future__ import annotations

import json
import socket
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.client import BrowsingSession
from repro.middleware.cluster import ThreadedClusterServer
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.latency import LatencyRecorder
from repro.middleware.net import SocketTransport, ThreadedSocketServer
from repro.middleware.protocol import (
    CloseSession,
    DuplicateSessionError,
    ErrorInfo,
    Hello,
    SessionInfo,
    SessionNotFoundError,
    TileRef,
    TileRequest,
    Welcome,
)
from repro.middleware.service import ForeCacheService
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey

CONFIG = ServiceConfig(prefetch=PrefetchPolicy(k=5))

#: Every client-facing transport kind the conformance suite exercises.
TRANSPORT_KINDS = ("socket-sync-lines", "socket-sync-length")


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def engine_factory(pyramid):
    return lambda: make_engine(pyramid.grid)


def signature(responses):
    """What must match across transports, per response."""
    return [
        (r.tile.key, r.hit, r.latency_seconds, r.phase) for r in responses
    ]


def client_recorder(responses) -> LatencyRecorder:
    """The recorder a client can rebuild purely from wire responses."""
    recorder = LatencyRecorder()
    for response in responses:
        recorder.record(response.latency_seconds, response.hit)
    return recorder


# ----------------------------------------------------------------------
# one replay per transport kind, each over a fresh cold service
# ----------------------------------------------------------------------
def replay_facade(pyramid, trace):
    with ForeCacheService(
        pyramid, CONFIG, engine_factory=engine_factory(pyramid)
    ) as service:
        handle = service.open_session()
        responses = BrowsingSession(handle).replay(trace)
        # The facade's server-side recorder is the ground truth the
        # client-side reconstruction must agree with.
        assert client_recorder(responses).to_dict() == (
            handle.recorder.to_dict()
        )
        return responses


def replay_socket_sync(pyramid, trace, framing):
    with ThreadedSocketServer(
        pyramid, CONFIG, engine_factory=engine_factory(pyramid), framing=framing
    ) as server:
        with SocketTransport(
            *server.address, pyramid=pyramid, framing=framing
        ) as transport:
            conn = transport.connect()
            responses = BrowsingSession(conn).replay(trace)
            conn.close()
            return responses


REPLAYS = {
    "socket-sync-lines": lambda p, t: replay_socket_sync(p, t, "lines"),
    "socket-sync-length": lambda p, t: replay_socket_sync(p, t, "length"),
}


@pytest.fixture(scope="module")
def replay_trace(small_study):
    return max(small_study.traces, key=len)


@pytest.fixture(scope="module")
def baseline(small_dataset, replay_trace):
    return replay_facade(small_dataset.pyramid, replay_trace)


class TestReplayEquivalence:
    """The acceptance bar: identical replays through every transport."""

    @pytest.mark.parametrize("kind", TRANSPORT_KINDS)
    def test_replay_matches_facade(
        self, kind, small_dataset, replay_trace, baseline
    ):
        responses = REPLAYS[kind](small_dataset.pyramid, replay_trace)
        assert signature(responses) == signature(baseline)
        # Latency statistics rebuilt client-side are numerically
        # identical, including raw samples and percentiles.
        assert client_recorder(responses).to_dict() == (
            client_recorder(baseline).to_dict()
        )

    @pytest.mark.parametrize("kind", TRANSPORT_KINDS)
    def test_payloads_survive_the_wire_losslessly(
        self, kind, small_dataset, replay_trace, baseline
    ):
        responses = REPLAYS[kind](small_dataset.pyramid, replay_trace)
        for wire, reference in zip(responses, baseline):
            assert wire.tile.key == reference.tile.key
            assert set(wire.tile.attributes) == set(reference.tile.attributes)
            for name, array in reference.tile.attributes.items():
                assert wire.tile.attributes[name].dtype == array.dtype
                np.testing.assert_array_equal(
                    wire.tile.attributes[name], array
                )


# ----------------------------------------------------------------------
# the shared error contract
# ----------------------------------------------------------------------
@contextmanager
def open_transport(kind, pyramid):
    """A live, connect-capable transport of the requested kind."""
    framing = "length" if kind.endswith("length") else "lines"
    with ThreadedSocketServer(
        pyramid, CONFIG, engine_factory=engine_factory(pyramid), framing=framing
    ) as server:
        with SocketTransport(
            *server.address, pyramid=pyramid, framing=framing
        ) as transport:
            yield transport


class TestErrorContract:
    @pytest.mark.parametrize("kind", TRANSPORT_KINDS)
    def test_duplicate_session_is_typed(self, kind, small_dataset):
        with open_transport(kind, small_dataset.pyramid) as transport:
            transport.connect(session_id="alice")
            with pytest.raises(DuplicateSessionError):
                transport.connect(session_id="alice")

    @pytest.mark.parametrize("kind", TRANSPORT_KINDS)
    def test_request_after_close_is_typed(self, kind, small_dataset):
        with open_transport(kind, small_dataset.pyramid) as transport:
            conn = transport.connect()
            conn.request(None, TileKey(0, 0, 0))
            conn.close()
            # A closed session is forgotten by id on every transport.
            with pytest.raises(SessionNotFoundError):
                conn.request(None, TileKey(0, 0, 0))

    @pytest.mark.parametrize("kind", TRANSPORT_KINDS)
    def test_close_is_idempotent(self, kind, small_dataset):
        with open_transport(kind, small_dataset.pyramid) as transport:
            conn = transport.connect()
            conn.close()
            conn.close()

    @pytest.mark.parametrize("kind", TRANSPORT_KINDS)
    def test_sessions_share_one_cache(self, kind, small_dataset):
        with open_transport(kind, small_dataset.pyramid) as transport:
            first = transport.connect()
            second = transport.connect()
            assert not first.request(None, TileKey(2, 1, 1)).hit
            assert second.request(None, TileKey(2, 1, 1)).hit


# ----------------------------------------------------------------------
# the one connection contract: .pyramid, .request(move, key), .close()
# ----------------------------------------------------------------------
def check_connection_surface(conn, pyramid) -> None:
    assert conn.pyramid is pyramid
    # One verb: ``request`` is the only public request-spelled name.
    assert [
        name
        for name in dir(conn)
        if "request" in name and not name.startswith("_")
    ] == ["request"]
    assert callable(conn.close)


@contextmanager
def open_connection(kind, pyramid):
    """One open session's connection: a facade handle or a wire client."""
    if kind == "facade":
        with ForeCacheService(
            pyramid, CONFIG, engine_factory=engine_factory(pyramid)
        ) as service:
            yield service.open_session()
        return
    with open_transport(kind, pyramid) as transport:
        yield transport.connect()


class TestConnectionContract:
    """Whatever ``BrowsingSession`` can drive exposes the same three
    names."""

    @pytest.mark.parametrize("kind", ("facade",) + TRANSPORT_KINDS)
    def test_sync_connections_share_one_surface(self, kind, small_dataset):
        pyramid = small_dataset.pyramid
        with open_connection(kind, pyramid) as conn:
            check_connection_surface(conn, pyramid)
            root = pyramid.grid.root
            assert conn.request(None, root).tile.key == root
            conn.close()

# ----------------------------------------------------------------------
# negotiated binary payloads replay bit-identically
# ----------------------------------------------------------------------
def replay_socket_sync_binary(pyramid, trace, framing):
    with ThreadedSocketServer(
        pyramid, CONFIG, engine_factory=engine_factory(pyramid), framing=framing
    ) as server:
        with SocketTransport(
            *server.address, pyramid=pyramid, framing=framing, payload="binary"
        ) as transport:
            assert transport.payload == "binary"
            conn = transport.connect()
            responses = BrowsingSession(conn).replay(trace)
            conn.close()
            return responses


BINARY_REPLAYS = {
    "socket-sync-lines": lambda p, t: replay_socket_sync_binary(p, t, "lines"),
    "socket-sync-length": lambda p, t: replay_socket_sync_binary(
        p, t, "length"
    ),
}


class TestBinaryPayloadConformance:
    """The binary encoding changes bytes on the wire, nothing else:
    every front end replays bit-identically to the facade under
    ``payload="binary"``, and a declining peer's wire is byte-identical
    to the JSON-only protocol revision."""

    @pytest.mark.parametrize("kind", TRANSPORT_KINDS)
    def test_binary_replay_matches_facade(
        self, kind, small_dataset, replay_trace, baseline
    ):
        responses = BINARY_REPLAYS[kind](small_dataset.pyramid, replay_trace)
        assert signature(responses) == signature(baseline)
        assert client_recorder(responses).to_dict() == (
            client_recorder(baseline).to_dict()
        )

    @pytest.mark.parametrize("kind", TRANSPORT_KINDS)
    def test_binary_payloads_survive_losslessly(
        self, kind, small_dataset, replay_trace, baseline
    ):
        responses = BINARY_REPLAYS[kind](small_dataset.pyramid, replay_trace)
        for wire, reference in zip(responses, baseline):
            assert wire.tile.key == reference.tile.key
            assert set(wire.tile.attributes) == set(reference.tile.attributes)
            for name, array in reference.tile.attributes.items():
                assert wire.tile.attributes[name].dtype == array.dtype
                np.testing.assert_array_equal(
                    wire.tile.attributes[name], array
                )

    def test_binary_moves_fewer_bytes_than_json(
        self, small_dataset, replay_trace
    ):
        pyramid = small_dataset.pyramid

        def replay_bytes(payload):
            with ThreadedSocketServer(
                pyramid, CONFIG, engine_factory=engine_factory(pyramid)
            ) as server:
                with SocketTransport(
                    *server.address, pyramid=pyramid, payload=payload
                ) as transport:
                    conn = transport.connect()
                    BrowsingSession(conn).replay(replay_trace)
                    conn.close()
                    return transport.bytes_received

        assert replay_bytes("binary") < replay_bytes("json")

    def test_declining_server_keeps_the_json_wire_byte_identical(
        self, small_dataset, replay_trace
    ):
        # A binary-offering client against a JSON-only server must leave
        # the wire byte-identical to a client that never offered binary
        # — the only divergence allowed is the hello frame itself.
        pyramid = small_dataset.pyramid

        def replay_tapped(payload):
            with ThreadedSocketServer(
                pyramid,
                ServiceConfig(prefetch=CONFIG.prefetch, payloads=("json",)),
                engine_factory=engine_factory(pyramid),
            ) as server:
                with SocketTransport(
                    *server.address,
                    pyramid=pyramid,
                    payload=payload,
                    wire_tap=True,
                ) as transport:
                    assert transport.payload == "json"
                    conn = transport.connect()
                    BrowsingSession(conn).replay(replay_trace)
                    conn.close()
                    return (
                        bytes(transport.wire_sent),
                        bytes(transport.wire_received),
                    )

        sent_json, received_json = replay_tapped("json")
        sent_binary, received_binary = replay_tapped("binary")
        # Every server->client byte matches, welcome included.
        assert received_binary == received_json
        # Client->server streams match from the second frame on (the
        # hello differs by exactly the offered-payloads field).
        _, _, tail_json = sent_json.partition(b"\n")
        _, _, tail_binary = sent_binary.partition(b"\n")
        assert tail_binary == tail_json
        assert sent_binary != sent_json


# ----------------------------------------------------------------------
# push stays invisible unless both sides opt in
# ----------------------------------------------------------------------
class TestPushOffConformance:
    """``push="off"`` (and denied negotiation) must be bit-identical to
    the pre-push stack: same signatures, same client-side latency
    statistics, no push state anywhere."""

    def test_explicit_push_off_config_matches_facade(
        self, small_dataset, replay_trace, baseline
    ):
        config = ServiceConfig(prefetch=PrefetchPolicy(k=5, push="off"))
        pyramid = small_dataset.pyramid
        with ThreadedSocketServer(
            pyramid, config, engine_factory=engine_factory(pyramid)
        ) as server:
            assert server.server.push_scheduler is None
            with SocketTransport(*server.address, pyramid=pyramid) as transport:
                conn = transport.connect()
                responses = BrowsingSession(conn).replay(replay_trace)
                conn.close()
        assert signature(responses) == signature(baseline)
        assert client_recorder(responses).to_dict() == (
            client_recorder(baseline).to_dict()
        )

    def test_denied_negotiation_replays_identically(
        self, small_dataset, replay_trace, baseline
    ):
        # A push-requesting client against a push-off server falls back
        # to the plain pull protocol: capability denied, no push cache,
        # replay bit-identical to the facade.
        pyramid = small_dataset.pyramid
        with ThreadedSocketServer(
            pyramid, CONFIG, engine_factory=engine_factory(pyramid)
        ) as server:
            with SocketTransport(
                *server.address, pyramid=pyramid, push=True
            ) as transport:
                assert not transport.push_enabled
                conn = transport.connect()
                assert conn.push_cache is None
                responses = BrowsingSession(conn).replay(replay_trace)
                conn.close()
        assert signature(responses) == signature(baseline)
        assert client_recorder(responses).to_dict() == (
            client_recorder(baseline).to_dict()
        )


# ----------------------------------------------------------------------
# fidelity stays invisible unless switched on
# ----------------------------------------------------------------------
FIDELITY_OFF_CONFIG = ServiceConfig(
    prefetch=PrefetchPolicy(k=5, fidelity="off")
)


class TestFidelityOffConformance:
    """``fidelity="off"`` (the default) must be bit-identical to the
    pre-fidelity stack on every front end: same signatures, same client
    statistics, full-fidelity responses, and not a single extra byte on
    the wire."""

    def replay_off(self, kind, pyramid, trace):
        framing = "length" if kind.endswith("length") else "lines"
        with ThreadedSocketServer(
            pyramid,
            FIDELITY_OFF_CONFIG,
            engine_factory=engine_factory(pyramid),
            framing=framing,
        ) as server:
            with SocketTransport(
                *server.address, pyramid=pyramid, framing=framing
            ) as transport:
                conn = transport.connect()
                responses = BrowsingSession(conn).replay(trace)
                conn.close()
                return responses

    @pytest.mark.parametrize("kind", TRANSPORT_KINDS)
    def test_explicit_fidelity_off_matches_facade(
        self, kind, small_dataset, replay_trace, baseline
    ):
        responses = self.replay_off(kind, small_dataset.pyramid, replay_trace)
        assert signature(responses) == signature(baseline)
        assert client_recorder(responses).to_dict() == (
            client_recorder(baseline).to_dict()
        )
        # Off mode never degrades: every response is the real tile.
        assert all(r.fidelity == 1.0 for r in responses)

    def test_fidelity_off_wire_is_byte_identical(
        self, small_dataset, replay_trace
    ):
        # The fidelity field is omitted from every full-resolution
        # response, so an explicit fidelity="off" server leaves the
        # wire byte-for-byte identical to the default-config server.
        pyramid = small_dataset.pyramid

        def replay_tapped(config):
            with ThreadedSocketServer(
                pyramid, config, engine_factory=engine_factory(pyramid)
            ) as server:
                with SocketTransport(
                    *server.address, pyramid=pyramid, wire_tap=True
                ) as transport:
                    conn = transport.connect()
                    BrowsingSession(conn).replay(replay_trace)
                    conn.close()
                    return (
                        bytes(transport.wire_sent),
                        bytes(transport.wire_received),
                    )

        sent_default, received_default = replay_tapped(CONFIG)
        sent_off, received_off = replay_tapped(FIDELITY_OFF_CONFIG)
        assert received_off == received_default
        assert sent_off == sent_default

    def test_full_fidelity_is_absent_from_the_wire_form(self):
        from repro.middleware import protocol as proto
        from repro.middleware.protocol import PushTile, TileRef, TileResponse

        response = TileResponse(
            session_id="s",
            tile=TileRef.from_key(TileKey(1, 0, 0)),
            latency_seconds=0.5,
            hit=True,
        )
        assert "fidelity" not in response.to_dict()
        assert proto.decode(proto.encode(response)).fidelity == 1.0
        push = PushTile(
            session_id="s",
            tile=TileRef.from_key(TileKey(1, 0, 0)),
            rank=0,
            generation=1,
            utility=1.0,
        )
        assert "fidelity" not in push.to_dict()
        # A degraded frame carries the field; absent always means full.
        degraded = TileResponse(
            session_id="s",
            tile=TileRef.from_key(TileKey(1, 0, 0)),
            latency_seconds=0.5,
            hit=True,
            fidelity=0.25,
        )
        assert degraded.to_dict()["fidelity"] == 0.25
        assert proto.decode(proto.encode(degraded)).fidelity == 0.25


# ----------------------------------------------------------------------
# the cluster front end: a router in the path changes nothing
# ----------------------------------------------------------------------
def replay_cluster(pyramid, trace, *, framing="lines", payload="json"):
    """One trace through a 3-worker cluster, client side.

    The router places the session on one worker and sends it every
    request, so the session's engine sees the whole walk and its
    prefetches wait where its next request lands: the direct socket
    path with an extra hop, however many workers stand beside it.
    """
    with ThreadedClusterServer(
        pyramid,
        CONFIG,
        workers=3,
        engine_factory=engine_factory(pyramid),
        framing=framing,
    ) as cluster:
        with SocketTransport(
            *cluster.address, pyramid=pyramid, framing=framing, payload=payload
        ) as transport:
            conn = transport.connect()
            responses = BrowsingSession(conn).replay(trace)
            conn.close()
            return responses


def take_turns(address, pyramid, traces, inspect=lambda: None):
    """Replay ``traces`` (session id → trace) on one connection, the
    sessions taking turns request by request; ``inspect()`` runs while
    they are all still open.  Returns each session's responses."""
    with SocketTransport(*address, pyramid=pyramid) as transport:
        conns = {sid: transport.connect(session_id=sid) for sid in traces}
        runs = {sid: [] for sid in traces}
        for step in range(max(map(len, traces.values()))):
            for sid, trace in traces.items():
                if step < len(trace):
                    request = trace.requests[step]
                    runs[sid].append(conns[sid].request(request.move, request.tile))
        inspect()
    return runs


class TestClusterConformance:
    """Recorder-for-recorder identity through the router.

    A cluster must be bit-identical to the facade baseline on both
    framings and both payload encodings, and a session alone on its
    worker must see exactly the numbers of a dedicated single node —
    any trace, any session, whatever the other workers are serving.
    """

    @pytest.mark.parametrize("framing", ("lines", "length"))
    def test_cluster_matches_facade(
        self, framing, small_dataset, replay_trace, baseline
    ):
        responses = replay_cluster(
            small_dataset.pyramid, replay_trace, framing=framing
        )
        assert signature(responses) == signature(baseline)
        assert client_recorder(responses).to_dict() == (
            client_recorder(baseline).to_dict()
        )

    def test_cluster_binary_matches_facade(
        self, small_dataset, replay_trace, baseline
    ):
        responses = replay_cluster(
            small_dataset.pyramid, replay_trace, payload="binary"
        )
        assert signature(responses) == signature(baseline)
        assert client_recorder(responses).to_dict() == (
            client_recorder(baseline).to_dict()
        )
        for wire, reference in zip(responses, baseline):
            assert wire.tile.key == reference.tile.key
            for name, array in reference.tile.attributes.items():
                assert wire.tile.attributes[name].dtype == array.dtype
                np.testing.assert_array_equal(wire.tile.attributes[name], array)

    def test_sessions_alone_on_their_workers_match_single_node(
        self, small_dataset, small_study
    ):
        pyramid = small_dataset.pyramid
        with ThreadedClusterServer(
            pyramid, CONFIG, workers=3, engine_factory=engine_factory(pyramid)
        ) as cluster:
            ring = cluster.router.router.ring
            # One session per worker, each on a study trace of its own,
            # taking turns request by request on one connection.
            residents = {}
            for session_id in map("walker-{}".format, range(64)):
                residents.setdefault(ring.owner(session_id), session_id)
            assert set(residents) == set(ring.nodes)
            traces = dict(zip(residents.values(), small_study.traces))

            def reached_only_their_owners():
                # A session reached its owner and nobody else: it is
                # not even open on any other worker.
                for index, worker in enumerate(cluster.workers):
                    service = worker.server.service.service
                    resident = residents[f"worker-{index}"]
                    for sid, trace in traces.items():
                        if sid == resident:
                            assert service.info(sid).requests == len(trace)
                        else:
                            with pytest.raises(SessionNotFoundError):
                                service.info(sid)

            cluster_runs = take_turns(
                cluster.address, pyramid, traces, reached_only_their_owners
            )
        for sid, trace in traces.items():
            # The single-node truth: a dedicated cold server replaying
            # only this session.
            solo = replay_socket_sync(pyramid, trace, "lines")
            assert signature(cluster_runs[sid]) == signature(solo)
            assert client_recorder(cluster_runs[sid]).to_dict() == (
                client_recorder(solo).to_dict()
            )

    def test_a_shared_budget_is_split_over_the_workers_own_sessions(
        self, small_dataset, small_study
    ):
        """Under ``share_budget`` a worker splits ``k`` over the sessions
        it holds, so it must hold exactly those the ring gives it: N
        sessions through a W-worker cluster prefetch what W dedicated
        servers do, each holding only one worker's resident sessions."""
        pyramid = small_dataset.pyramid
        config = ServiceConfig(prefetch=PrefetchPolicy(k=6, share_budget=True))
        traces = dict(zip(map("walker-{}".format, range(6)), small_study.traces))
        with ThreadedClusterServer(
            pyramid, config, workers=3, engine_factory=engine_factory(pyramid)
        ) as cluster:
            ring = cluster.router.router.ring
            residents = [
                [sid for sid in traces if ring.owner(sid) == f"worker-{index}"]
                for index in range(3)
            ]
            # Budgets of k, k/2 and k/3: each worker shares it differently.
            assert sorted(map(len, residents)) == [1, 2, 3]
            counts = []
            cluster_runs = take_turns(
                cluster.address,
                pyramid,
                traces,
                lambda: counts.extend(
                    w.server.service.service.session_count for w in cluster.workers
                ),
            )
        assert counts == [len(sids) for sids in residents]
        for sids in residents:
            with ThreadedSocketServer(
                pyramid, config, engine_factory=engine_factory(pyramid)
            ) as server:
                alone = take_turns(
                    server.address, pyramid, {sid: traces[sid] for sid in sids}
                )
            for sid in sids:
                assert signature(cluster_runs[sid]) == signature(alone[sid])

    @pytest.mark.bench
    def test_momentum_figure_pin_through_the_cluster(self):
        # The headline numeric: the momentum LOO latency average at
        # size=256/users=4, k=5, replayed through the cluster front end
        # (a 2-worker cluster: each trace's session lives on one of
        # them), equals the direct socket path recorder-for-recorder and
        # the long-pinned figure value to the bit.
        from repro.experiments.context import ExperimentContext
        from repro.experiments.runner import replay_model_latency

        context = ExperimentContext.build(size=256, num_users=4)
        factory = lambda train: context.momentum_engine(train)
        direct = replay_model_latency(context, factory, k=5, frontend="socket")
        routed = replay_model_latency(context, factory, k=5, frontend="cluster")
        assert routed.to_dict() == direct.to_dict()
        assert routed.average_seconds == 0.22686750000000075


# ----------------------------------------------------------------------
# the serve loop's dispatch guard: one rule set, server and router alike
# ----------------------------------------------------------------------
@contextmanager
def serving_endpoint(kind, pyramid):
    """A direct socket server, or a 1-worker cluster's router."""
    factory = engine_factory(pyramid)
    if kind == "server":
        endpoint = ThreadedSocketServer(pyramid, CONFIG, engine_factory=factory)
    else:
        endpoint = ThreadedClusterServer(
            pyramid, CONFIG, workers=1, engine_factory=factory
        )
    with endpoint:
        yield endpoint


class TestDispatchGuardConformance:
    """What a misbehaving frame gets back — and that the connection
    outlives it — is decided in the shared serve loop, so the direct
    server and the router must answer identically."""

    def bad_tile_exchange(self, kind, pyramid, payload):
        with serving_endpoint(kind, pyramid) as endpoint:
            with SocketTransport(
                *endpoint.address, pyramid=pyramid, payload=payload
            ) as transport:
                conn = transport.connect(session_id="guarded")
                bad = transport.roundtrip(
                    TileRequest(session_id="guarded", tile=TileRef(-1, 0, 0))
                )
                # Same connection, same session, next request: served.
                good = conn.request(None, TileKey(0, 0, 0))
                assert good.tile.key == TileKey(0, 0, 0)
                conn.close()
                return bad

    @pytest.mark.parametrize("payload", ("json", "binary"))
    def test_invalid_tile_reference_is_typed_and_survivable(
        self, payload, small_dataset
    ):
        pyramid = small_dataset.pyramid
        direct = self.bad_tile_exchange("server", pyramid, payload)
        routed = self.bad_tile_exchange("cluster", pyramid, payload)
        assert isinstance(direct, ErrorInfo)
        assert routed == direct

    @pytest.mark.parametrize("kind", ("server", "cluster"))
    def test_repeated_hello_is_refused_and_changes_nothing(
        self, kind, small_dataset
    ):
        pyramid = small_dataset.pyramid
        with serving_endpoint(kind, pyramid) as endpoint:
            with SocketTransport(
                *endpoint.address, pyramid=pyramid, payload="binary"
            ) as transport:
                assert transport.payload == "binary"
                # A second hello, now offering JSON only: must not
                # re-run the negotiation under a wire that stays binary.
                reply = transport.roundtrip(
                    Hello(versions=(1,), client="again", payloads=("json",))
                )
                assert not isinstance(reply, Welcome)
                assert isinstance(reply, ErrorInfo)
                assert reply.code == "invalid_request"
                assert "handshake already completed" in reply.message
                # Negotiated state untouched, connection still serving:
                # the next exchange speaks binary and returns a tile.
                conn = transport.connect()
                response = conn.request(None, TileKey(0, 0, 0))
                assert response.tile.key == TileKey(0, 0, 0)
                info = transport.roundtrip(CloseSession(conn.session_id))
                assert isinstance(info, SessionInfo) and not info.open

    @pytest.mark.parametrize("kind", ("server", "cluster"))
    def test_anything_before_hello_is_refused_and_hangs_up(
        self, kind, small_dataset
    ):
        with serving_endpoint(kind, small_dataset.pyramid) as endpoint:
            with socket.create_connection(endpoint.address, timeout=10) as sock:
                sock.sendall(b'{"type": "open_session", "session_id": null}\n')
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk  # reads to EOF: the endpoint hung up
        reply = json.loads(data)
        assert (reply["type"], reply["code"]) == ("error", "invalid_request")
        assert "must open with a hello" in reply["message"]
