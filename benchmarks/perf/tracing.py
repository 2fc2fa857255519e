"""The traced run: stage replay with spans, and per-layer microbenchmarks.

``replay`` drives one workload's request stream single-threaded inside
the benchmark process, making the same public calls the front end makes
for one request — encode, frame, decode, serve, encode, frame, decode —
through a ``call(name, fn, *args)`` hook.  With a :class:`Tracer` the
hook records a span per call (and per wrapped method underneath
``ForeCacheService.request``); with :func:`direct` it records nothing,
which is the untraced baseline the tracing overhead is measured against.

Spans live in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from statistics import median

SPAN_FIELDS = ("name", "start_us", "end_us", "parent", "request")


def direct(name, fn, *args, **kwargs):
    """The untraced ``call`` hook."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder.

    A span is ``(name, start, end, parent index or -1, request id)``;
    spans of one request share its id, and a span's parent is the span
    that was open when it started.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list = []
        self.request = -1
        self._open: list[int] = []
        self._wrapped: list = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.request)

    def wrap(self, target, attribute: str, name: str) -> None:
        """Shadow ``target.attribute`` on the instance with a version
        that records a span per call (idempotent); :meth:`unwrap_all`
        removes every shadow again."""
        if (target, attribute) in self._wrapped:
            return
        inner = getattr(target, attribute)
        call = self.call

        def traced(*args, **kwargs):
            return call(name, inner, *args, **kwargs)

        setattr(target, attribute, traced)
        self._wrapped.append((target, attribute))

    def unwrap_all(self) -> None:
        for target, attribute in self._wrapped:
            delattr(target, attribute)
        self._wrapped.clear()

    # ------------------------------------------------------------------
    # reading spans
    # ------------------------------------------------------------------
    def durations_us(self) -> dict[str, list[float]]:
        """Span durations by name, in microseconds."""
        out = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append((end - start) * 1e6)
        return out

    def self_times_us(self) -> list[float]:
        """Each span's duration minus what its child spans cover."""
        own = [(end - start) * 1e6 for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= (end - start) * 1e6
        return own

    def write(self, path, **header) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [
                name,
                round((start - origin) * 1e6, 3),
                round((end - origin) * 1e6, 3),
                parent,
                request,
            ]
            for name, start, end, parent, request in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "fields": SPAN_FIELDS, "spans": rows}, handle)


def wrap_engine_factory(tracer: Tracer, factory):
    """Engines the service builds get ``observe``/``predict`` spans."""

    def build():
        return wrap_engine(tracer, factory())

    return build


def wrap_engine(tracer: Tracer, engine):
    tracer.wrap(engine, "observe", "core.observe")
    tracer.wrap(engine, "predict", "core.predict")
    return engine


def wrap_service(tracer: Tracer, service) -> None:
    """Child spans under ``service.request``: cache, tiles, arraydb."""
    tracer.wrap(service.cache_manager, "fetch", "cache.fetch")
    tracer.wrap(service.cache_manager, "prefetch", "cache.prefetch")
    tracer.wrap(service.pyramid, "fetch_tile_timed", "tiles.fetch_tile")
    tracer.wrap(service.pyramid.db, "execute", "arraydb.execute")


# ----------------------------------------------------------------------
# the stage replay
# ----------------------------------------------------------------------
class WireStages:
    """One connection's worth of wire state for the replay: the framing
    each side speaks after the handshake and both frame decoders."""

    def __init__(self, workload, services, ring=None) -> None:
        from repro.middleware.protocol import FrameDecoder

        self.binary = workload.payload == "binary"
        self.wire = "binary" if self.binary else workload.framing
        #: node name -> service; one entry (``None``) without a router.
        self.services = services
        self.ring = ring
        self.decoders = {
            side: FrameDecoder(self.wire)
            for side in ("server", "client", "router_in", "router_back")
        }

    def request(self, call, session_id: str, move, key):
        """One request through every stage; returns the client-side
        ``TileResponse`` and the reply frame's size in bytes."""
        from repro.middleware import protocol
        from repro.middleware.protocol import TileRef, TileRequest
        from repro.middleware.transport import response_to_client

        wire, feed = self.wire, self.decoders
        message = TileRequest(
            session_id=session_id,
            tile=TileRef.from_key(key),
            move=move.value if move is not None else None,
        )
        frame = call("protocol.encode_request", protocol.encode_wire, message, wire)
        node = None
        if self.ring is not None:
            # The router decodes the client's frame, picks the owner and
            # re-encodes the request onto that worker's link.
            def forward(frame):
                routed = protocol.decode_wire(feed["router_in"].feed(frame)[0])
                node = call("cluster.ring_owner", self.ring.owner, key)
                return node, protocol.encode_wire(routed, wire)

            node, frame = call("cluster.forward", forward, frame)
        service = self.services[node]
        frames = call("protocol.frame_feed", feed["server"].feed, frame)
        message = call("protocol.decode_request", protocol.decode_wire, frames[0])
        result = call(
            "service.request",
            service.request,
            message.session_id,
            message.to_move(),
            message.tile.to_key(),
        )
        reply = call(
            "protocol.encode_response",
            lambda: protocol.encode_wire(
                protocol.TileResponse.from_result(
                    message.session_id, result, binary=self.binary
                ),
                wire,
            ),
        )
        if self.ring is not None:
            reply = call(
                "cluster.relay",
                lambda data: protocol.encode_wire(
                    protocol.decode_wire(feed["router_back"].feed(data)[0]), wire
                ),
                reply,
            )
        frames = call("protocol.frame_feed", feed["client"].feed, reply)
        response = call(
            "protocol.decode_response",
            lambda: response_to_client(protocol.decode_wire(frames[0])),
        )
        return response, len(reply)


def replay(call, handle, requests, tracer: Tracer | None = None):
    """Drive ``requests`` through ``handle(call, move, key)`` one at a
    time.  Returns per-request ``(seconds, hit, response, extra)``."""
    rows = []
    clock = time.perf_counter
    for index, (move, key) in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        start = clock()
        response, extra = call("request", handle, call, move, key)
        rows.append((clock() - start, response.hit, response, extra))
    return rows


# ----------------------------------------------------------------------
# per-layer microbenchmarks (workload-independent, fixed inputs)
# ----------------------------------------------------------------------
def per_call_us(body, calls_per_body: int, repeats: int = 7) -> float:
    """Median over ``repeats`` of one body's wall time per call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        body()
        times.append((time.perf_counter() - start) * 1e6 / calls_per_body)
    return median(times)


def lru_microbench(pyramid) -> tuple[float, float]:
    """``ShardedLRUCache`` get/put on a fixed key stream (µs/call)."""
    from repro.cache.lru import ShardedLRUCache

    keys = list(pyramid.grid.keys_at_level(pyramid.grid.deepest_level))[:64]
    stream = [keys[(i * 7) % len(keys)] for i in range(2000)]
    cache = ShardedLRUCache(capacity=32, shards=1)

    def puts():
        for key in stream:
            cache.put(key, key)

    def gets():
        for key in stream:
            cache.get(key)

    put_us = per_call_us(puts, len(stream))
    return per_call_us(gets, len(stream)), put_us


def push_round_microbench(pyramid) -> float:
    """One ``PushScheduler`` round on a fixed 5-tile prediction list:
    ``begin_round`` + ``next_job``/``commit`` until the round ends."""
    from repro.middleware.push import PushScheduler

    keys = list(pyramid.grid.keys_at_level(pyramid.grid.deepest_level))[:5]
    predictions = [(key, "momentum") for key in keys]
    scheduler = PushScheduler(budget_bytes=256 * 1024, max_inflight=4)
    scheduler.open_session("bench")
    rounds = 200

    def body():
        for _ in range(rounds):
            scheduler.acknowledge("bench", ())  # client evicted all
            scheduler.begin_round("bench", predictions)
            while (job := scheduler.next_job("bench")) is not None:
                if not scheduler.commit(job, 8500):
                    break

    return per_call_us(body, rounds)


def scheduler_microbench(pyramid) -> float:
    """Jobs per second the background ``PrefetchScheduler`` drains:
    ``schedule`` of a fixed ranked list + ``wait_idle``, on a one-slot
    cache so every job is a real backend fetch."""
    from repro.cache.manager import CacheManager
    from repro.cache.tile_cache import TileCache
    from repro.middleware.scheduler import PrefetchScheduler

    keys = list(pyramid.grid.keys_at_level(pyramid.grid.deepest_level))[:8]
    predictions = [(key, "momentum") for key in keys]
    manager = CacheManager(
        pyramid, TileCache(recent_capacity=1, prefetch_capacity=1)
    )
    rounds = 20
    rates = []
    with PrefetchScheduler(manager, max_workers=2) as scheduler:
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(rounds):
                scheduler.schedule(predictions, session_id="bench")
                scheduler.wait_idle(10.0)
            rates.append(
                rounds * len(predictions) / (time.perf_counter() - start)
            )
    return median(rates)
