"""The live run: open a workload's front end, warm it up, then drive the
closed phase and the open phase(s) against it and check what came back.

A *front end* is what requests are sent into: the in-process facade
(``facade_study``) or socket connections to a server the launcher hosts
in a child process (the four wire workloads).  Client-side decoding and
the push cache run inside the handlers — they are part of what a user of
the library pays.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import statistics
import time
from dataclasses import dataclass, field

import launch
import loadgen
from workloads import (
    HELD_OUT_USERS,
    STUDY,
    requests_of,
    study_cycle,
    take,
    wire_cycles,
)

#: A phase sized for N seconds is cut off after this multiple of N.
PHASE_CAP = 1.5
#: How much of facade_study's hit sequence the second replay re-derives.
REPLAY_CHECK_REQUESTS = 1000
#: Closed and open phase alternate this many times within a run.
ROUNDS = 3


@dataclass
class Frontend:
    #: Builds (or returns) this process's copy of the tile world; only
    #: the output checks need it, after the timed sections.
    world: object
    handlers: list  # one ``handle(move, key)`` per connection
    #: One request cycle per connection (``workloads.requests_of`` turns
    #: it into the endless stream the phases draw from, in order).
    cycles: list
    #: role -> pids of the server-side processes.
    pids: dict
    #: Ends the sessions; returns the server's ``SessionInfo`` of each.
    finish: object
    transports: list = field(default_factory=list)
    connect_ms: float = 0.0
    push_caches: list = field(default_factory=list)
    #: facade only: ``fresh()`` opens a cold service and returns its
    #: handler; ``engine``/``services`` are what the traced run wraps.
    fresh: object = None
    engine: object = None
    services: list = field(default_factory=list)
    #: Keys of pushed tiles in arrival order, when asked to record them.
    pushed_keys: list | None = None

    def __post_init__(self) -> None:
        self.streams = [requests_of(cycle) for cycle in self.cycles]
        #: Requests per cycle, per connection.
        self.lengths = [
            sum(key is not None for key in cycle) for cycle in self.cycles
        ]

    @property
    def pyramid(self):
        return self.world().pyramid

    def server_pids(self) -> list[int]:
        return [pid for group in self.pids.values() for pid in group]

    def wire_bytes(self) -> tuple[int, int]:
        return (
            sum(t.bytes_received for t in self.transports),
            sum(t.bytes_sent for t in self.transports),
        )

    def push_counts(self) -> tuple[int, int]:
        return (
            sum(cache.hits for cache in self.push_caches),
            sum(cache.pushed for cache in self.push_caches),
        )


def facade_handler(session):
    """A study trace opens with a move-less request: a new user sat
    down, so the session's prediction engine starts over."""

    def handle(move, key):
        if move is None:
            session.engine.reset()
        return session.request(move, key)

    return handle


@contextlib.contextmanager
def facade_frontend(workload, seed: int, study=None):
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import hybrid_factory
    from repro.middleware.service import ForeCacheService

    context = ExperimentContext.build(**(study or STUDY))
    traces = context.study.traces
    held_out = [t for t in traces if t.user_id in HELD_OUT_USERS]
    engine = hybrid_factory(context)(
        [t for t in traces if t.user_id not in HELD_OUT_USERS]
    )
    with contextlib.ExitStack() as stack:
        sessions, services = [], []

        def fresh():
            services.append(
                stack.enter_context(
                    ForeCacheService(context.pyramid, launch.service_config())
                )
            )
            engine.reset()
            sessions.append(services[-1].open_session(engine))
            return facade_handler(sessions[-1])

        yield Frontend(
            world=lambda: context.dataset,
            handlers=[fresh()],
            cycles=[study_cycle(held_out, seed)],
            pids={"bench": [os.getpid()]},
            finish=lambda: [sessions[0].info()],
            fresh=fresh,
            engine=engine,
            services=services,
        )


@contextlib.contextmanager
def wire_frontend(
    workload, seed: int, inline: bool = False, record_pushes: bool = False
):
    from repro.middleware.net import SocketTransport
    from repro.middleware.protocol import CloseSession
    from repro.tiles.pyramid import TileGrid

    size = workload.server.world_size
    with launch.Launcher(workload.server, inline=inline) as server:
        host, port = server.wait_ready()
        with contextlib.ExitStack() as stack:
            begin = time.perf_counter()
            transports = [
                stack.enter_context(
                    SocketTransport(
                        host,
                        port,
                        framing=workload.framing,
                        payload=workload.payload,
                        push=workload.push,
                        timeout=loadgen.TIMEOUT_SECONDS,
                    )
                )
                for _ in range(workload.connections)
            ]
            clients = [transport.connect() for transport in transports]
            connect_ms = (time.perf_counter() - begin) * 1e3 / len(clients)
            for transport in transports:
                granted = (transport.payload, transport.push_enabled)
                if granted != (workload.payload, workload.push):
                    raise RuntimeError(
                        f"{workload.name}: handshake granted {granted}"
                    )
            caches = [c.push_cache for c in clients if c.push_cache is not None]
            pushed_keys = None
            if record_pushes:
                pushed_keys = []
                for cache in caches:
                    cache.put = _recording_put(cache.put, pushed_keys)
            yield Frontend(
                world=lambda: launch.build_world(size),
                handlers=[client.request for client in clients],
                cycles=wire_cycles(
                    TileGrid(launch.world_levels(size)), seed, len(clients)
                ),
                pids=server.pids or {"bench": [os.getpid()]},
                finish=lambda: [
                    c.transport.roundtrip(CloseSession(c.session_id))
                    for c in clients
                ],
                transports=transports,
                connect_ms=connect_ms,
                push_caches=caches,
                pushed_keys=pushed_keys,
            )


def _recording_put(put, keys: list):
    def recording(tile, fidelity=1.0):
        keys.append(tile.key)
        put(tile, fidelity=fidelity)

    return recording


def open_frontend(
    workload, seed: int, *, study=None, inline=False, record_pushes=False
):
    """``study`` and ``inline`` shrink the run for tests (a smaller
    study context; the server on a thread instead of in a child)."""
    if workload.server is None:
        return facade_frontend(workload, seed, study)
    return wire_frontend(workload, seed, inline, record_pushes)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
@dataclass
class Plan:
    """Seconds each phase is sized for (0 = skip).  Every phase runs
    whole cycles of the request stream — as many as fit its seconds at
    the workload's frozen rate, at least one — so every run of a
    workload measures the same mix of requests."""

    closed: float
    open: float
    hi: float = 0.0

    @classmethod
    def end_to_end(cls, seconds: float) -> "Plan":
        return cls(closed=0.4 * seconds, open=0.6 * seconds)

    @classmethod
    def traced(cls, seconds: float) -> "Plan":
        # The rest of the run's seconds go to the stage replay.
        return cls(closed=0.25 * seconds, open=0.3 * seconds, hi=0.15 * seconds)


def merged(parts) -> loadgen.Samples:
    """One connection-agnostic view of a phase's per-connection samples."""
    whole = loadgen.Samples()
    for part in parts:
        whole.merge(part)
    return whole


def _cycles(frontend, rate: float, seconds: float) -> int:
    return max(1, round(rate * seconds / sum(frontend.lengths)))


def _batches(frontend, cycles: int) -> list:
    return [
        take(stream, cycles * length)
        for stream, length in zip(frontend.streams, frontend.lengths)
    ]


def closed_phase(
    frontend, cycles: int, rate: float, parts=None, grace: float = 1.0
) -> list:
    """``cycles`` cycles per connection with zero think time, appended
    to the connections' samples ``parts`` (created when not given).
    ``rate`` is only the expectation the cut-off is derived from
    (``grace`` seconds are added to it)."""
    batches = _batches(frontend, cycles)
    expected = sum(len(batch) for batch in batches) / rate
    deadline = time.perf_counter() + PHASE_CAP * expected + grace
    parts = parts or [loadgen.Samples() for _ in batches]
    return loadgen.run_threads(
        [
            lambda h=handler, b=batch, p=part: loadgen.closed_loop(
                h, b, deadline, samples=p
            )
            for handler, batch, part in zip(frontend.handlers, batches, parts)
        ]
    )


def open_phase(frontend, cycles: int, rate: float, parts=None) -> list:
    """``cycles`` cycles per connection on a fixed schedule of ``rate``
    requests/second in total, split evenly over the connections with
    their send times interleaved; appended to ``parts``."""
    connections = len(frontend.handlers)
    period = connections / rate
    batches = _batches(frontend, cycles)
    parts = parts or [loadgen.Samples() for _ in batches]
    origin = time.perf_counter() + 0.05
    deadline = origin + PHASE_CAP * period * max(map(len, batches)) + 1.0
    return loadgen.run_threads(
        [
            lambda h=handler, b=batch, p=part, i=index: loadgen.open_loop(
                h, b, period, origin + i * period / connections, deadline,
                samples=p,
            )
            for index, (handler, batch, part) in enumerate(
                zip(frontend.handlers, batches, parts)
            )
        ]
    )


def over_cycles(parts, lengths, measure, calibrations=None) -> list[float]:
    """``measure(part, first, end)``, a time in seconds, over every
    whole cycle every connection ran (its samples ``first:end``) — a
    cycle is the unit that always holds the same mix of requests.  With
    ``calibrations`` each time is divided by how much slower than the
    quiet reference the host ran during that cycle (see
    ``loadgen.host_slowdown``): what it would have taken there."""
    values = []
    for part, length in zip(parts, lengths):
        for end in range(length, len(part.done) + 1, length):
            first = end - length
            value = measure(part, first, end)
            if calibrations:
                value /= loadgen.host_slowdown(
                    calibrations, part.sent[first], part.done[end - 1]
                )
            values.append(value)
    return values


def seconds_per_request(part, first: int, end: int) -> float:
    """Measure for :func:`over_cycles`: one connection's time per
    completed request, first send to last reply."""
    return (part.done[end - 1] - part.sent[first]) / (end - first)


def cycle_percentile(q: float):
    """Measure for :func:`over_cycles`: the cycle's ``q`` latency."""
    return lambda part, first, end: loadgen.percentile(
        [done - due for due, done in zip(part.due[first:end], part.done[first:end])],
        q,
    )


@dataclass
class Live:
    """Raw observations of one live run; phases are per-connection
    lists of samples (rounds appended one after the other)."""

    #: ``perf_counter`` when set-up began, and when the warm-up ended.
    started: float
    ready: float
    connect_ms: float
    lengths: list
    warmup: list
    closed: list
    open: list | None
    hi: list | None
    #: Summed over the closed rounds: ``cpu.<role>`` (seconds of the
    #: server-side processes), ``client_cpu``, ``received`` / ``sent``
    #: (wire bytes), ``push_hits`` / ``push_frames``.
    counters: dict
    #: Server CPU milliseconds per request over each closed round.
    cpu_ms_per_req: list
    peak_rss_mb: float
    #: The run's ``loadgen.Yardstick`` samples, set-up to last phase.
    calibrations: list
    #: Keys pushed during the closed rounds (``record_pushes`` runs only).
    pushed_keys: list = field(default_factory=list)
    #: What the server says it served, summed over the sessions.
    server_requests: int = 0
    server_hits: int = 0
    #: Replies that failed the bit-for-bit check.
    wrong_payloads: int = 0
    #: facade_study: the untimed second replay hit differently.
    replay_diverged: bool = False

    @functools.cached_property
    def everything(self) -> loadgen.Samples:
        """Every phase's samples in one (built once, after the run)."""
        return merged(
            part
            for phase in (self.warmup, self.closed, self.open, self.hi)
            for part in phase or ()
        )

    def setup_s(self, calibrated: bool = True) -> float:
        """Set-up: start of the run to the end of the warm-up cycle, as
        measured or scaled to the quiet reference host."""
        seconds = self.ready - self.started
        if calibrated:
            seconds /= loadgen.host_slowdown(
                self.calibrations, self.started, self.ready
            )
        return seconds

    def throughput_rps(self, calibrated: bool = True) -> float:
        """Closed phase: the number of connections over the median, over
        every connection's cycles, of the cycle's time per request —
        that time as measured, or scaled to the quiet reference host."""
        return len(self.closed) / statistics.median(
            over_cycles(
                self.closed,
                self.lengths,
                seconds_per_request,
                self.calibrations if calibrated else None,
            )
        )

    def latency_ms(self, q: float, calibrated: bool = True) -> float:
        """Open phase: the median over every connection's cycles of the
        cycle's ``q`` latency from due time, as measured or scaled."""
        return 1e3 * statistics.median(
            over_cycles(
                self.open,
                self.lengths,
                cycle_percentile(q),
                self.calibrations if calibrated else None,
            )
        )

    @property
    def attempted(self) -> int:
        return self.everything.attempted

    @property
    def failed(self) -> int:
        return self.everything.failed + self.wrong_payloads

    @property
    def correct(self) -> bool:
        """No failure, and the server's own books agree with the
        client's: it served exactly the requests that were answered and
        saw exactly the hits the client saw."""
        return (
            self.failed == 0
            and not self.replay_diverged
            and self.server_requests == self.attempted
            and self.server_hits == sum(self.everything.hit)
        )


def warm_up(frontend, workload) -> list:
    """One full cycle: server caches, engines and push caches reach the
    state every later cycle starts from.  Cold first requests are slow
    (lazy signatures, first queries), so it gets a long leash."""
    return closed_phase(frontend, 1, workload.capacity_rps, grace=60.0)


def _counters(frontend) -> dict:
    received, sent = frontend.wire_bytes()
    push_hits, push_frames = frontend.push_counts()
    return {
        **{
            f"cpu.{role}": launch.cpu_seconds(pids)
            for role, pids in frontend.pids.items()
        },
        "client_cpu": time.process_time(),
        "received": received,
        "sent": sent,
        "push_hits": push_hits,
        "push_frames": push_frames,
    }


def live_run(workload, seed: int, plan: Plan, started: float, **options) -> Live:
    """``started`` is the ``perf_counter`` value set-up is timed from.

    The closed and the open phase alternate in ``ROUNDS`` rounds, so
    that a few slow seconds of the host cannot swallow either phase
    whole; the hi phase, which nothing gated reads, runs once at the end.
    """
    with loadgen.Yardstick() as yardstick, open_frontend(
        workload, seed, **options
    ) as frontend:
        warmup = warm_up(frontend, workload)
        ready = time.perf_counter()

        everyone = frontend.server_pids()
        closed = [loadgen.Samples() for _ in frontend.handlers]
        opened = [loadgen.Samples() for _ in frontend.handlers]
        totals = collections.Counter()
        cpu_ms_per_req: list[float] = []
        pushed_keys: list = []
        for _ in range(ROUNDS):
            before = _counters(frontend)
            keys_before = len(frontend.pushed_keys or ())
            served_before = sum(len(part.done) for part in closed)
            closed_phase(
                frontend,
                _cycles(frontend, workload.capacity_rps, plan.closed / ROUNDS),
                workload.capacity_rps,
                closed,
            )
            spent = {k: v - before[k] for k, v in _counters(frontend).items()}
            totals.update(spent)
            cpu_ms_per_req.append(
                sum(v for k, v in spent.items() if k.startswith("cpu."))
                * 1e3
                / (sum(len(part.done) for part in closed) - served_before)
            )
            pushed_keys += (frontend.pushed_keys or [])[keys_before:]
            if plan.open:
                open_phase(
                    frontend,
                    _cycles(frontend, workload.rate_lo, plan.open / ROUNDS),
                    workload.rate_lo,
                    opened,
                )
        hi = plan.hi and open_phase(
            frontend,
            _cycles(frontend, workload.rate_hi, plan.hi),
            workload.rate_hi,
        )
        live = Live(
            started=started,
            ready=ready,
            connect_ms=frontend.connect_ms,
            lengths=frontend.lengths,
            warmup=warmup,
            closed=closed,
            open=opened if plan.open else None,
            hi=hi or None,
            counters=dict(totals),
            cpu_ms_per_req=cpu_ms_per_req,
            peak_rss_mb=launch.peak_rss_mb(everyone),
            calibrations=yardstick.samples,
            pushed_keys=pushed_keys,
        )
        # Output checks, all outside the timed sections.
        for info in frontend.finish():
            live.server_requests += info.requests
            live.server_hits += info.hits
        everything = live.everything
        live.wrong_payloads = loadgen.deep_check(
            everything.kept, frontend.pyramid
        )
        if frontend.fresh is not None:
            # Single-threaded and synchronous, so the hit sequence is a
            # pure function of the request stream: a second replay on a
            # cold service must reproduce the start of the timed run.
            first = sorted(
                zip(everything.sent, everything.requests, everything.hit),
                key=lambda row: row[0],
            )[:REPLAY_CHECK_REQUESTS]
            handle = frontend.fresh()
            live.replay_diverged = [
                handle(move, key).hit for _, (move, key), _ in first
            ] != [hit for _, _, hit in first]
        return live
