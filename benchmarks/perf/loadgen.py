"""Closed- and open-loop request drivers, and the reply checks.

A *handler* is any ``handle(move, key) -> response`` with
``response.tile`` and ``response.hit`` — a facade ``SessionHandle`` or a
``SocketSessionClient``; the drivers know nothing else about the system.

The open loop sends on a fixed schedule and times every request from
the instant it was *due*, not from when it was sent: when the system
stalls, the requests queued behind the stall are charged the wait
(no coordinated omission), and how late the generator itself ran is
kept beside the latencies.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy

#: A request that raises or times out is charged this latency, so a
#: failure can never read as meeting a latency limit.
TIMEOUT_SECONDS = 5.0
#: Every Nth reply is kept and compared bit for bit after the timing.
DEEP_CHECK_EVERY = 20


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


class Yardstick:
    """A thread that times one fixed piece of work — a pure-Python loop,
    numpy arithmetic and ``json.dumps``, what the library's hot path is
    made of, about half a millisecond — every ``INTERVAL`` seconds for
    as long as the ``with`` block lasts (2 % of one CPU).

    The benchmark's host is shared, and its speed wanders by 20–40 % for
    seconds and for minutes at a time: a fixed loop's *CPU* time moves
    with its wall time, so it is the cores that slow down, not the
    scheduler taking them away.  No statistic over a run repairs a run
    that was slow throughout; a yardstick measured beside the work does.
    Every gated timing is divided by :func:`host_slowdown` over the
    interval it was measured in.
    """

    #: What the work takes on the benchmark host when it is quiet and
    #: the CPU is not shared.  It only fixes the scale, so that a scaled
    #: timing reads as seconds of a quiet host.
    REFERENCE_SECONDS = 450e-6
    INTERVAL = 0.025
    _BLOCK = numpy.arange(1024, dtype=numpy.float64).reshape(32, 32)

    def __init__(self) -> None:
        #: ``(when, seconds)`` of every sample, in time order.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        block = self._BLOCK
        start = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i % 7
        for _ in range(20):
            json.dumps((block * 1.5).sum(axis=0).tolist())
        self.samples.append((start, time.perf_counter() - start))

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self.sample()

    def __enter__(self) -> "Yardstick":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def host_slowdown(samples, begin: float, end: float) -> float:
    """How much slower than the quiet reference the host ran between
    ``begin`` and ``end``: the median of the yardstick ``samples`` (in
    time order) taken in that interval — the nearest one when it holds
    none — over the reference."""
    times = [when for when, _ in samples]
    first = bisect.bisect_left(times, begin)
    last = bisect.bisect_right(times, end)
    if first == last:
        middle = 0.5 * (begin + end)
        first = min(
            (i for i in (first - 1, first) if 0 <= i < len(times)),
            key=lambda i: abs(times[i] - middle),
        )
        last = first + 1
    inside = [seconds for _, seconds in samples[first:last]]
    return statistics.median(inside) / Yardstick.REFERENCE_SECONDS


@dataclass
class Samples:
    """What one phase observed, in send order per connection."""

    #: The ``(move, key)`` requests that were sent, in order.
    requests: list = field(default_factory=list)
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    hit: list[bool] = field(default_factory=list)
    #: Requests that raised, timed out, answered the wrong tile, or were
    #: never sent because the phase ran out of time.
    failed: int = 0
    attempted: int = 0
    #: ``(key, tile)`` of every Nth reply, for :func:`deep_check`.
    kept: list = field(default_factory=list)
    #: Open loop: scheduled-but-unsent requests at each send.
    backlog: list[int] = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [done - due for due, done in zip(self.due, self.done)]

    @property
    def lateness(self) -> list[float]:
        return [sent - due for due, sent in zip(self.due, self.sent)]

    def merge(self, other: "Samples") -> "Samples":
        for name in ("requests", "due", "sent", "done", "hit", "kept", "backlog"):
            getattr(self, name).extend(getattr(other, name))
        self.failed += other.failed
        self.attempted += other.attempted
        return self


def _serve_one(handle, move, key, due, sent, samples, clock) -> None:
    samples.attempted += 1
    try:
        response = handle(move, key)
        ok = response.tile.key == key
    except Exception:
        response, ok = None, False
    done = clock()
    if not ok:
        samples.failed += 1
        done = max(done, due + TIMEOUT_SECONDS)
    elif samples.attempted % DEEP_CHECK_EVERY == 0:
        samples.kept.append((key, response.tile))
    samples.requests.append((move, key))
    samples.due.append(due)
    samples.sent.append(sent)
    samples.done.append(done)
    samples.hit.append(bool(ok and response.hit))


def closed_loop(
    handle,
    requests,
    deadline: float,
    clock=time.perf_counter,
    samples: Samples | None = None,
) -> Samples:
    """Zero think time: the next request leaves when the reply lands.

    Stops early at ``deadline`` (a clock value); what was not sent by
    then is simply not attempted — a slow system receives less load.
    """
    samples = samples if samples is not None else Samples()
    for move, key in requests:
        start = clock()
        if start >= deadline:
            break
        _serve_one(handle, move, key, start, start, samples, clock)
    return samples


def open_loop(
    handle,
    requests,
    period: float,
    first_due: float,
    deadline: float,
    clock=time.perf_counter,
    sleep=time.sleep,
    samples: Samples | None = None,
) -> Samples:
    """One request every ``period`` seconds from ``first_due``, each
    timed from its due time.  Requests still unsent at ``deadline``
    count as failed: an arrival schedule does not slow down for a
    system that cannot keep up.
    """
    samples = samples if samples is not None else Samples()
    requests = list(requests)
    for index, (move, key) in enumerate(requests):
        due = first_due + index * period
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        if now >= deadline:
            unsent = len(requests) - index
            samples.attempted += unsent
            samples.failed += unsent
            break
        samples.backlog.append(int((now - first_due) / period + 1e-9) - index)
        _serve_one(handle, move, key, due, now, samples, clock)
    return samples


def run_threads(bodies) -> list:
    """Run each zero-argument body on its own thread, released together;
    returns their results in order.  A body that raises re-raises here."""
    results = [None] * len(bodies)
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(bodies))

    def run(index: int) -> None:
        try:
            barrier.wait()
            results[index] = bodies[index]()
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=run, args=(index,), daemon=True)
        for index in range(len(bodies))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def deep_check(kept, pyramid) -> int:
    """How many kept replies differ from the backing store bit for bit."""
    wrong = 0
    for key, tile in kept:
        truth = pyramid.fetch_tile(key, charge=False)
        same = tile.key == key and set(tile.attributes) == set(truth.attributes)
        for name, expected in truth.attributes.items():
            if not same:
                break
            got = tile.attributes[name]
            same = (
                got.dtype == expected.dtype
                and got.shape == expected.shape
                and got.tobytes() == expected.tobytes()
            )
        wrong += not same
    return wrong
