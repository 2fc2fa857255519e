"""The five workloads: what runs, why, and their frozen rates.

``capacity_rps`` is the seed commit's closed-loop capacity as first
measured on the benchmark host (2 cores, before runs were confined to
one CPU) and then frozen; ``rate_lo``/``rate_hi`` are 0.35x / 0.8x of it
to two significant figures.  They are constants —
never derived at run time — so a slower commit meets the same arrival
schedule and shows it as latency, not as a quietly lower offered load.

``rate_lo`` is 0.35x rather than 0.5x because the host's capacity dips
by up to 40 % for seconds at a time: at 0.5x a dip runs the open phase
near saturation, and its p90 then measures the dip, not the code.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from launch import ServerSpec

#: The walks' shape is drawn once, from this seed; see ``wire_cycles``.
WALK_SEED = 7
#: Users whose study traces ``facade_study`` replays; the hybrid engine
#: trains on everyone else's.
HELD_OUT_USERS = (1, 2)
STUDY = dict(size=512, num_users=6)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: None = the in-process facade; otherwise what the launcher hosts.
    server: ServerSpec | None
    capacity_rps: float
    rate_lo: float
    rate_hi: float
    #: ``loadgen.slo_rate_rps`` asks for p90 within this.
    p90_limit_ms: float = 25.0
    payload: str = "json"
    push: bool = False

    @property
    def connections(self) -> int:
        """One session per connection."""
        return 1 if self.server is None else self.server.sessions

    @property
    def framing(self) -> str:
        return self.server.framing if self.server else ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="facade_study",
            why=(
                "in-process facade, hybrid engine, study traces: all work is in "
                "core/recommenders/cache/tiles/arraydb, so a wire optimisation "
                "must show no change here"
            ),
            server=None,
            capacity_rps=780.0,
            rate_lo=270.0,
            rate_hi=620.0,
            p90_limit_ms=5.0,
        ),
        Workload(
            name="socket_json",
            why=(
                "default wire (JSON payload, lines framing): ~71 KB replies, so "
                "protocol encode/decode dominates both sides"
            ),
            server=ServerSpec("socket", framing="lines"),
            capacity_rps=220.0,
            rate_lo=77.0,
            rate_hi=180.0,
        ),
        Workload(
            name="socket_binary",
            why=(
                "same traffic with binary payloads (~8.5 KB replies): with "
                "socket_json isolates the payload codec from the rest of net"
            ),
            server=ServerSpec("socket", framing="length"),
            capacity_rps=560.0,
            rate_lo=200.0,
            rate_hi=450.0,
            payload="binary",
        ),
        Workload(
            name="socket_push",
            why=(
                "socket_binary plus negotiated push: server-initiated writes, "
                "held digests and client-local hits; the only workload where "
                "middleware.push works"
            ),
            server=ServerSpec("socket", framing="length", push=True),
            capacity_rps=480.0,
            rate_lo=170.0,
            rate_hi=380.0,
            payload="binary",
            push=True,
        ),
        Workload(
            name="cluster_binary",
            why=(
                "the socket_binary stream through a 2-worker ProcessCluster: "
                "the difference to socket_binary is the router hop"
            ),
            server=ServerSpec("cluster", framing="length"),
            capacity_rps=420.0,
            rate_lo=150.0,
            rate_hi=340.0,
            payload="binary",
        ),
    )
}


def _symmetry(key, index: int):
    """One of the 8 symmetries of the square tile grid, applied to
    ``key`` (bit 0 mirrors x, bit 1 mirrors y, bit 2 transposes)."""
    from repro.tiles.key import TileKey

    last = (1 << key.level) - 1
    x = last - key.x if index & 1 else key.x
    y = last - key.y if index & 2 else key.y
    return TileKey(key.level, y, x) if index & 4 else TileKey(key.level, x, y)


def wire_cycles(grid, seed: int, connections: int = 2) -> list[list]:
    """One request cycle (a list of tile keys) per connection of the
    four wire workloads.

    The *shape* of the traffic is fixed — ``flash_crowd_walks`` with
    ``WALK_SEED``: wander, rush a shared burst tile, dwell, four times —
    because the share of straight pans sets the hit rate, and a workload
    whose hit rate moves 15 % from seed to seed cannot gate a 5 %
    regression.  ``seed`` chooses *where* that shape lands: one of the
    grid's eight symmetries (other tiles, other data, other bytes on the
    wire) and where in its cycle each connection starts.
    """
    from repro.users.flashcrowd import flash_crowd_walks

    rng = random.Random(seed)
    symmetry = rng.randrange(8)
    cycles = []
    for walk in flash_crowd_walks(
        grid, num_users=connections, bursts=4, wander=8, dwell=3, seed=WALK_SEED
    ):
        keys = [_symmetry(key, symmetry) for _, key in walk]
        start = rng.randrange(len(keys))
        cycles.append(keys[start:] + keys[:start])
    return cycles


def study_cycle(traces, seed: int) -> list:
    """The held-out study traces' tiles in a seeded order.  ``None``
    marks the start of a trace: a new user sat down."""
    traces = list(traces)
    random.Random(seed).shuffle(traces)
    return [
        key for trace in traces for key in (None, *trace.tiles())
    ]


def requests_of(cycle):
    """An endless ``(move, key)`` stream repeating ``cycle``.  The move
    is whatever single move leads from the previous tile; where there is
    none (the first request, a new trace, the seam of a rotated walk)
    the request carries no move, as a session-opening request does."""
    previous = None
    for key in itertools.cycle(cycle):
        if key is None:
            previous = None
            continue
        yield (previous.move_to(key) if previous is not None else None), key
        previous = key


def take(stream, count: int) -> list:
    return list(itertools.islice(stream, count))
