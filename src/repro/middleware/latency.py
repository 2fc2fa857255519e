"""Latency accounting (Section 5.5).

The paper measured, on its SciDB testbed, an average of **19.5 ms** to
serve a tile from the middleware cache and **984.0 ms** when the tile
had to be fetched from SciDB.  Our backend charges its own (calibrated)
virtual query cost on a miss; :func:`response_seconds` adds the fixed
middleware/transfer overhead that every response pays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Average response time for a middleware cache hit (paper: 19.5 ms).
HIT_SECONDS = 0.0195
#: Average response time for a cache miss (paper: 984.0 ms).
MISS_SECONDS = 0.984


def nearest_rank_percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values``, ``q`` in [0, 1].

    The textbook definition — the smallest value with at least ``q`` of
    the sample at or below it (``ceil(q * n)``-th order statistic) — and
    the one definition shared by the recorder and the throughput
    benchmarks, so reported tails can never drift apart.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def response_seconds(hit: bool, backend_seconds: float) -> float:
    """Latency of one response.

    Hits pay only the middleware/transfer overhead, :data:`HIT_SECONDS`;
    misses pay the backend query on top of it.
    """
    if hit:
        return HIT_SECONDS
    return HIT_SECONDS + backend_seconds


@dataclass
class LatencyRecorder:
    """Accumulates per-request latencies for one experiment run."""

    latencies: list[float] = field(default_factory=list)
    hits: int = 0

    def record(self, seconds: float, hit: bool) -> None:
        """Log one response."""
        self.latencies.append(seconds)
        if hit:
            self.hits += 1

    @property
    def count(self) -> int:
        """Number of recorded responses."""
        return len(self.latencies)

    @property
    def average_seconds(self) -> float:
        """Mean response latency."""
        return sum(self.latencies) / self.count if self.count else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of responses served from cache."""
        return self.hits / self.count if self.count else 0.0

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's measurements into this one."""
        self.latencies.extend(other.latencies)
        self.hits += other.hits

    def percentile(self, q: float) -> float:
        """Nearest-rank latency percentile, ``q`` in [0, 1]."""
        return nearest_rank_percentile(self.latencies, q)

    # ------------------------------------------------------------------
    # serialization (per-session stats cross the protocol boundary)
    # ------------------------------------------------------------------
    def to_dict(self, include_latencies: bool = True) -> dict:
        """A JSON-ready summary (plus raw samples unless opted out)."""
        data = {
            "count": self.count,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "average_seconds": self.average_seconds,
            "p50_seconds": self.percentile(0.50),
            "p95_seconds": self.percentile(0.95),
        }
        if include_latencies:
            data["latencies"] = list(self.latencies)
        return data
