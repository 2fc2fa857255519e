"""Frozen configuration for the serving layer.

The facade (:class:`~repro.middleware.service.ForeCacheService`) is
constructed from three small value objects:

- :class:`CacheConfig` — shape of the two-region middleware cache, its
  lock striping (``shards``), and the emulated backend delay,
- :class:`PrefetchPolicy` — how the prediction engine's list ``P`` is
  executed (budget, sync vs. background, worker pool, fair sharing),
- :class:`ServiceConfig` — the two above plus each serving endpoint's
  address, frame budget, payload grants and cluster ring.

All three are frozen dataclasses: validation happens once, at
construction, and a config can be shared between services, logged, or
serialized without defensive copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.middleware.protocol import DEFAULT_MAX_FRAME_BYTES, check_payloads
from repro.tiles.pyramid import TilePyramid

#: Who executes the prefetch list: the request call itself ("sync", the
#: paper's virtual-time arithmetic) or a background worker pool
#: ("background", physical think-time overlap).
PREFETCH_MODES = ("sync", "background")

#: Cross-session popularity sharing:
#: - "off"      — no shared registry at all (the default; replays and
#:   figure numerics are bit-identical to the isolated-prediction
#:   behavior),
#: - "observe"  — every session's requests feed one
#:   :class:`~repro.core.popularity.SharedHotspotRegistry`, but nothing
#:   consults it yet (collect the signal, change no behavior — a canary
#:   step),
#: - "boost"    — observe, plus the signal is *acted on*: live
#:   :class:`~repro.recommenders.hotspot.HotspotRecommender` instances
#:   re-read the registry's top-N on every prediction, and the
#:   background scheduler boosts the queue rank of globally hot tiles.
SHARED_HOTSPOT_MODES = ("off", "observe", "boost")

#: Continuous push prefetch (Khameleon-style):
#: - "off" — pull-only; the wire protocol, replies, and figure numerics
#:   are bit-identical to the pre-push serving stack,
#: - "on"  — the socket server streams top-ranked predicted tiles as
#:   unsolicited ``push_tile`` frames into each negotiated client's
#:   :class:`~repro.middleware.push.PushCache`, budgeted by
#:   ``push_budget_bytes`` / ``push_max_inflight``.  In-process front
#:   ends ignore the knob (push is a transport-layer behavior).
PUSH_MODES = ("off", "on")

#: Progressive multi-resolution fidelity + overload load shedding:
#: - "off"         — every response is the full-resolution tile and no
#:   prefetch work is ever shed; replies, wire bytes, and figure
#:   numerics are bit-identical to the pre-fidelity serving stack,
#: - "progressive" — under overload (deep prefetch queue / a streak of
#:   in-flight backend misses) the service answers from a cached
#:   ancestor at reduced fidelity instead of queueing behind the
#:   backend, the background scheduler sheds low-rank prefetch jobs,
#:   and the push scheduler streams a coarse frame first and spends
#:   leftover round budget on full-fidelity refinement frames.
FIDELITY_MODES = ("off", "progressive")


@dataclass(frozen=True)
class CacheConfig:
    """Shape of the middleware tile cache (Section 3)."""

    #: LRU slots for tiles the user actually requested.
    recent_capacity: int = 10
    #: Slots refilled from the prediction engine's list ``P``.
    prefetch_capacity: int = 9
    #: Real seconds each backend query sleeps (throughput benchmarks).
    backend_delay_seconds: float = 0.0
    #: Hash-striped lock segments of the tile cache, each holding its
    #: prefetch slots and in-flight loads.  1 (the default) keeps the
    #: single-lock semantics the sync figure benchmarks replay; raise it
    #: so many concurrent sessions stop serializing on one mutex.
    shards: int = 1

    def __post_init__(self) -> None:
        if self.recent_capacity < 1:
            raise ValueError(
                f"recent_capacity must be >= 1, got {self.recent_capacity}"
            )
        if self.prefetch_capacity < 1:
            raise ValueError(
                f"prefetch_capacity must be >= 1, got {self.prefetch_capacity}"
            )
        if self.backend_delay_seconds < 0:
            raise ValueError(
                "backend_delay_seconds must be >= 0, got"
                f" {self.backend_delay_seconds}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    def build_cache_manager(self, pyramid: TilePyramid) -> CacheManager:
        """Materialize a cache manager of this shape over ``pyramid``."""
        return CacheManager(
            pyramid,
            TileCache(
                recent_capacity=self.recent_capacity,
                prefetch_capacity=self.prefetch_capacity,
                shards=self.shards,
            ),
            backend_delay_seconds=self.backend_delay_seconds,
        )


@dataclass(frozen=True)
class PrefetchPolicy:
    """How prefetching behaves for every session of a service."""

    #: Total prefetch budget ``k`` (tiles per prediction round).
    k: int = 5
    #: Master switch; a disabled policy observes but never predicts.
    enabled: bool = True
    #: "sync" or "background" (:data:`PREFETCH_MODES`).
    mode: str = "sync"
    #: Worker threads when ``mode == "background"``.
    workers: int = 2
    #: Split ``k`` fairly across open sessions (the multi-user scheme of
    #: Section 6.2) instead of granting each session the full budget.
    share_budget: bool = False
    #: Cross-session popularity sharing: "off", "observe", or "boost"
    #: (:data:`SHARED_HOTSPOT_MODES`).
    shared_hotspots: str = "off"
    #: Per-tick decay factor of the shared registry's counts (1.0 keeps
    #: counts forever; lower values make hotspots track recent traffic).
    #: Ticks are virtual: set ``hotspot_tick_every`` (or call
    #: ``service.hotspot_registry.advance()`` yourself) or decay < 1
    #: never fires.
    hotspot_decay: float = 1.0
    #: Advance the registry's decay tick once every N served requests
    #: (0 = never; the owner drives the tick explicitly).  Request-count
    #: ticks keep replays deterministic where wall-clock ticks cannot.
    hotspot_tick_every: int = 0
    #: Continuous push prefetch: "off" or "on" (:data:`PUSH_MODES`).
    #: Only the socket server acts on it — and only for clients that
    #: negotiated the ``push`` capability in their hello.
    push: str = "off"
    #: Shared downstream budget one push round may stream, split fairly
    #: across all live push sessions (bytes of encoded frames).
    push_budget_bytes: int = 256 * 1024
    #: Per-session cap on pushed-but-unacknowledged tiles in flight.
    push_max_inflight: int = 4
    #: Progressive fidelity + load shedding: "off" or "progressive"
    #: (:data:`FIDELITY_MODES`).
    fidelity: str = "off"
    #: Overload trips when the background prefetch queue depth plus the
    #: cache manager's in-flight backend loads reaches this many jobs.
    shed_queue_depth: int = 32
    #: Overload also trips after this many *consecutive* full-price
    #: backend misses on the request path (0 = disabled; the queue-depth
    #: signal alone decides).  Deterministic under ``settle`` replays,
    #: unlike physical queue occupancy.
    shed_miss_streak: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.mode not in PREFETCH_MODES:
            raise ValueError(
                f"mode must be one of {PREFETCH_MODES}, got {self.mode!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.shared_hotspots not in SHARED_HOTSPOT_MODES:
            raise ValueError(
                f"shared_hotspots must be one of {SHARED_HOTSPOT_MODES}, "
                f"got {self.shared_hotspots!r}"
            )
        if not 0.0 < self.hotspot_decay <= 1.0:
            raise ValueError(
                f"hotspot_decay must be in (0, 1], got {self.hotspot_decay}"
            )
        if self.hotspot_tick_every < 0:
            raise ValueError(
                f"hotspot_tick_every must be >= 0, got"
                f" {self.hotspot_tick_every}"
            )
        if self.push not in PUSH_MODES:
            raise ValueError(
                f"push must be one of {PUSH_MODES}, got {self.push!r}"
            )
        if self.push_budget_bytes < 1024:
            # Below one small frame the budget can never stream anything.
            raise ValueError(
                f"push_budget_bytes must be >= 1024, got"
                f" {self.push_budget_bytes}"
            )
        if self.push_max_inflight < 1:
            raise ValueError(
                f"push_max_inflight must be >= 1, got"
                f" {self.push_max_inflight}"
            )
        if self.fidelity not in FIDELITY_MODES:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_MODES}, got"
                f" {self.fidelity!r}"
            )
        if self.shed_queue_depth < 1:
            raise ValueError(
                f"shed_queue_depth must be >= 1, got {self.shed_queue_depth}"
            )
        if self.shed_miss_streak < 0:
            raise ValueError(
                f"shed_miss_streak must be >= 0, got {self.shed_miss_streak}"
            )

    @property
    def background(self) -> bool:
        return self.mode == "background"

    @property
    def push_enabled(self) -> bool:
        """True when the socket server should offer the push capability."""
        return self.push == "on"

    @property
    def fidelity_enabled(self) -> bool:
        """True when degraded serving / load shedding may kick in."""
        return self.fidelity == "progressive"

    @property
    def shares_hotspots(self) -> bool:
        """True when sessions feed the shared popularity registry."""
        return self.shared_hotspots != "off"

    @property
    def hotspots_live(self) -> bool:
        """True when the shared popularity signal steers behavior."""
        return self.shared_hotspots == "boost"


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`ForeCacheService` needs beyond the pyramid,
    and everything a serving endpoint — socket server, cluster router,
    cluster harness — is configured by.  This is the only place those
    settings are set: no endpoint constructor overrides them."""

    prefetch: PrefetchPolicy = field(default_factory=PrefetchPolicy)
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: Interface a socket server or cluster router binds.
    bind_host: str = "127.0.0.1"
    #: Port it binds (0 = ephemeral, OS-assigned).  A cluster's router
    #: binds this one; its workers bind ephemeral ports of their own.
    bind_port: int = 0
    #: Per-frame size ceiling an endpoint accepts and advertises —
    #: bounds what one peer can make it buffer before the frame is
    #: rejected.
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Payload encodings an endpoint will grant in the hello/welcome
    #: handshake (:data:`~repro.middleware.protocol.PAYLOADS`).  The
    #: default offers both; drop "binary" to force every connection onto
    #: the JSON-compatible wire.  "json" is mandatory — it is the
    #: fallback every client can speak.
    payloads: tuple[str, ...] = ("json", "binary")
    #: Cluster mode: virtual ring points per worker on the consistent-
    #: hash ring the router places sessions on.  More replicas smooth
    #: the partition (each worker owns many small arcs instead of one
    #: big one) at the cost of a larger sorted ring; 64 keeps the
    #: per-worker share of a large session population within a few
    #: percent of 1/N.
    ring_replicas: int = 64
    #: Cluster mode: seed mixed into every ring hash.  The ring is a
    #: pure function of (seed, worker ids, replicas), so routers sharing
    #: a seed agree on which worker a session lives on, across
    #: processes and restarts.
    ring_seed: int = 0

    def __post_init__(self) -> None:
        # Capacity-vs-budget fit is NOT checked here: the serving cache
        # may be an injected manager rather than one built from
        # ``cache``, so the service validates the cache actually in use.
        if not 0 <= self.bind_port <= 65535:
            raise ValueError(
                f"bind_port must be in [0, 65535], got {self.bind_port}"
            )
        if self.max_frame_bytes < 4096:
            # Below this even a payload-less response cannot fit.
            raise ValueError(
                f"max_frame_bytes must be >= 4096, got {self.max_frame_bytes}"
            )
        check_payloads(self.payloads)
        if self.ring_replicas < 1:
            raise ValueError(
                f"ring_replicas must be >= 1, got {self.ring_replicas}"
            )
