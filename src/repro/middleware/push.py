"""Continuous push prefetch: the server streams ranked tiles to clients.

ForeCache as published is pull-only — prediction quality is capped by
whether the *next* request happens to hit the warmed middleware cache.
Khameleon's insight is to invert the loop: after every request the
server keeps streaming its top-ranked predicted tiles into a
client-side cache as unsolicited ``push_tile`` frames, under a shared
downstream budget, so prediction quality converts directly into
response time (a push hit never touches the wire again).

Two pieces live here, one per side of the connection:

- :class:`PushScheduler` — the server-side allocator.  One scheduler
  serves every live push session of a socket server and splits a shared
  downstream byte budget fairly across them.  Within a session, each
  request starts a new *round* (generation): the prediction list is
  turned into :class:`PushJob` entries ordered by utility
  (rank-decayed confidence × hotspot boost), deduplicated against
  everything the client already holds (its acked digest) or has in
  flight (pushed, not yet acked).  A new round cancels whatever the
  previous round still had queued — exactly the generation discipline of
  :class:`~repro.middleware.scheduler.PrefetchScheduler`.  The
  scheduler is *driven by* the event loop (the socket server calls it
  between awaits) and does no locking or I/O of its own; all methods
  are synchronous and deterministic.

- :class:`PushCache` — the client-side bounded LRU holding pushed
  tiles.  The session clients consult it before touching the wire; a
  hit is answered locally at zero virtual latency and reported to the
  server via ``push_ack`` so the server's engine still observes the
  move.  Its ``digest()`` is the authoritative held-tiles list the
  client attaches to every request.

Neither class touches sockets, threads, or the service — they are pure
state machines, which is what makes push delivery deterministic enough
for the conformance suite and the perf-trajectory gate to pin.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.popularity import HOT_SET_SIZE, SharedHotspotRegistry
from repro.middleware.protocol import TileRef
from repro.tiles.key import TileKey
from repro.tiles.reduce import COARSE_REDUCTION
from repro.tiles.tile import DataTile

#: Cache-attribution label for tiles loaded on the push path (shows up
#: in cache stats next to the per-model prefetch attributions).
PUSH_MODEL = "push"

#: Per-rank geometric confidence decay: the model's best guess gets
#: utility 1.0, the next 0.8, then 0.64, ...  Chosen to keep several
#: ranks in contention rather than collapsing onto rank 0.
CONFIDENCE_DECAY = 0.8

#: Confidence multiplier of a globally hot tile: a hot rank-1 job
#: (0.8 × 3.0) outranks a cold rank-0 one (1.0).
HOT_CONFIDENCE_FACTOR = 3.0


@dataclass(frozen=True)
class PushJob:
    """One queued push: a predicted tile and its scheduling facts."""

    session_id: str
    key: TileKey
    model: str
    #: Rank in the prediction round that produced it (0 = best).
    rank: int
    #: The session's push generation when the job was queued.
    generation: int
    utility: float
    #: Linear resolution fraction the streamed frame should carry
    #: (1.0 = the full tile; < 1.0 = a coarse stand-in the client will
    #: hold until a refinement frame upgrades it).
    fidelity: float = 1.0


@dataclass
class _PushSession:
    """Server-side push state of one live session."""

    generation: int = 0
    #: Tiles the client's last digest confirmed it holds.
    held: set[TileKey] = field(default_factory=set)
    #: Pushed this connection, not yet confirmed by a digest: key ->
    #: frame bytes (counts against ``max_inflight``).
    unacked: dict[TileKey, int] = field(default_factory=dict)
    #: Tiles whose *latest* streamed frame was coarse — refinement
    #: candidates the dedup must not swallow (progressive mode only).
    coarse: set[TileKey] = field(default_factory=set)
    #: Jobs of the current round still waiting to be streamed.
    queued: list[PushJob] = field(default_factory=list)
    #: Bytes streamed in the current round (reset by ``begin_round``).
    round_bytes: int = 0
    #: The session's fair-share byte allowance, snapshotted when its
    #: round begins — sessions joining or leaving mid-round must not
    #: silently change what this round may still stream.
    allowance: int = 0


class PushScheduler:
    """Allocates a shared downstream push budget across live sessions.

    The budget is *per round*: every request's round may stream at most
    ``budget_bytes // live_sessions`` bytes to its session (fair share
    of the downstream pipe), and a session may never have more than
    ``max_inflight`` pushed-but-unacked tiles outstanding.  The caller
    drives the loop::

        scheduler.acknowledge(sid, digest)         # from the request
        scheduler.begin_round(sid, predictions)    # new generation
        while (job := scheduler.next_job(sid)) is not None:
            frame = ...load + encode...
            if not scheduler.commit(job, len(frame)):
                break                              # round budget spent
            ...stream frame...

    Everything is synchronous and deterministic — same inputs, same
    pushes, regardless of how connections interleave between calls.
    """

    def __init__(
        self,
        budget_bytes: int,
        max_inflight: int,
        *,
        hotspot_registry: SharedHotspotRegistry | None = None,
        progressive: bool = False,
    ) -> None:
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.budget_bytes = budget_bytes
        self.max_inflight = max_inflight
        self.hotspot_registry = hotspot_registry
        #: Fidelity-aware rounds: queue a coarse frame per predicted
        #: tile first (downsampled by
        #: :data:`~repro.tiles.reduce.COARSE_REDUCTION` per axis), then
        #: spend leftover budget on full-fidelity refinement frames.
        self.progressive = progressive
        self._sessions: dict[str, _PushSession] = {}
        # counters (monotonic; exposed via stats())
        self.rounds = 0
        self.pushed_tiles = 0
        self.pushed_bytes = 0
        self.cancelled_jobs = 0
        self.deduped_jobs = 0
        self.deferred_jobs = 0
        self.skipped_oversize = 0
        self.coarse_tiles = 0
        self.refined_tiles = 0

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def open_session(self, session_id: str) -> None:
        """Register a live push session (joins the fair share)."""
        sid = str(session_id)
        if sid not in self._sessions:
            self._sessions[sid] = _PushSession()
            # A usable snapshot before the first round (direct-commit
            # callers); refreshed by every begin_round.
            self._sessions[sid].allowance = self.allowance_bytes()

    def forget_session(self, session_id: str) -> None:
        """Drop a departed session and everything it had queued or in
        flight.  Idempotent — a mid-push disconnect calls this from the
        connection's cleanup path."""
        state = self._sessions.pop(str(session_id), None)
        if state is not None:
            self.cancelled_jobs += len(state.queued)

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    def has_session(self, session_id: str) -> bool:
        return str(session_id) in self._sessions

    # ------------------------------------------------------------------
    # the push loop
    # ------------------------------------------------------------------
    def allowance_bytes(self) -> int:
        """One session's *current* fair share of the round budget.

        Live value — what a round starting now would be granted.  The
        budget a round actually charges against is the snapshot taken
        by :meth:`begin_round`, so sessions joining or leaving mid-round
        cannot move an in-progress round's goalposts.
        """
        return self.budget_bytes // max(1, len(self._sessions))

    def acknowledge(self, session_id: str, held) -> None:
        """Absorb the client's digest: ``held`` is authoritative.

        Every unacked tile is settled — confirmed tiles move to the
        held set, tiles the digest *lacks* were evicted client-side and
        become pushable again.  Unknown sessions are ignored (a stale
        ack racing a disconnect must not resurrect state).
        """
        state = self._sessions.get(str(session_id))
        if state is None:
            return
        state.held = set(held)
        state.unacked.clear()
        # A coarse tile the client no longer holds needs no refinement.
        state.coarse &= state.held

    def begin_round(self, session_id: str, predictions) -> int:
        """Start a new push round from a prediction list.

        Bumps the session's generation — whatever the previous round
        still had queued is cancelled (the new observation invalidated
        it) — and queues utility-ordered jobs for every predicted tile
        the client neither holds nor has in flight.  Returns the number
        of jobs queued.  ``predictions`` is the engine's attributed
        ranking: ``[(TileKey, model), ...]``, best first.

        In progressive mode every fresh prediction queues *two* jobs —
        a coarse stand-in first, a full-fidelity refinement after — and
        the coarse phase of the whole round precedes the refinement
        phase, so the budget covers every predicted tile at low
        resolution before it polishes any of them.  A tile the client
        already holds *coarse* queues a refinement only (the dedup must
        not swallow the upgrade).
        """
        state = self._sessions.get(str(session_id))
        if state is None:
            raise KeyError(f"push session {session_id!r} is not registered")
        self.cancelled_jobs += len(state.queued)
        state.queued = []
        state.round_bytes = 0
        state.allowance = self.allowance_bytes()
        state.generation += 1
        self.rounds += 1
        hot: frozenset[TileKey] = frozenset()
        if self.hotspot_registry is not None:
            hot = frozenset(self.hotspot_registry.hot_keys(HOT_SET_SIZE))
        coarse_fidelity = 1.0 / COARSE_REDUCTION
        jobs: list[PushJob] = []
        refinements: list[PushJob] = []
        seen: set[TileKey] = set()
        for rank, (key, model) in enumerate(predictions):
            if key in seen:
                continue
            seen.add(key)

            def job(fidelity: float) -> PushJob:
                return PushJob(
                    session_id=str(session_id),
                    key=key,
                    model=model,
                    rank=rank,
                    generation=state.generation,
                    utility=self._utility(key, rank, hot),
                    fidelity=fidelity,
                )

            if key in state.held or key in state.unacked:
                if self.progressive and key in state.coarse:
                    refinements.append(job(1.0))
                    continue
                self.deduped_jobs += 1
                continue
            if self.progressive:
                jobs.append(job(coarse_fidelity))
                refinements.append(job(1.0))
            else:
                jobs.append(job(1.0))
        # Utility descending within each phase; rank then key break ties
        # deterministically.
        order = lambda job: (-job.utility, job.rank, job.key)  # noqa: E731
        jobs.sort(key=order)
        refinements.sort(key=order)
        state.queued = jobs + refinements
        return len(state.queued)

    def _utility(self, key: TileKey, rank: int, hot: frozenset[TileKey]) -> float:
        confidence = CONFIDENCE_DECAY**rank
        if key in hot:
            confidence *= HOT_CONFIDENCE_FACTOR
        return confidence

    def next_job(self, session_id: str) -> PushJob | None:
        """The round's next streamable job, or None when the session's
        in-flight cap (or queue) is exhausted."""
        state = self._sessions.get(str(session_id))
        if state is None or not state.queued:
            return None
        if len(state.unacked) >= self.max_inflight:
            # A refinement of a tile already in flight re-uses its
            # unacked slot, so it may stream past the cap.  (Outside
            # progressive mode begin_round dedups queued jobs against
            # unacked, so this scan never matches.)
            for index, job in enumerate(state.queued):
                if job.key in state.unacked:
                    return state.queued.pop(index)
            return None
        return state.queued.pop(0)

    def commit(self, job: PushJob, frame_bytes: int) -> bool:
        """Account one encoded push frame against the round's budget.

        Returns True when the frame fits the session's fair share (the
        caller streams it; the tile becomes in-flight), False when the
        round's budget is spent (the caller stops the round; the job is
        counted as deferred — the *next* round will re-rank the tile if
        the model still wants it).

        ``frame_bytes`` is the size of the frame *as encoded for this
        connection* — on a negotiated-binary connection push frames are
        several times smaller than their JSON form, so the same byte
        budget streams proportionally more tiles per round.

        The budget charged is the allowance *snapshotted* when the
        round began: a session opening or closing mid-round changes the
        next round's fair share, never this round's remaining bytes.
        """
        state = self._sessions.get(job.session_id)
        if state is None:
            return False
        if state.round_bytes + frame_bytes > state.allowance:
            self.deferred_jobs += 1
            return False
        state.round_bytes += frame_bytes
        state.unacked[job.key] = frame_bytes
        if job.fidelity < 1.0:
            state.coarse.add(job.key)
            self.coarse_tiles += 1
        else:
            if job.key in state.coarse:
                state.coarse.discard(job.key)
                self.refined_tiles += 1
        self.pushed_tiles += 1
        self.pushed_bytes += frame_bytes
        return True

    def reject(self, job: PushJob) -> None:
        """Drop an unstreamable job (e.g. its frame exceeds the frame
        limit) without charging the budget."""
        self.deferred_jobs += 1

    def skip_oversize(self, job: PushJob, frame_bytes: int) -> bool:
        """True when this frame exceeds the round's *whole* allowance.

        Such a job could never pass :meth:`commit` — not this round, not
        any round at this session count — so re-queueing it as deferred
        would make it clog the head of every future round.  The caller
        should skip it (dropping it for good) and move on to the next
        job, which may well fit.
        """
        state = self._sessions.get(job.session_id)
        if state is None:
            return True
        if frame_bytes > state.allowance:
            self.skipped_oversize += 1
            return True
        return False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def queued_jobs(self, session_id: str) -> int:
        state = self._sessions.get(str(session_id))
        return len(state.queued) if state is not None else 0

    def inflight_tiles(self, session_id: str) -> int:
        state = self._sessions.get(str(session_id))
        return len(state.unacked) if state is not None else 0

    def generation(self, session_id: str) -> int:
        state = self._sessions.get(str(session_id))
        return state.generation if state is not None else 0

    def stats(self) -> dict:
        """A counters snapshot (diagnostics, tests, the example)."""
        return {
            "sessions": len(self._sessions),
            "rounds": self.rounds,
            "pushed_tiles": self.pushed_tiles,
            "pushed_bytes": self.pushed_bytes,
            "cancelled_jobs": self.cancelled_jobs,
            "deduped_jobs": self.deduped_jobs,
            "deferred_jobs": self.deferred_jobs,
            "skipped_oversize": self.skipped_oversize,
            "coarse_tiles": self.coarse_tiles,
            "refined_tiles": self.refined_tiles,
        }


class PushCache:
    """The client-side bounded LRU of server-pushed tiles.

    ``get`` answers a request locally (and promotes the tile); ``put``
    admits a pushed tile, evicting the least-recently-useful one beyond
    ``capacity``.  The digest — the held tiles in key order — is what
    the client reports to the server as its held set, so eviction here
    is automatically reconciled server-side (an evicted tile becomes
    pushable again); it is kept sorted, as wire references, while tiles
    arrive and leave, so reporting it (:meth:`held`) sorts nothing.

    Progressive push streams a tile twice: a coarse stand-in first, a
    full-resolution refinement later.  ``put`` upgrades a held tile in
    place when the incoming frame carries *better* fidelity and ignores
    downgrades (a stale coarse frame must never clobber a full tile).
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # key -> (tile, fidelity held at, wire reference), in LRU order;
        # and the same references in key order: the digest.
        self._held: OrderedDict[TileKey, tuple] = OrderedDict()
        self._digest: list[TileRef] = []
        self.hits = 0
        self.misses = 0
        self.pushed = 0
        self.evicted = 0
        self.upgraded = 0
        self.downgrades_ignored = 0

    def put(self, tile: DataTile, fidelity: float = 1.0) -> None:
        """Admit one pushed tile (refreshes recency on re-push).

        A held tile is replaced only by equal-or-better fidelity; an
        improving replacement counts as an in-place *upgrade*.
        """
        key = tile.key
        entry = self._held.get(key)
        if entry is None:
            ref = TileRef.from_key(key)
            bisect.insort(self._digest, ref)
        else:
            _, held, ref = entry
            if fidelity < held:
                self.downgrades_ignored += 1
                return
            if fidelity > held:
                self.upgraded += 1
            self._held.move_to_end(key)
        self._held[key] = (tile, fidelity, ref)
        self.pushed += 1
        while len(self._held) > self.capacity:
            _, (_, _, ref) = self._held.popitem(last=False)
            del self._digest[bisect.bisect_left(self._digest, ref)]
            self.evicted += 1

    def probe(self, key: TileKey) -> "tuple[DataTile, float, TileRef] | None":
        """What is held for ``key`` (promoted): the tile, the fidelity
        it is held at now and its wire reference — or None."""
        entry = self._held.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._held.move_to_end(key)
        self.hits += 1
        return entry

    def get(self, key: TileKey) -> DataTile | None:
        """The held tile for ``key`` (promoted), or None."""
        entry = self.probe(key)
        return entry[0] if entry is not None else None

    def fidelity(self, key: TileKey) -> float:
        """Fidelity of the held tile for ``key`` (1.0 when not held)."""
        entry = self._held.get(key)
        return entry[1] if entry is not None else 1.0

    def held(self) -> tuple[TileRef, ...]:
        """The digest as a request carries it (``held``)."""
        return tuple(self._digest)

    def digest(self) -> list[TileKey]:
        """The held keys as ``sorted()`` gives them (nothing sorted)."""
        return [ref.to_key() for ref in self._digest]

    def clear(self) -> None:
        self._held.clear()
        self._digest.clear()

    def __contains__(self, key: TileKey) -> bool:
        return key in self._held

    def __len__(self) -> int:
        return len(self._held)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
