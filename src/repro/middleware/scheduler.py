"""Background prefetch scheduling with rank-aware fair admission.

The paper's central claim is that prefetching overlaps with the user's
*think time*: the middleware fetches the prediction engine's ordered
list ``P`` while the user studies the tile they just received, so
prefetch work never counts toward response latency.  The synchronous
server realizes that overlap only in virtual time; this module makes it
physical.  A :class:`PrefetchScheduler` owns a small worker pool that
drains an explicit priority queue:

- ``schedule()`` turns a prediction round into one :class:`PrefetchJob`
  per tile and pushes the jobs onto a shared heap;
- the heap is ordered by ``(rank, session deficit, generation)`` —
  every session's top-ranked prediction is fetched before anyone's
  low-rank tail, equally-ranked jobs favor the session the pool has
  served least (deficit round-robin), and among those the freshest
  round wins;
- each call supersedes the session's previous round — that session's
  generation counter is bumped, and a worker popping a job from an
  older generation drops it *at pop time*, so stale work never occupies
  a worker slot or touches the DBMS (*stale cancellation*);
- the actual tile loads go through
  :meth:`~repro.cache.manager.CacheManager.prefetch_one`, so jobs
  coalesce with concurrent user requests for the same tile and with
  other sessions' jobs.

Several sessions (a :class:`~repro.middleware.service.ForeCacheService`)
share one scheduler, one worker pool, and one cache: each session
cancels only its own stale work, while the coalescing table dedupes
across sessions.

Fairness is *deficit round-robin at round granularity*: the scheduler
counts jobs executed per session, and a job's fairness key is its
session's count at admission time, floored to the least-served active
session so a newcomer cannot monopolize the pool.  Rank dominates — a
busy session's rank-0 tile still beats an idle session's rank-5 tile —
because a top prediction is overwhelmingly more likely to be the next
request (Figure 12's accuracy↔latency line).

With a bound :class:`~repro.core.popularity.SharedHotspotRegistry`
(``PrefetchPolicy(shared_hotspots="boost")``) admission also consults
the *global* signal: a job whose tile is currently among the registry's
:data:`~repro.core.popularity.HOT_SET_SIZE` hottest gets its queue rank
boosted by :data:`HOT_RANK_STEPS`, because a globally popular tile pays
off even if this session's model ranked it low — some session will ask
for it, and the shared cache serves everyone.  The job's own ``rank`` is
untouched (it still reports the model's opinion); only the heap key
moves.
"""

from __future__ import annotations

import heapq
import threading
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.cache.manager import CacheManager
from repro.core.popularity import HOT_SET_SIZE, SharedHotspotRegistry
from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile

#: Job lifecycle states.
PENDING = "pending"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"

#: Queue-rank steps a globally hot tile jumps ahead of its model rank.
HOT_RANK_STEPS = 2

#: While shedding, a round admits only predictions ranked better than
#: this (rank 0 = the model's top prediction).
SHED_KEEP_RANKS = 2


@dataclass
class PrefetchJob:
    """One tile of one session's prefetch list, queued for a worker."""

    key: TileKey
    model: str
    rank: int
    session_id: Hashable
    generation: int
    state: str = PENDING
    tile: DataTile | None = field(default=None, repr=False)
    error: BaseException | None = field(default=None, repr=False)
    #: Position in the scheduler's global completion order (1-based),
    #: set when the job reaches ``DONE``.  Lets tests and benchmarks
    #: assert rank-priority without timestamping.
    finish_order: int | None = field(default=None, repr=False)


class PrefetchScheduler:
    """Runs prefetch lists on a worker pool, cancelling stale rounds.

    One instance serves any number of sessions.  All public methods are
    thread-safe.
    """

    def __init__(
        self,
        cache_manager: CacheManager,
        max_workers: int = 2,
        name: str = "prefetch",
        hotspot_registry: SharedHotspotRegistry | None = None,
        shed_queue_depth: int | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"worker pool needs >= 1 workers, got {max_workers}")
        if shed_queue_depth is not None and shed_queue_depth < 1:
            raise ValueError(
                f"shed_queue_depth must be >= 1, got {shed_queue_depth}"
            )
        self.cache_manager = cache_manager
        self.max_workers = max_workers
        self.hotspot_registry = hotspot_registry
        #: Overload shedding: once this many jobs are pending, a new
        #: round admits only its :data:`SHED_KEEP_RANKS` best-ranked
        #: tiles and drops the low-rank tail (None = never shed, the
        #: default — bit-identical to the pre-shedding scheduler).
        self.shed_queue_depth = shed_queue_depth
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        #: Heap of ``(sort_key, job)``; sort keys are unique (they end
        #: in an admission sequence number), so jobs are never compared.
        self._heap: list[tuple[tuple, PrefetchJob]] = []
        self._seq = 0
        self._finish_seq = 0
        # Generations are drawn from one global counter: a session's
        # entry maps to its latest round, and a popped entry (cancel)
        # matches no job.  Global uniqueness means a cancelled-then-
        # rescheduled session can never collide with its old jobs.
        self._next_generation = 0
        self._generation: dict[Hashable, int] = {}
        #: Deficit round-robin state: jobs this session has had executed.
        self._deficit: dict[Hashable, int] = {}
        self._pending = 0
        self._idle = threading.Event()
        self._idle.set()
        self._closed = False
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self.jobs_failed = 0
        self.jobs_shed = 0
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"{name}-{i}", daemon=True
            )
            for i in range(max_workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        predictions,
        session_id: Hashable = 0,
    ) -> list[PrefetchJob]:
        """Queue one session's new prefetch round, superseding its last.

        ``predictions`` is the ordered ``(tile, model)`` sequence of one
        round (:meth:`~repro.core.engine.PredictionResult.attributed_tiles`),
        rank 0 the most urgent.  The session's generation is bumped
        first, so queued jobs from its previous round become stale and
        are dropped by whichever worker pops them.  Returns the jobs,
        in priority order.
        """
        ranked = [
            (rank, key, model) for rank, (key, model) in enumerate(predictions)
        ]
        # One registry read per round, outside our lock (the registry
        # has its own striped locks): the hot set is a snapshot — jobs
        # queued this round keep the boost they were admitted with.
        hot: frozenset[TileKey] = frozenset()
        if self.hotspot_registry is not None:
            hot = frozenset(self.hotspot_registry.hot_keys(HOT_SET_SIZE))
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is shut down")
            self._next_generation += 1
            generation = self._next_generation
            # Floor the session's deficit to the least-served *other*
            # active session: a newcomer starts level with the pack
            # instead of at zero (which would let it starve long-running
            # sessions at equal rank until it "caught up").
            floor = min(
                (
                    self._deficit.get(s, 0)
                    for s in self._generation
                    if s != session_id
                ),
                default=0,
            )
            self._generation[session_id] = generation
            deficit = max(self._deficit.get(session_id, 0), floor)
            self._deficit[session_id] = deficit
            if (
                self.shed_queue_depth is not None
                and self._pending >= self.shed_queue_depth
            ):
                # Overloaded: the backlog already exceeds what the pool
                # can drain before this round goes stale, so queueing the
                # low-rank tail only adds pop-time cancellation work.
                # Keep the few predictions most likely to be the next
                # request; shed the rest *at admission*, before they ever
                # hold a heap slot.
                kept = [
                    entry for entry in ranked if entry[0] < SHED_KEEP_RANKS
                ]
                self.jobs_shed += len(ranked) - len(kept)
                ranked = kept
            jobs = [
                PrefetchJob(
                    key=key,
                    model=model,
                    rank=rank,
                    session_id=session_id,
                    generation=generation,
                )
                for rank, key, model in ranked
            ]
            for job in jobs:
                self._seq += 1
                rank = job.rank
                if job.key in hot:
                    rank = max(0, rank - HOT_RANK_STEPS)
                heapq.heappush(
                    self._heap, ((rank, deficit, -generation, self._seq), job)
                )
            self.jobs_submitted += len(jobs)
            self._pending += len(jobs)
            if self._pending:
                self._idle.clear()
            self._work.notify(len(jobs))
        return jobs

    @property
    def queue_depth(self) -> int:
        """Jobs queued or running right now (the overload load signal)."""
        with self._lock:
            return self._pending

    def cancel_session(self, session_id: Hashable) -> None:
        """Drop a session's queued jobs and forget the session.

        Queued jobs are cancelled lazily: with no generation entry to
        match, workers drop them at pop time without touching the DBMS.
        """
        with self._lock:
            self._generation.pop(session_id, None)
            self._deficit.pop(session_id, None)

    # ------------------------------------------------------------------
    # worker body
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._lock:
                while not self._heap and not self._closed:
                    self._work.wait()
                if not self._heap:
                    return  # closed, queue drained
                _, job = heapq.heappop(self._heap)
                if self._generation.get(job.session_id) != job.generation:
                    # Stale (superseded or cancelled session): dropped
                    # here, at pop time, so it never burns a worker slot.
                    job.state = CANCELLED
                    self.jobs_cancelled += 1
                    self._finish_one_locked()
                    continue
                self._deficit[job.session_id] = (
                    self._deficit.get(job.session_id, 0) + 1
                )
            try:
                job.tile = self.cache_manager.prefetch_one(job.key, job.model)
            except BaseException as exc:  # worker must survive any load error
                job.error = exc
                job.state = FAILED
                with self._lock:
                    self.jobs_failed += 1
                    self._finish_one_locked()
                continue
            with self._lock:
                self._finish_seq += 1
                job.finish_order = self._finish_seq
                job.state = DONE
                self.jobs_completed += 1
                self._finish_one_locked()

    def _finish_one_locked(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            self._idle.set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has run."""
        with self._lock:
            return self._closed

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every queued job has run (or been dropped).

        Returns False if ``timeout`` expired first.  Mainly for tests
        and benchmarks — live servers never need to drain.
        """
        return self._idle.wait(timeout)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool.  Idempotent.

        Queued jobs are cancelled — marked ``CANCELLED``, counted in
        ``jobs_cancelled``, and reconciled against the pending count, so
        no job is ever stranded ``PENDING`` and ``wait_idle`` observes a
        truthful drain.  Jobs already running finish; with ``wait=True``
        the workers are joined.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dropped = [job for _, job in self._heap]
            self._heap.clear()
            for job in dropped:
                job.state = CANCELLED
            self.jobs_cancelled += len(dropped)
            self._pending -= len(dropped)
            if self._pending == 0:
                self._idle.set()
            self._work.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "PrefetchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

