"""Sweep execution: run every grid cell, persisting one record per cell.

Each cell is executed through the real serving stack — the cell's
front end (the in-process facade, a socket server or a cluster router)
replaying the cell's workload through :func:`replay_walks`, the one
replay loop the figure replays and the hotspot benches run too — and its
result is written to ``<results_dir>/<cell_id>.json`` *immediately*.
An interrupted sweep therefore resumes by re-running only the missing
cells: a completed cell whose persisted parameters still match is
skipped and its file is left byte-for-byte untouched (the
skip-completed-simulations discipline of the ``MBradbury/slp`` runner).

Determinism: workloads are seeded, sessions replay sequentially, and
with the spec's ``settle`` flag every request drains the background
scheduler before the next one — so hit rates and the virtual-latency
percentiles are pure functions of the cell parameters.  Wall-clock
throughput is also recorded but is *physical* (the regression gate
treats it as warn-only).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path

from repro.core.engine import momentum_engine
from repro.experiments.sweep.spec import (
    FRONTENDS,
    SweepCell,
    SweepSpec,
    SweepSpecError,
)
from repro.middleware.config import (
    CacheConfig,
    PrefetchPolicy,
    ServiceConfig,
)
from repro.middleware.latency import LatencyRecorder
from repro.middleware.service import ForeCacheService
from repro.modis.dataset import MODISDataset
from repro.users.adversarial import adversarial_walks
from repro.users.convergent import convergent_walks
from repro.users.flashcrowd import flash_crowd_walks
from repro.users.study import run_study

#: Schema of one persisted cell record.
RESULT_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# shared expensive state (one dataset/study per parameter set)
# ----------------------------------------------------------------------
@lru_cache(maxsize=4)
def _dataset(size: int, tile_size: int, seed: int) -> MODISDataset:
    return MODISDataset.build(size=size, tile_size=tile_size, days=2, seed=seed)


@lru_cache(maxsize=8)
def _study_walks(
    size: int, tile_size: int, seed: int, users: int, max_requests: int
) -> tuple:
    dataset = _dataset(size, tile_size, seed)
    study = run_study(
        dataset, num_users=users, seed=seed, max_requests=max_requests
    )
    walks = []
    for trace in study.traces:
        walks.append(
            [(request.move, request.tile) for request in trace.requests]
        )
    return tuple(tuple(walk) for walk in walks)


def cell_walks(cell_params: dict, dataset: MODISDataset) -> list:
    """The cell's workload as replayable ``(move, key)`` walks."""
    grid = dataset.pyramid.grid
    workload = cell_params["workload"]
    users = cell_params["users"]
    seed = cell_params["seed"]
    steps = cell_params["steps"]
    if workload == "study":
        return [
            list(walk)
            for walk in _study_walks(
                cell_params["size"],
                cell_params["tile_size"],
                seed,
                users,
                cell_params["max_requests"],
            )
        ]
    if workload == "convergent":
        n = 1 << grid.deepest_level
        if n < 8:
            raise SweepSpecError(
                "the convergent workload needs >= 8 tiles per dimension "
                f"at the deepest level; size={cell_params['size']} with "
                f"tile_size={cell_params['tile_size']} gives {n}"
            )
        return convergent_walks(grid, num_users=users, leg=3, dwell=2)
    if workload == "adversarial":
        return adversarial_walks(grid, num_users=users, steps=steps, seed=seed)
    if workload == "flash_crowd":
        return flash_crowd_walks(
            grid,
            num_users=users,
            bursts=2,
            wander=max(2, steps // 6),
            dwell=2,
            seed=seed,
        )
    raise SweepSpecError(f"unknown workload {workload!r}")


def cell_config(cell_params: dict) -> ServiceConfig:
    """The cell's serving configuration."""
    k = cell_params["k"]
    return ServiceConfig(
        prefetch=PrefetchPolicy(
            k=k,
            mode=cell_params["prefetch_mode"],
            workers=cell_params["prefetch_workers"],
            shared_hotspots=cell_params["shared_hotspots"],
            hotspot_decay=cell_params["hotspot_decay"],
            hotspot_tick_every=cell_params["hotspot_tick_every"],
            push=cell_params["push"],
            push_budget_bytes=cell_params["push_budget_bytes"],
            push_max_inflight=cell_params["push_max_inflight"],
            fidelity=cell_params["fidelity"],
            shed_queue_depth=cell_params["shed_queue_depth"],
            shed_miss_streak=cell_params["shed_miss_streak"],
        ),
        cache=CacheConfig(
            recent_capacity=cell_params["recent_capacity"],
            prefetch_capacity=max(k, cell_params["prefetch_capacity"]),
            shards=cell_params["cache_shards"],
        ),
    )


# ----------------------------------------------------------------------
# walk replay: the one loop every measurement runs
# ----------------------------------------------------------------------
def replay_walks(
    pyramid,
    config: ServiceConfig,
    walks,
    engine_factory,
    *,
    frontend: str = "inprocess",
    workers: int = 2,
    settle: bool = False,
) -> tuple[list[LatencyRecorder], float, int]:
    """Replay each walk in its own session ``user-<i>``, one after another.

    ``frontend`` (one of :data:`FRONTENDS`) picks the one endpoint that
    serves every walk: the
    :class:`~repro.middleware.service.ForeCacheService` facade in
    process, a socket server over loopback TCP, or the router of a
    ``workers``-worker all-threads cluster.  The endpoint calls
    ``engine_factory()`` for each session it opens; a cluster opens each
    session on its owner only.  Latency is virtual, so the front end never
    moves a number.  With ``settle`` every request waits for its
    prefetch round on every service before the next one is sent.

    Returns one :class:`LatencyRecorder` per walk (recorded from the
    responses, as a client sees them), the wall-clock seconds of the
    replay, and the number of tiles the shared hotspot registries track.
    """
    if frontend not in FRONTENDS:
        raise ValueError(
            f"frontend must be one of {FRONTENDS}, got {frontend!r}"
        )
    if frontend == "inprocess":
        endpoint = ForeCacheService(
            pyramid, config, engine_factory=engine_factory
        )
    elif frontend == "socket":
        from repro.middleware.net import ThreadedSocketServer

        endpoint = ThreadedSocketServer(
            pyramid, config, engine_factory=engine_factory
        )
    else:
        from repro.middleware.cluster import ThreadedClusterServer

        endpoint = ThreadedClusterServer(
            pyramid, config, workers=workers, engine_factory=engine_factory
        )
    recorders = []
    with endpoint:
        if frontend == "inprocess":
            services = [endpoint]
            transport = contextlib.nullcontext()
            open_session = endpoint.open_session
        else:
            from repro.middleware.net import SocketTransport

            # The sync facades under the servers: the replay owns the
            # whole stack, so it drains them directly (drain is
            # thread-safe).  A session's prefetch rounds run on the one
            # worker the ring placed it on; idle workers drain at once.
            servers = endpoint.workers if frontend == "cluster" else [endpoint]
            services = [server.server.service.service for server in servers]
            transport = SocketTransport(
                *endpoint.address,
                pyramid=pyramid,
                push=config.prefetch.push_enabled,
            )
            open_session = transport.connect
        with transport:
            start = time.perf_counter()
            for index, walk in enumerate(walks):
                recorder = LatencyRecorder()
                session = open_session(session_id=f"user-{index + 1}")
                try:
                    for move, key in walk:
                        response = session.request(move, key)
                        recorder.record(response.latency_seconds, response.hit)
                        if settle:
                            if frontend != "inprocess":
                                # A local push hit returns before the
                                # server has seen its ack: wait for that
                                # round, or the drain races the prefetch
                                # it starts.
                                transport.settle()
                            for service in services:
                                service.drain()
                finally:
                    session.close()
                recorders.append(recorder)
            wall = time.perf_counter() - start
        tracked = sum(
            len(service.hotspot_registry)
            for service in services
            if service.hotspot_registry is not None
        )
    return recorders, wall, tracked


@dataclass(frozen=True)
class CellResult:
    """One executed (or reloaded) cell."""

    cell_id: str
    params: dict
    metrics: dict

    def to_record(self) -> dict:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "cell_id": self.cell_id,
            "params": self.params,
            "metrics": self.metrics,
        }

    @classmethod
    def from_record(cls, record: dict) -> "CellResult":
        return cls(
            cell_id=record["cell_id"],
            params=record["params"],
            metrics=record["metrics"],
        )


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one grid cell through the serving stack."""
    params = cell.params
    if params["push"] == "on" and params["frontend"] != "socket":
        raise SweepSpecError(
            "push is a socket-transport behavior; cells with push='on' "
            f"must fix frontend='socket', got {params['frontend']!r}"
        )
    if params["cluster_workers"] > 1 and params["frontend"] != "cluster":
        raise SweepSpecError(
            "sweeping cluster_workers needs the cluster front end; cells "
            "with cluster_workers > 1 must fix frontend='cluster', got "
            f"{params['frontend']!r}"
        )
    dataset = _dataset(params["size"], params["tile_size"], params["seed"])
    walks = cell_walks(params, dataset)
    config = cell_config(params)
    recorders, wall, tracked = replay_walks(
        dataset.pyramid,
        config,
        walks,
        partial(momentum_engine, dataset.pyramid.grid),
        frontend=params["frontend"],
        workers=params["cluster_workers"],
        settle=params["settle"] and config.prefetch.background,
    )
    recorder = LatencyRecorder()
    for walk_recorder in recorders:
        recorder.merge(walk_recorder)
    metrics = {
        "requests": recorder.count,
        "hits": recorder.hits,
        "hit_rate": recorder.hit_rate,
        "avg_ms": recorder.average_seconds * 1000.0,
        "p50_ms": recorder.percentile(0.50) * 1000.0,
        "p95_ms": recorder.percentile(0.95) * 1000.0,
        "p99_ms": recorder.percentile(0.99) * 1000.0,
        "wall_seconds": wall,
        "throughput_rps": (recorder.count / wall) if wall > 0 else 0.0,
        "registry_tiles": tracked,
    }
    return CellResult(cell_id=cell.cell_id, params=dict(params), metrics=metrics)


# ----------------------------------------------------------------------
# persistence + resume
# ----------------------------------------------------------------------
def cell_path(results_dir: str | Path, cell_id: str) -> Path:
    return Path(results_dir) / f"{cell_id}.json"


def load_cell_record(path: Path) -> dict | None:
    """The persisted record at ``path``, or None if unreadable/foreign."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if (
        not isinstance(record, dict)
        or record.get("schema_version") != RESULT_SCHEMA_VERSION
        or "params" not in record
        or "metrics" not in record
    ):
        return None
    return record


def write_cell_record(path: Path, record: dict) -> None:
    """Atomic write: a killed sweep never leaves a half-written cell."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    handle = tempfile.NamedTemporaryFile(
        "w",
        encoding="utf-8",
        dir=path.parent,
        prefix=f".{path.name}.",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(handle.name)
        raise


@dataclass
class SweepRunSummary:
    """What one ``run_sweep`` invocation did."""

    spec_name: str
    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    results: list[CellResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)


def run_sweep(
    spec: SweepSpec,
    results_dir: str | Path,
    force: bool = False,
    log=None,
    runner=run_cell,
) -> SweepRunSummary:
    """Run every cell of ``spec``, resuming over ``results_dir``.

    A cell whose record already exists with matching parameters is
    skipped (``force=True`` re-runs everything); each executed cell's
    record is persisted before the next cell starts, so an interrupted
    sweep loses at most the in-flight cell.  ``runner`` is injectable
    for tests.
    """
    results_dir = Path(results_dir)
    summary = SweepRunSummary(spec_name=spec.name)
    cells = spec.cells()
    for index, cell in enumerate(cells, start=1):
        path = cell_path(results_dir, cell.cell_id)
        if not force:
            record = load_cell_record(path)
            if record is not None and record["params"] == cell.params:
                summary.skipped.append(cell.cell_id)
                summary.results.append(CellResult.from_record(record))
                if log is not None:
                    log(f"[{index}/{len(cells)}] skip {cell.cell_id}")
                continue
        result = runner(cell)
        write_cell_record(path, result.to_record())
        summary.executed.append(cell.cell_id)
        summary.results.append(result)
        if log is not None:
            log(
                f"[{index}/{len(cells)}] ran  {cell.cell_id} "
                f"(hit_rate={result.metrics['hit_rate']:.3f}, "
                f"p95={result.metrics['p95_ms']:.1f}ms)"
            )
    return summary
