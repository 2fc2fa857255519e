"""The repo's wall-clock benchmark.

    python benchmarks/perf/run.py --seed 7              # all five workloads
    python benchmarks/perf/run.py --seed 7 --trace      # the per-layer run
    python benchmarks/perf/run.py --repeat 5            # medians + spreads
    python benchmarks/perf/run.py --workload socket_binary --seed 3 \\
        --seconds 10 --trace 0                          # one contract run

Every metric is printed as ``<workload> <metric> <value> <unit>``; the
last line of a single-workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md beside this
file for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

#: Set-up is timed from here: before any import of the library.
START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
for entry in (str(SRC), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import launch  # noqa: E402
import live  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
from loadgen import percentile  # noqa: E402
from workloads import WORKLOADS, requests_of, take, wire_cycles  # noqa: E402

OUT = HERE / "out"
DEFAULT_SECONDS = 10
TRACED_REQUESTS = 1000

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "lat_p50_ms": "ms",
    "hit_rate": "share",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric, emitted on every workload; one whose layer
#: does no work on a workload reads 0 there.
PER_LAYER_UNITS = {
    "protocol.encode_request_us": "us",
    "protocol.decode_request_us": "us",
    "protocol.encode_response_us": "us",
    "protocol.decode_response_us": "us",
    "protocol.frame_feed_us": "us",
    "protocol.response_bytes": "B",
    "net.rtt_residual_us": "us",
    "net.bytes_per_req": "B",
    "net.bytes_sent_per_req": "B",
    "net.connect_ms": "ms",
    "net.client_cpu_ms_per_req": "ms",
    "cluster.ring_owner_us": "us",
    "cluster.relay_us": "us",
    "cluster.hop_overhead_us": "us",
    "cluster.router_cpu_ms_per_req": "ms",
    "cluster.worker_cpu_ms_per_req": "ms",
    "cluster.worker_skew": "ratio",
    "service.request_us": "us",
    "service.self_us": "us",
    "service.hit_us": "us",
    "service.miss_us": "us",
    "core.observe_us": "us",
    "core.predict_us": "us",
    "core.predict_calls": "count",
    "cache.fetch_hit_us": "us",
    "cache.fetch_miss_us": "us",
    "cache.prefetch_us": "us",
    "cache.hit_rate": "share",
    "cache.lru_get_us": "us",
    "cache.lru_put_us": "us",
    "tiles.fetch_tile_us": "us",
    "arraydb.execute_us": "us",
    "tiles.fetch_calls_per_req": "ratio",
    "push.local_hit_share": "share",
    "push.frames_per_req": "ratio",
    "push.bytes_per_req": "B",
    "push.useful_share": "share",
    "push.round_us": "us",
    "scheduler.drain_jobs_per_s": "1/s",
    "loadgen.raw_setup_s": "s",
    "loadgen.raw_throughput_rps": "req/s",
    "loadgen.raw_lat_p50_ms": "ms",
    "loadgen.server_cpu_ms_per_req": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.lat_p90_ms": "ms",
    "loadgen.lat_p99_ms": "ms",
    "loadgen.lat_samples": "count",
    "loadgen.hi_lat_p90_ms": "ms",
    "loadgen.hi_backlog_max": "count",
    "loadgen.slo_rate_rps": "req/s",
    "loadgen.trace_overhead_share": "share",
    "loadgen.calib_us": "us",
}


@dataclass
class Outcome:
    """What one run reports."""

    metrics: dict  # name -> value
    units: dict  # name -> unit
    attempted: int
    failed: int
    correct: bool


# ----------------------------------------------------------------------
# the end-to-end run
# ----------------------------------------------------------------------
def end_to_end_run(workload, seed: int, seconds: float, **options) -> Outcome:
    result = live.live_run(
        workload, seed, live.Plan.end_to_end(seconds), START, **options
    )
    closed = live.merged(result.closed)
    metrics = {
        "setup_s": result.setup_s(),
        "throughput_rps": result.throughput_rps(),
        "lat_p50_ms": result.latency_ms(0.5),
        "hit_rate": sum(closed.hit) / len(closed.done),
        "peak_rss_mb": result.peak_rss_mb,
    }
    return Outcome(
        metrics, END_TO_END_UNITS, result.attempted, result.failed, result.correct
    )


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
@contextlib.contextmanager
def replay_target(workload, seed: int, count: int, tracer=None, study=None):
    """What the stage replay drives: yields ``(handle, requests,
    services, pyramid, ring)`` where ``handle(call, move, key)`` runs one
    request through every stage of the workload's front end.  With a
    tracer, the instances built here get their span wrappers."""
    if workload.server is None:
        with live.facade_frontend(workload, seed, study) as frontend:
            if tracer is not None:
                tracing.wrap_engine(tracer, frontend.engine)
                tracing.wrap_service(tracer, frontend.services[0])
            serve = frontend.handlers[0]
            try:
                yield (
                    lambda call, m, k: (call("service.request", serve, m, k), 0),
                    take(frontend.streams[0], count),
                    frontend.services[:1],
                    frontend.pyramid,
                    None,
                )
            finally:
                if tracer is not None:
                    tracer.unwrap_all()
        return

    from repro.middleware.cluster import ConsistentHashRing
    from repro.middleware.service import ForeCacheService

    pyramid = launch.build_world(workload.server.world_size).pyramid
    config = launch.service_config(workload.push, workload.connections)
    factory = launch.momentum_engine_factory(pyramid.grid)
    if tracer is not None:
        factory = tracing.wrap_engine_factory(tracer, factory)
    cluster = workload.server.kind == "cluster"
    nodes = ["worker-0", "worker-1"] if cluster else [None]
    ring = (
        ConsistentHashRing(
            nodes, replicas=config.ring_replicas, seed=config.ring_seed
        )
        if cluster
        else None
    )
    sessions = [f"bench-{i}" for i in range(workload.connections)]
    with contextlib.ExitStack() as stack:
        services = {
            node: stack.enter_context(
                ForeCacheService(pyramid, config, engine_factory=factory)
            )
            for node in nodes
        }
        for service in services.values():
            # The router opens every session on every worker.
            for session_id in sessions:
                service.open_session(None, session_id)
            if tracer is not None:
                tracing.wrap_service(tracer, service)
        stages = [tracing.WireStages(workload, services, ring) for _ in sessions]
        streams = [
            requests_of(cycle)
            for cycle in wire_cycles(pyramid.grid, seed, len(sessions))
        ]
        # The connections' streams interleave, as two live clients do.
        order = [i % len(sessions) for i in range(count)]
        requests = [next(streams[i]) for i in order]
        turn = iter(order)

        def handle(call, move, key):
            i = next(turn)
            return stages[i].request(call, sessions[i], move, key)

        try:
            yield handle, requests, list(services.values()), pyramid, ring
        finally:
            if tracer is not None:
                tracer.unwrap_all()


def med(values) -> float:
    return median(values) if values else 0.0


def stage_metrics(workload, seed: int, count: int, study=None):
    """The stage replay of the stream's first ``count`` requests,
    untraced then traced.  Returns the per-layer metrics it yields,
    requests attempted and failed, whether the span file's self times
    account for the stage totals, and the world's pyramid."""
    with replay_target(workload, seed, count, study=study) as (
        handle, requests, *_,
    ):
        untraced = tracing.replay(tracing.direct, handle, requests)
    tracer = tracing.Tracer()
    with replay_target(workload, seed, count, tracer, study) as (
        handle, requests, services, pyramid, ring,
    ):
        rows = tracing.replay(tracer.call, handle, requests, tracer)
        wrong = loadgen.deep_check(
            [(key, row[2].tile) for (_, key), row in zip(requests, rows)],
            pyramid,
        )
        cache_requests = sum(s.cache_manager.requests for s in services)
        cache_hits = sum(s.cache_manager.hits for s in services)
        owners = [ring.owner(key) for _, key in requests] if ring else []
    tracer.write(
        OUT / f"trace_{workload.name}.json",
        workload=workload.name,
        seed=seed,
        requests=len(requests),
    )

    spans = tracer.durations_us()
    own = tracer.self_times_us()
    hits = [row[1] for row in rows]

    def by_hit(name: str, hit: bool) -> list[float]:
        """Durations of the one-per-request span ``name``, by outcome."""
        return [d for d, h in zip(spans[name], hits) if h == hit]

    metrics = {
        "protocol.encode_request_us": med(spans["protocol.encode_request"]),
        "protocol.decode_request_us": med(spans["protocol.decode_request"]),
        "protocol.encode_response_us": med(spans["protocol.encode_response"]),
        "protocol.decode_response_us": med(spans["protocol.decode_response"]),
        "protocol.frame_feed_us": med(spans["protocol.frame_feed"]),
        "protocol.response_bytes": med([row[3] for row in rows if row[3]]),
        "cluster.ring_owner_us": med(spans["cluster.ring_owner"]),
        "cluster.relay_us": med(spans["cluster.relay"]),
        "cluster.worker_skew": (
            max(owners.count(n) for n in ring.nodes) * len(ring) / len(owners)
            if ring
            else 0.0
        ),
        "service.request_us": med(spans["service.request"]),
        "service.self_us": med(
            [o for o, s in zip(own, tracer.spans) if s[0] == "service.request"]
        ),
        "service.hit_us": med(by_hit("service.request", True)),
        "service.miss_us": med(by_hit("service.request", False)),
        "core.observe_us": med(spans["core.observe"]),
        "core.predict_us": med(spans["core.predict"]),
        "core.predict_calls": len(spans["core.predict"]),
        "cache.fetch_hit_us": med(by_hit("cache.fetch", True)),
        "cache.fetch_miss_us": med(by_hit("cache.fetch", False)),
        "cache.prefetch_us": med(spans["cache.prefetch"]),
        "cache.hit_rate": cache_hits / cache_requests,
        "tiles.fetch_tile_us": med(spans["tiles.fetch_tile"]),
        "arraydb.execute_us": med(spans["arraydb.execute"]),
        "tiles.fetch_calls_per_req": len(spans["tiles.fetch_tile"]) / len(rows),
        "loadgen.trace_overhead_share": (
            median(row[0] for row in rows)
            / median(row[0] for row in untraced)
            - 1.0
        ),
    }
    # Self times of a request's spans sum to its root span; what the
    # root does not hand to a stage is the replay loop's own glue, which
    # must stay a small share for the breakdown to mean anything.
    roots = {i for i, span in enumerate(tracer.spans) if span[0] == "request"}
    staged = sum(
        (end - start) for _, start, end, parent, _ in tracer.spans
        if parent in roots
    )
    total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    covered = staged >= 0.9 * total
    return metrics, 2 * len(requests), wrong, covered, pyramid


def traced_run(
    workload, seed: int, seconds: float, requests: int = TRACED_REQUESTS, **options
) -> Outcome:
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    result = live.live_run(
        workload,
        seed,
        live.Plan.traced(seconds),
        START,
        record_pushes=workload.push,
        **options,
    )
    staged, replayed, wrong, covered, pyramid = stage_metrics(
        workload, seed, requests, options.get("study")
    )
    metrics.update(staged)

    baseline_correct = True
    counted = result.counters
    closed = live.merged(result.closed)
    served = len(closed.done)
    closed_p50_us = percentile(closed.latencies, 0.5) * 1e6
    if workload.server is not None:
        metrics.update(
            {
                "net.rtt_residual_us": closed_p50_us
                - sum(
                    metrics[name]
                    for name in (
                        "service.request_us",
                        "protocol.encode_request_us",
                        "protocol.decode_request_us",
                        "protocol.encode_response_us",
                        "protocol.decode_response_us",
                    )
                ),
                "net.bytes_per_req": counted["received"] / served,
                "net.bytes_sent_per_req": counted["sent"] / served,
                "net.connect_ms": result.connect_ms,
                "net.client_cpu_ms_per_req": counted["client_cpu"] * 1e3 / served,
            }
        )
    if "cpu.router" in counted:
        baseline = live.live_run(
            WORKLOADS["socket_binary"],
            seed,
            live.Plan(closed=live.Plan.traced(seconds).closed, open=0.0),
            START,
            **options,
        )
        metrics.update(
            {
                "cluster.hop_overhead_us": closed_p50_us
                - percentile(live.merged(baseline.closed).latencies, 0.5) * 1e6,
                "cluster.router_cpu_ms_per_req": counted["cpu.router"]
                * 1e3
                / served,
                "cluster.worker_cpu_ms_per_req": counted["cpu.worker"]
                * 1e3
                / served,
            }
        )
        baseline_correct = baseline.correct
    if workload.push:
        metrics.update(
            {
                "push.local_hit_share": counted["push_hits"] / served,
                "push.frames_per_req": counted["push_frames"] / served,
                "push.bytes_per_req": push_frame_bytes(
                    result.pushed_keys, pyramid
                )
                / served,
                "push.useful_share": counted["push_hits"]
                / max(1, counted["push_frames"]),
            }
        )

    opened, hi = live.merged(result.open), live.merged(result.hi)
    metrics.update(
        {
            "loadgen.raw_setup_s": result.setup_s(calibrated=False),
            "loadgen.raw_throughput_rps": result.throughput_rps(calibrated=False),
            "loadgen.raw_lat_p50_ms": result.latency_ms(0.5, calibrated=False),
            "loadgen.server_cpu_ms_per_req": med(result.cpu_ms_per_req),
            "loadgen.late_p99_ms": percentile(opened.lateness, 0.99) * 1e3,
            "loadgen.lat_p90_ms": result.latency_ms(0.9, calibrated=False),
            "loadgen.lat_p99_ms": percentile(opened.latencies, 0.99) * 1e3,
            "loadgen.lat_samples": len(opened.done),
            "loadgen.hi_lat_p90_ms": percentile(hi.latencies, 0.9) * 1e3,
            "loadgen.hi_backlog_max": max(hi.backlog),
            "loadgen.slo_rate_rps": max(
                [
                    rate
                    for rate, phase in (
                        (workload.rate_lo, opened),
                        (workload.rate_hi, hi),
                    )
                    if sustained(phase, workload.p90_limit_ms)
                ],
                default=0.0,
            ),
        }
    )

    get_us, put_us = tracing.lru_microbench(pyramid)
    metrics.update(
        {
            "cache.lru_get_us": get_us,
            "cache.lru_put_us": put_us,
            "push.round_us": tracing.push_round_microbench(pyramid),
            "scheduler.drain_jobs_per_s": tracing.scheduler_microbench(pyramid),
            "loadgen.calib_us": median(s for _, s in result.calibrations) * 1e6,
        }
    )
    return Outcome(
        metrics,
        PER_LAYER_UNITS,
        result.attempted + replayed,
        result.failed + wrong,
        result.correct and baseline_correct and wrong == 0 and covered,
    )


def sustained(phase, p90_limit_ms: float) -> bool:
    """Did an open phase hold its rate: nothing failed, p90 within the
    limit, and no backlog left standing over its last fifth?"""
    if phase.failed:
        return False
    in_time = [b for _, b in sorted(zip(phase.due, phase.backlog))]
    tail = in_time[-max(1, len(in_time) // 5) :]
    return (
        percentile(phase.latencies, 0.9) * 1e3 <= p90_limit_ms
        and median(tail) <= 1
    )


def push_frame_bytes(keys, pyramid) -> int:
    """Wire bytes of the push frames that carried ``keys``: each distinct
    tile re-encoded once, after the run, as the server frames it."""
    from repro.middleware.protocol import (
        PushTile,
        TilePayload,
        TileRef,
        encode_wire,
    )

    sizes = {
        key: len(
            encode_wire(
                PushTile(
                    session_id="session-1",
                    tile=TileRef.from_key(key),
                    rank=0,
                    generation=1,
                    utility=1.0,
                    payload=TilePayload.from_tile(
                        pyramid.fetch_tile(key, charge=False), binary=True
                    ),
                ),
                "binary",
            )
        )
        for key in set(keys)
    }
    return sum(sizes[key] for key in keys)


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def report(workload_name: str, outcome: Outcome) -> dict:
    """Print one run's metrics; returns the contract's result object."""
    for name, value in outcome.metrics.items():
        print(f"{workload_name} {name} {value:.6g} {outcome.units[name]}")
    print(
        f"{workload_name} error_share "
        f"{outcome.failed / max(1, outcome.attempted):.6g} share"
    )
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": outcome.units[name]}
            for name, value in outcome.metrics.items()
        },
    }


def run_set(names, seed: int, seconds: int, trace: int) -> dict:
    """Every named workload once, each in its own interpreter (so one
    workload's memory and caches never colour the next).  Returns
    workload -> result object."""
    results = {}
    for name in names:
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=600,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"{name}: run exited with {done.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return results


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / median(values)


def repeat_sets(names, seed: int, seconds: int, trace: int, repeat: int) -> int:
    """``repeat`` full sets; prints each metric's median and spread and
    fails if an end-to-end spread exceeds the bound BENCHMARK.json sets."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    sets = [run_set(names, seed, seconds, trace) for _ in range(repeat)]
    status = 0
    summary = {}
    for name in names:
        for metric, first in sets[0][name]["metrics"].items():
            values = [s[name]["metrics"][metric]["value"] for s in sets]
            middle = median(values)
            wide = spread(values) if middle and len(values) > 1 else 0.0
            bound = bounds.get(metric) if not trace else None
            verdict = ""
            if bound is not None and metric != "setup_s" and wide > bound:
                verdict = f"  SPREAD EXCEEDS BOUND {bound}"
                status = 1
            print(
                f"{name} {metric} median {middle:.6g} {first['unit']} "
                f"spread {wide:.4f}{verdict}"
            )
            summary[f"{name}.{metric}"] = {
                "median": middle, "spread": wide, "unit": first["unit"],
            }
        if not all(s[name]["correct"] for s in sets):
            print(f"{name}: a run failed its output check")
            status = 1
    write_results("repeat", seed, seconds, trace, summary)
    return status


def write_results(kind: str, seed: int, seconds: int, trace: int, body) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{kind}_{'layers' if trace else 'end_to_end'}.json"
    environment = {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "seed": seed,
        "seconds": seconds,
    }
    path.write_text(
        json.dumps({"environment": environment, "results": body}, indent=1)
    )
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 = the per-layer run (stage replay with spans + live counters)",
    )
    parser.add_argument(
        "--repeat", type=int, default=0,
        help="run N full sets and report each metric's median and spread",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"the library is not at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.workload and not args.repeat:
        workload = WORKLOADS[args.workload]
        run = traced_run if args.trace else end_to_end_run
        result = report(workload.name, run(workload, args.seed, args.seconds))
        sys.stdout.flush()
        print(json.dumps(result))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeat:
        return repeat_sets(names, args.seed, args.seconds, args.trace, args.repeat)
    results = run_set(names, args.seed, args.seconds, args.trace)
    write_results("run", args.seed, args.seconds, args.trace, results)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    # Every process this run starts — servers, their workers,
    # multiprocessing's helpers — has ended before it exits.
    launch.adopt_orphans()
    launch.pin_to_one_cpu()
    # A polite kill takes the same way out as Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        status = main()
        sys.stdout.flush()
    finally:
        launch.end_every_child()
    sys.exit(status)
