"""Fast-tier smoke test of the wall-clock benchmark (``benchmarks/perf``).

Tiny runs on a small world: they check that every metric BENCHMARK.json
declares is emitted, by name and with its unit, that outputs verify, and
that the open-loop clock charges a stall to the requests queued behind
it.  Numbers are not asserted — that is what the benchmark itself is for.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

import launch
import loadgen
import run
from workloads import WORKLOADS

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL_WORLD = 256
SMALL_STUDY = dict(size=SMALL_WORLD, num_users=3)


def small(name: str):
    """The workload on a small world, with its open phases sped up to
    0.8x capacity so that one cycle takes well under a second."""
    workload = WORKLOADS[name]
    fast = 0.8 * workload.capacity_rps
    server = workload.server and dataclasses.replace(
        workload.server, world_size=SMALL_WORLD
    )
    return dataclasses.replace(
        workload, server=server, rate_lo=fast, rate_hi=fast
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_requests_due_behind_it():
    clock = FakeClock()
    served = []

    def handle(move, key):
        # 1 ms of service, except request 10, which stalls for 50 ms.
        clock.now += 0.050 if key == 10 else 0.001
        served.append(key)
        return SimpleNamespace(tile=SimpleNamespace(key=key), hit=True)

    samples = loadgen.open_loop(
        handle,
        [(None, index) for index in range(40)],
        period=0.010,
        first_due=0.0,
        deadline=100.0,
        clock=clock,
        sleep=clock.sleep,
    )
    latency = samples.latencies
    assert served == list(range(40)) and samples.failed == 0
    assert latency[:10] == pytest.approx([0.001] * 10)
    assert latency[10] == pytest.approx(0.050)
    # Request 11 was due at 0.11 s but could only leave at 0.15 s: it is
    # charged the 40 ms it queued; the backlog then drains 9 ms a request.
    assert latency[11:16] == pytest.approx([0.041, 0.032, 0.023, 0.014, 0.005])
    assert latency[16:] == pytest.approx([0.001] * 24)
    # Timed from *send* — the coordinated-omission reading — the stall
    # would be invisible to everything behind it.
    from_send = [d - s for s, d in zip(samples.sent, samples.done)]
    assert from_send[11:16] == pytest.approx([0.001] * 5)
    assert loadgen.percentile(samples.lateness, 0.99) == pytest.approx(0.040)
    assert max(samples.backlog) == 4


def test_open_loop_counts_unsent_requests_as_failed():
    clock = FakeClock()

    def handle(move, key):
        clock.now += 0.030  # three periods per request: cannot keep up
        return SimpleNamespace(tile=SimpleNamespace(key=key), hit=False)

    samples = loadgen.open_loop(
        handle,
        [(None, index) for index in range(20)],
        period=0.010,
        first_due=0.0,
        deadline=0.3,
        clock=clock,
        sleep=clock.sleep,
    )
    assert samples.attempted == 20
    assert len(samples.done) == 10 and samples.failed == 10


def test_a_cycle_is_scaled_by_the_yardstick_samples_taken_beside_it():
    reference = loadgen.Yardstick.REFERENCE_SECONDS
    # The host ran at reference speed until t=10, then twice as slow.
    samples = [(t, reference if t < 10 else 2 * reference) for t in range(20)]
    assert loadgen.host_slowdown(samples, 2.0, 5.0) == pytest.approx(1.0)
    assert loadgen.host_slowdown(samples, 12.5, 15.5) == pytest.approx(2.0)
    # No sample inside the interval: the nearest one stands in.
    assert loadgen.host_slowdown(samples, 10.6, 10.9) == pytest.approx(2.0)
    # Two cycles of two requests, the second on the slow host at half
    # the speed: as measured they differ, calibrated they agree.
    part = loadgen.Samples(
        sent=[1.0, 2.0, 11.0, 13.0], done=[2.0, 3.0, 13.0, 15.0]
    )
    raw = run.live.over_cycles([part], [2], run.live.seconds_per_request)
    scaled = run.live.over_cycles(
        [part], [2], run.live.seconds_per_request, samples
    )
    assert raw == pytest.approx([1.0, 2.0])
    assert scaled == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("name", ["facade_study", "socket_binary"])
def test_every_declared_metric_is_emitted(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run.live, "HELD_OUT_USERS", (1,))  # a shorter cycle
    monkeypatch.setattr(run.live, "REPLAY_CHECK_REQUESTS", 150)
    options = dict(inline=True, study=SMALL_STUDY)
    outcomes = {
        "end_to_end": run.end_to_end_run(
            small(name), seed=3, seconds=1, **options
        ),
        "per_layer": run.traced_run(
            small(name), seed=3, seconds=1, requests=60, **options
        ),
    }
    for section, outcome in outcomes.items():
        assert outcome.correct and outcome.failed == 0
        assert outcome.attempted > 0
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        assert set(outcome.metrics) == set(declared)
        for metric, value in outcome.metrics.items():
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", metric)
            assert outcome.units[metric] == declared[metric]
            assert isinstance(value, (int, float)) and value == value
    spans = json.loads((tmp_path / f"trace_{name}.json").read_text())
    assert spans["fields"] == list(run.tracing.SPAN_FIELDS)
    assert {row[0] for row in spans["spans"]} >= {"request", "service.request"}


def test_workloads_match_the_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert DECLARED["paths"] == ["benchmarks/perf"]


def test_launcher_hosts_a_server_in_a_child_and_leaves_no_process_behind():
    spec = dataclasses.replace(
        WORKLOADS["socket_binary"].server, world_size=SMALL_WORLD
    )
    with launch.Launcher(spec) as server:
        host, port = server.wait_ready()
        pids = server.all_pids()
        assert port > 0 and pids and launch.cpu_seconds(pids) >= 0.0
        assert launch.peak_rss_mb(pids) > 0.0
    assert not any(launch.alive(pid) for pid in pids)


ORPHAN_SCRIPT = """
import os, subprocess, sys
import launch
launch.adopt_orphans()
# A child that starts a long-lived grandchild and exits at once: the
# grandchild is an orphan no Popen object of ours knows about.
child = subprocess.run(
    [sys.executable, "-c",
     "import subprocess, sys; print(subprocess.Popen("
     "[sys.executable, '-c', 'import time; time.sleep(600)'],"
     "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).pid)"],
    capture_output=True, text=True, check=True,
)
orphan = int(child.stdout)
assert launch.children_of(os.getpid()) == [orphan]
launch.end_every_child()
print(orphan)
"""


def test_end_every_child_ends_adopted_orphans_too():
    done = subprocess.run(
        [sys.executable, "-c", ORPHAN_SCRIPT],
        capture_output=True, text=True, check=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(run.HERE)},
    )
    # Reaped, not merely dead: no /proc entry, not even a zombie's.
    assert not os.path.exists(f"/proc/{int(done.stdout)}")
