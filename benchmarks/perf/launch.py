"""Host the benchmark's servers in child processes.

The load generator must not share a GIL with what it measures, so every
wire workload's server — a ``ThreadedSocketServer``, or a
``ProcessCluster`` (router thread + spawned workers) — lives in a
spawn-context child of the benchmark.  The parent gets the bound
address and the pid of every server-side process, reads their CPU and
peak RSS from ``/proc``, and always tears the whole tree down: the child
ignores SIGINT (Ctrl-C reaches only the parent, whose ``with`` block
then stops it), exits when the control pipe closes (parent died), and
any pid still alive after the graceful stop is SIGKILLed.  The benchmark
also adopts the tree's orphans and ends them all on its way out
(``adopt_orphans`` / ``end_every_child``), so a run leaves no process —
not even a zombie — behind.

Server code (dataset, service, cluster) is imported inside the child's
entry point only; importing this module pulls in none of it.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass

WORLD = dict(size=512, tile_size=32, days=1, seed=7)
_CLK_TCK = os.sysconf("SC_CLK_TCK")
BOOT_TIMEOUT_SECONDS = 120.0
STOP_TIMEOUT_SECONDS = 20.0


@dataclass(frozen=True)
class ServerSpec:
    """What the child hosts — picklable for the spawn context."""

    kind: str  # "socket" | "cluster"
    framing: str = "lines"
    push: bool = False
    sessions: int = 2
    world_size: int = WORLD["size"]


@functools.lru_cache(maxsize=2)
def build_world(size: int = WORLD["size"]):
    """The tile world every process of a run builds identically."""
    from repro.modis.dataset import MODISDataset

    return MODISDataset.build(**{**WORLD, "size": size})


def world_levels(size: int = WORLD["size"]) -> int:
    """Zoom levels of the world's pyramid (one tile at level 0)."""
    return (size // WORLD["tile_size"]).bit_length()


def momentum_engine_factory(grid):
    """Engine factory for the wire workloads (what cluster workers use)."""
    from repro.core.allocation import SingleModelStrategy
    from repro.core.engine import PredictionEngine
    from repro.recommenders.momentum import MomentumRecommender

    def factory():
        model = MomentumRecommender()
        return PredictionEngine(
            grid, {model.name: model}, SingleModelStrategy(model.name)
        )

    return factory


def service_config(push: bool = False, sessions: int = 1):
    """Sync prefetch, ``k=5``.  Servers of several sessions split the
    budget across them (the paper's multi-user scheme, Section 6.2):
    without it each request's prefetch cycle wipes the other session's
    predictions, and the hit rate becomes a function of how the two
    connections' requests happen to interleave (0.46 in lock-step, 0.90
    in bursts of three) instead of a property of the code."""
    from repro.middleware.config import PrefetchPolicy, ServiceConfig

    return ServiceConfig(
        prefetch=PrefetchPolicy(
            k=5, push="on" if push else "off", share_budget=sessions > 1
        )
    )


def serve(spec: ServerSpec, pipe) -> None:
    """Child entry point: boot the server, report, block until told to
    stop (or until the parent's end of the pipe closes)."""
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        config = service_config(spec.push, spec.sessions)
        if spec.kind == "cluster":
            from repro.middleware.cluster import ProcessCluster

            server = ProcessCluster(
                workers=2,
                config=config,
                framing=spec.framing,
                **{**WORLD, "size": spec.world_size},
            )
        else:
            from repro.middleware.net import ThreadedSocketServer

            pyramid = build_world(spec.world_size).pyramid
            server = ThreadedSocketServer(
                pyramid,
                config,
                engine_factory=momentum_engine_factory(pyramid.grid),
                framing=spec.framing,
            )
        server.start()
    except BaseException as exc:
        pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        raise
    try:
        pids = {"server": [os.getpid()]}
        if spec.kind == "cluster":
            pids = {
                "router": [os.getpid()],
                "worker": [process.pid for process in server.processes],
            }
        pipe.send(("ok", tuple(server.address), pids))
        try:
            pipe.recv()
        except EOFError:
            pass  # parent went away without saying stop
    finally:
        server.stop()


class Launcher:
    """Context manager around one hosted server.

    ``start()`` returns as soon as the child is spawned so the caller
    can build its own world while the child boots; ``wait_ready()``
    blocks for the address.  ``inline=True`` hosts the same entry point
    on a thread of this process instead (tests that cannot afford a
    spawn); the benchmark itself never uses it.
    """

    def __init__(self, spec: ServerSpec, *, inline: bool = False) -> None:
        self.spec = spec
        self.inline = inline
        self.address: tuple[str, int] | None = None
        #: role -> pids of every server-side process.
        self.pids: dict[str, list[int]] = {}
        self._pipe = None
        self._host = None

    def start(self) -> "Launcher":
        context = multiprocessing.get_context("spawn")
        self._pipe, child_end = context.Pipe()
        if self.inline:
            self._host = threading.Thread(
                target=serve, args=(self.spec, child_end), daemon=True
            )
        else:
            # Not a daemon: a cluster child spawns workers of its own.
            self._host = context.Process(
                target=serve, args=(self.spec, child_end)
            )
        self._host.start()
        if not self.inline:
            child_end.close()  # so EOF reaches us if the child dies
        return self

    def wait_ready(self) -> tuple[str, int]:
        if not self._pipe.poll(BOOT_TIMEOUT_SECONDS):
            raise RuntimeError("hosted server did not come up in time")
        try:
            status, *rest = self._pipe.recv()
        except EOFError:
            raise RuntimeError("hosted server died while booting") from None
        if status != "ok":
            raise RuntimeError(f"hosted server failed to boot: {rest[0]}")
        self.address, self.pids = rest
        if self.inline:
            self.pids = {}
        return self.address

    def all_pids(self) -> list[int]:
        return [pid for group in self.pids.values() for pid in group]

    def stop(self) -> None:
        if self._host is None:
            return
        try:
            self._pipe.send("stop")
        except OSError:
            pass  # child already gone
        self._host.join(STOP_TIMEOUT_SECONDS)
        if not self.inline:
            if self._host.is_alive():
                self._host.kill()
                self._host.join(STOP_TIMEOUT_SECONDS)
            # Workers are the child's children, not ours: make sure
            # none outlives a child that was killed or crashed.
            for pid in self.all_pids():
                if pid != self._host.pid:
                    _kill_and_wait(pid)
        self._pipe.close()
        self._host = None

    def __enter__(self) -> "Launcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def pin_to_one_cpu() -> int:
    """Confine this process, and so every process it starts from now on,
    to a single CPU (the last one it may use; returns it).

    The benchmark host has two virtual CPUs.  Left to the scheduler, a
    run's client and server either share one or sit on both, for the
    whole run, and a request that crosses CPUs pays an inter-processor
    wake-up each way, which a virtual machine makes slow: ``socket_binary``
    ran at ~540 or at ~800 requests/second and 2.5 or 1.8 ms, by the luck
    of the placement.  On one CPU nothing is left to luck, and throughput
    reads as what it is on so small a host: one over the CPU time a
    request costs client, server and kernel together."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def adopt_orphans() -> None:
    """Make this process the reaper of its whole tree.

    Not every descendant is a child: ``multiprocessing`` gives each
    process that spawns one a resource-tracker helper that only exits
    after its owner has, and a hosted cluster's workers belong to the
    hosting child.  Orphans normally go to init — which on a bare
    container may never reap them, leaving zombies behind the run.  With
    ``PR_SET_CHILD_SUBREAPER`` they come to this process instead, where
    :func:`end_every_child` can wait for them."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # 36 = PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def children_of(parent: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                # ppid is field 4, the second after the last ')'.
                ppid = int(handle.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # ended while we were looking
        if ppid == parent:
            found.append(int(entry))
    return found


def end_every_child() -> None:
    """SIGKILL and wait for every child of this process until it has
    none — adopted orphans included, and the orphans their death makes.
    For the way out of the benchmark, after every server was stopped
    gracefully: what is left then is helpers and strays."""
    while True:
        for pid in children_of(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return  # no child left


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            # A zombie still has a /proc entry; state is field 3.
            return handle.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except (OSError, IndexError):
        return False


def _kill_and_wait(pid: int) -> None:
    if not alive(pid):
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + STOP_TIMEOUT_SECONDS
    while alive(pid) and time.monotonic() < deadline:
        time.sleep(0.01)


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def cpu_seconds(pids) -> float:
    """user+sys CPU seconds consumed so far, summed over ``pids``."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            # comm may contain spaces; fields resume after the last ')'.
            fields = handle.read().rsplit(b")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / _CLK_TCK


def peak_rss_mb(pids) -> float:
    """Sum of each process's peak resident set (VmHWM), in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
