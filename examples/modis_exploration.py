"""Full study-scale scenario: simulated scientists exploring snow cover.

Run with::

    python examples/modis_exploration.py [--size 1024] [--users 8]
        [--frontend inprocess|socket|cluster] [--models momentum,hybrid]
        [--prefetch-mode sync|background] [--shared-hotspots off|observe|boost]

Reproduces the paper's evaluation loop end to end: build the NDSI
dataset, run a simulated user study over the three search tasks, train
every model with leave-one-user-out cross validation, and print
per-phase accuracy plus replayed latency — the content of Figures 11
and 13.

``--frontend`` chooses who serves the latency replay, from the sweep's
front-end axis (``repro.experiments.sweep.spec.FRONTENDS``): the
``ForeCacheService`` facade in process (``inprocess``, the default), the
real TCP socket transport replaying over loopback (``socket``), or a
2-worker cluster behind the consistent-hash router (``cluster``) — all
three must (and do) produce identical virtual-time numbers.
``--prefetch-mode background`` routes every prefetch round through the
rank-aware priority scheduler's worker pool instead of the inline sync
path (a smoke path for the concurrent serving stack; latency numbers
then depend on physical timing).
``--shared-hotspots`` turns on the cross-session popularity model
(``observe`` collects the signal, ``boost`` also acts on it — live
hotspot recommenders plus scheduler rank boost); ``off``/``observe``
leave every number bit-identical.  ``REPRO_SIZE`` / ``REPRO_USERS``
environment variables downscale the world (CI smoke runs use them).
"""

import argparse
import os

from repro.experiments.context import ExperimentContext
from repro.experiments.crossval import evaluate_engine_cv
from repro.experiments.report import Table
from repro.experiments.runner import hybrid_factory, replay_model_latency
from repro.experiments.sweep.spec import FRONTENDS
from repro.middleware.config import PREFETCH_MODES, SHARED_HOTSPOT_MODES
from repro.phases.model import ALL_PHASES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--size", type=int, default=int(os.environ.get("REPRO_SIZE", "1024"))
    )
    parser.add_argument(
        "--users", type=int, default=int(os.environ.get("REPRO_USERS", "8"))
    )
    parser.add_argument(
        "--frontend",
        choices=FRONTENDS,
        default="inprocess",
        help="serving front end for the latency replay",
    )
    parser.add_argument(
        "--models",
        default="momentum,hotspot,markov3,hybrid",
        help="comma-separated subset of models to evaluate",
    )
    parser.add_argument(
        "--prefetch-mode",
        choices=PREFETCH_MODES,
        default="sync",
        help="who executes prefetch rounds during the latency replay",
    )
    parser.add_argument(
        "--shared-hotspots",
        choices=SHARED_HOTSPOT_MODES,
        default="off",
        help="cross-session popularity sharing during the latency replay",
    )
    args = parser.parse_args()

    print(f"building context: {args.size}px world, {args.users} users...")
    context = ExperimentContext.build(size=args.size, num_users=args.users)
    study = context.study
    print(f"  {len(study)} traces, {study.total_requests()} requests")

    ks = (1, 3, 5, 8)
    all_factories = {
        "momentum": context.momentum_engine,
        "hotspot": context.hotspot_engine,
        "markov3": lambda tr: context.markov_engine(tr, 3),
        "hybrid": hybrid_factory(context),
    }
    selected = [name.strip() for name in args.models.split(",") if name.strip()]
    unknown = sorted(set(selected) - set(all_factories))
    if unknown:
        parser.error(f"unknown models {unknown}; choose from {sorted(all_factories)}")
    factories = {name: all_factories[name] for name in selected}

    print("\nevaluating models (leave-one-user-out)...")
    results = {}
    for name, factory in factories.items():
        results[name] = evaluate_engine_cv(study, factory, ks)
        print(f"  {name} done")

    accuracy_table = Table(
        ["model"] + [f"k={k}" for k in ks], title="\nOverall prediction accuracy"
    )
    for name, result in results.items():
        accuracy_table.add_row(name, *(result.accuracy(k) for k in ks))
    print(accuracy_table)

    for phase in ALL_PHASES:
        phase_table = Table(
            ["model"] + [f"k={k}" for k in ks],
            title=f"\nAccuracy — {phase.value}",
        )
        for name, result in results.items():
            phase_table.add_row(name, *(result.accuracy(k, phase) for k in ks))
        print(phase_table)

    print(
        f"\nreplaying latency at k=5 (virtual clock, "
        f"{args.frontend} front end, {args.prefetch_mode} prefetch, "
        f"shared hotspots {args.shared_hotspots})..."
    )
    latency_table = Table(["model", "avg_latency_ms"], title="")
    for name, factory in factories.items():
        recorder = replay_model_latency(
            context,
            factory,
            k=5,
            frontend=args.frontend,
            prefetch_mode=args.prefetch_mode,
            shared_hotspots=args.shared_hotspots,
        )
        latency_table.add_row(name, recorder.average_seconds * 1000.0)
    latency_table.add_row("(no prefetching)", 984.0)
    print(latency_table)


if __name__ == "__main__":
    main()
