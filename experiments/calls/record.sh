#!/usr/bin/env bash
# Run what CI runs under the call recorder (sitecustomize.py beside this
# file), one record directory per suite, then report the functions
# under src/repro/ that nothing called or only the fast tier called
# (experiments/uncalled.py).  tests/test_uncalled.py checks that every
# script CI runs is run here too.
#
# Usage, from the repository root:
#   experiments/calls/record.sh [OUT_DIR]     # default .calls
#   experiments/calls/record.sh OUT_DIR report   # only re-read OUT_DIR
#
# The exit status is the report's.  A suite that fails under the
# recorder is noted and does not stop the run: its own CI job gates it.
set -u
cd "$(dirname "$0")/../.."
mkdir -p "${1:-.calls}"
out=$(cd "${1:-.calls}" && pwd)
export PYTHONPATH="$PWD/experiments/calls:$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

record() {
    local suite=$1
    shift
    mkdir -p "$out/$suite"
    REPRO_CALLS_DIR="$out/$suite" "$@" || echo "exit $? under the recorder: $*" >&2
}

if [ "${2:-}" != report ]; then
    rm -rf "$out/fast" "$out/bench" "$out/examples" "$out/perf" "$out/sweep" "$out/sweep-runs" \
        "$out/scoreboard"
    # The profiler must stay on while a benchmark runs: pytest-benchmark
    # switches it off around every timed call unless disabled.
    record fast python -m pytest -q -p no:cacheprovider --benchmark-disable
    REPRO_SIZE=256 REPRO_USERS=4 record bench \
        python -m pytest -q -p no:cacheprovider -m bench --benchmark-disable
    for args in \
        "--models momentum" \
        "--frontend inprocess --models momentum,markov3" \
        "--frontend cluster --models momentum,markov3" \
        "--frontend inprocess --models momentum --prefetch-mode background" \
        "--frontend inprocess --models momentum,hotspot --prefetch-mode background --shared-hotspots boost" \
        "--frontend socket --models momentum"; do
        # shellcheck disable=SC2086
        REPRO_SIZE=256 REPRO_USERS=4 record examples python examples/modis_exploration.py $args
    done
    REPRO_SIZE=256 REPRO_USERS=4 record examples python examples/parameter_sweep.py
    for example in examples/quickstart.py examples/timeseries_browsing.py examples/trace_analysis.py; do
        REPRO_SIZE=256 REPRO_USERS=4 record examples python "$example"
    done
    for args in \
        "--framing lines" "--framing length" "--framing length --payload binary" \
        "--payload mixed" "--framing lines --push" "--framing length --push --payload binary" \
        "--framing length --push --fidelity progressive"; do
        # shellcheck disable=SC2086
        REPRO_SIZE=256 REPRO_USERS=4 record examples python examples/socket_serving.py $args
    done
    for args in "" "--payload binary --push" "--framing length --push" "--kill-worker"; do
        # shellcheck disable=SC2086
        record examples python -W error::RuntimeWarning examples/cluster_serving.py --workers 2 $args
    done
    record examples python experiments/backend_loads.py
    record examples python -m repro.users --out "$out/users.jsonl" --size 256 --users 2
    # Both the end-to-end run and the traced per-layer run of each.
    for workload in facade_study socket_json socket_binary socket_push cluster_binary; do
        for trace in 0 1; do
            record perf python benchmarks/perf/run.py --workload "$workload" --seconds 2 --trace "$trace"
        done
    done
    # CI's bench-trajectory job: every grid in full, snapshotted and
    # compared against its committed baseline.
    for grid in ci:benchmarks/trajectory ci-push:benchmarks/trajectory/push \
        ci-overload:benchmarks/trajectory/overload ci-cluster:benchmarks/trajectory/cluster; do
        spec=${grid%%:*}
        record sweep python experiments/sweep.py run --spec "$spec" --results-dir "$out/sweep-runs/$spec"
        record sweep python experiments/sweep.py snapshot --spec "$spec" \
            --results-dir "$out/sweep-runs/$spec" --out-dir "$out/sweep-runs/$spec-snapshot"
        record sweep python experiments/sweep.py compare --baseline "${grid#*:}" \
            --current "$out/sweep-runs/$spec-snapshot" --markdown
    done
    # The test job's summary scripts, each timing at one run.
    record scoreboard python experiments/scoreboard.py
    record scoreboard python experiments/world_build.py --runs 1
    record scoreboard python experiments/sift_cost.py --runs 1
    record scoreboard python experiments/sift_cost.py --boot
    record scoreboard python experiments/fetch_cost.py --heap
    record scoreboard python experiments/round_cost.py
    record scoreboard python experiments/cycle_cost.py
fi
python experiments/uncalled.py "$out/fast" "$out/bench" "$out/examples" "$out/perf" \
    "$out/sweep" "$out/scoreboard"
