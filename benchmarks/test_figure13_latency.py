"""Figure 13 / Section 5.5: average response times per model and k.

Paper at k=5: hybrid 185 ms vs Momentum 349 ms and Hotspot 360 ms; a
430% improvement over the 984 ms no-prefetching baseline and 88% over
Momentum.  Shapes to reproduce: the hybrid's curve sits below the
baselines for k >= 3, and the improvement factors are of the same
order.
"""

from conftest import is_full_scale, print_report

from repro.experiments.latency import figure13_violations
from repro.experiments.runner import run_figure13

import pytest

pytestmark = pytest.mark.bench


def test_figure13_latency(context, latency_points, benchmark):
    points, _ = latency_points
    table, comparison = benchmark.pedantic(
        lambda: run_figure13(points), rounds=1, iterations=1
    )
    print_report(table, comparison)
    ks = [int(header[len("k="):]) for header in table.headers[1:]]
    by_model = {
        row[0]: dict(zip(ks, map(float, row[1:]))) for row in table.rows
    }
    measured = {metric: float(value) for metric, _, value in comparison.rows}

    # Hybrid below both baselines (every k >= 3 at full scale; downscaled
    # worlds check the headline k only — see figure13_violations) and
    # interactive at k=5: average well under the paper's 500 ms bar.
    assert figure13_violations(
        by_model, full_scale=is_full_scale(context)
    ) == []
    # Several-fold improvement over no prefetching.
    assert measured["improvement vs no prefetching (%)"] > 200.0
