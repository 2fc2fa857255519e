"""Figure 12: average response time is linear in prefetch accuracy.

Paper fit: latency(ms) = 961.33 - 939.08 * accuracy, adjusted R^2
0.99985.  Our calibrated substrate should land near intercept 984
(the miss cost) and slope -(miss - hit) = -964.5, with R^2 ~ 1.
"""

from conftest import print_report

from repro.experiments.runner import run_figure12

import pytest

pytestmark = pytest.mark.bench


def test_figure12_latency_regression(latency_points, benchmark):
    points, _ = latency_points
    table, comparison = benchmark.pedantic(
        lambda: run_figure12(points), rounds=1, iterations=1
    )
    print_report(table, comparison)
    measured = {metric: float(value) for metric, _, value in comparison.rows}

    # The paper's headline: a strong linear relationship.
    assert measured["adjusted R^2"] > 0.99
    # Intercept ~ the miss cost; slope ~ -(miss - hit).
    assert 900 < measured["intercept (ms)"] < 1050
    assert -1050 < measured["slope (ms per accuracy)"] < -850
