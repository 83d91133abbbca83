"""Bench F5 — regenerate Figure 5 (inter-arrival CDFs and fitted models).

The paper fits Weibull / exponential / log-normal by MLE and finds a
heavy-tailed (shape < 1) distribution describes the failure inter-arrival
times (SDSC example shape ≈ 0.508).  Checks: the Weibull fit over the full
gap mixture has shape < 1, the exponential is never the best fit (the data
is far from memoryless), and the best fit tracks the empirical CDF at the
reference points.
"""

import pytest
from conftest import SEED, run_once

from repro.experiments import figure5


@pytest.mark.parametrize("system", ["ANL", "SDSC"])
def test_fig5_interarrival_fits(benchmark, show, system):
    fit_table, cdf_table = run_once(
        benchmark, figure5.run, system=system, seed=SEED
    )

    by_family = {r["family"]: r for r in fit_table.rows}
    weibull_shape = by_family["weibull"]["params"][0]
    assert weibull_shape < 1.0  # clustered failures, as in the paper
    assert not by_family["exponential"]["best"]

    for row in cdf_table.rows:
        assert abs(row["empirical"] - row["fitted_best"]) < 0.25

    show(fit_table, cdf_table)
