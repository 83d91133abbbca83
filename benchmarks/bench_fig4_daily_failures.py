"""Bench F4 — regenerate Figure 4 (fatal events per day).

The paper's observation: a significant number of failures happen in close
proximity.  Checks: daily counts are strongly over-dispersed relative to
a Poisson process, and a large share of inter-failure gaps fall within the
prediction window.
"""

import pytest
from conftest import SEED, run_once

from repro.experiments import figure4


@pytest.mark.parametrize("system", ["ANL", "SDSC"])
def test_fig4_daily_fatal_counts(benchmark, show, system):
    table, daily = run_once(
        benchmark, figure4.run, system=system, seed=SEED
    )
    stats = {r["statistic"]: r["value"] for r in table.rows}

    assert stats["index_of_dispersion"] > 2.0  # Poisson would be ≈ 1
    assert stats["frac_gaps_<=300s"] > 0.3
    assert stats["max_per_day"] > 3 * stats["mean_per_day"]
    assert len(daily) == stats["days"]

    show(table)
