"""Bench T2 — regenerate Table 2 (log description) from synthetic raw logs.

Paper rows: ANL 112 weeks / 5,887,771 events / 2.27 GB; SDSC 132 weeks /
517,247 events / 463 MB.  Shape checks: ANL produces an order of magnitude
more raw records than SDSC despite having a third of the racks (the
KERNEL duplication storm), and the scaled-up projections land near the
published counts.
"""

from conftest import SEED, run_once

from repro.experiments import table2

SCALE = 0.02


def test_table2_log_description(benchmark, show):
    table = run_once(benchmark, table2.run, scale=SCALE, seed=SEED)
    rows = {r["log"]: r for r in table.rows}

    assert rows["ANL"]["weeks"] == 112
    assert rows["SDSC"]["weeks"] == 132
    # ANL raw volume dominates SDSC (paper ratio ≈ 11.4×)
    assert rows["ANL"]["events"] > 4 * rows["SDSC"]["events"]
    # projections within 2× of the published counts
    for system in ("ANL", "SDSC"):
        projected = rows[system]["events_scaled_up"]
        published = rows[system]["paper_events"]
        assert 0.5 * published < projected < 2.0 * published

    show(table)
