"""Bench F12 — regenerate Figure 12 (number of rules changed).

Paper claims: rules churn constantly (change ratio 44 %–212 % per
retraining for most rounds); the repository accumulates rules over the
first year; the reviser's removals are non-trivial; and the SDSC
reconfiguration around week 60–64 triggers an outsized spike of
additions/removals.
"""

from conftest import SEED, run_once

from repro.experiments import q2_rule_churn


def test_fig12_rule_churn(benchmark, show):
    table, result = run_once(
        benchmark, q2_rule_churn.run, system="SDSC", seed=SEED
    )
    records = result.churn.records

    # steady churn after the initial training round
    steady = records[2:]
    assert all(r.added + r.removed_by_meta + r.removed_by_reviser > 0 for r in steady)
    ratios = [r.change_ratio for r in steady if r.unchanged]
    assert ratios and max(ratios) > 0.4

    # the reviser's removals are non-trivial overall
    assert sum(r.removed_by_reviser for r in steady) > 10

    # rule accumulation: the repository grows past its initial size at
    # some point of the trace (the paper: > 100 rules within a year)
    assert max(r.total_active for r in records) > records[0].total_active
    assert max(r.total_active for r in records) > 100

    # reconfiguration churn: as post-reconfiguration data fills the
    # six-month training window (weeks ~62-90), rule movement exceeds the
    # steady-state median (the paper saw 57 added / 148 removed at the
    # week-64 retraining)
    def churn_of(r):
        return r.added + r.removed_by_meta

    spike = max(churn_of(r) for r in records if 62 <= r.week <= 90)
    normal = sorted(churn_of(r) for r in steady)[len(steady) // 2]
    assert spike > normal

    show(table)
