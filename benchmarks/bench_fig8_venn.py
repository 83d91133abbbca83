"""Bench F8 — regenerate Figure 8 (Venn coverage of the base learners).

The paper's SDSC weeks 44–48: association 23.7 %, statistical 37.2 %,
probability distribution 56.4 % of 156 fatal events, 67 captured by more
than one learner, and none of the learners captures everything.
Reproduced shape: the same coverage ordering, substantial multi-learner
overlap, and a non-empty uncaptured remainder (Observation #1).
"""

from conftest import SEED, run_once

from repro.experiments import figure8


def test_fig8_venn_coverage(benchmark, show):
    table, venn = run_once(
        benchmark, figure8.run, system="SDSC", seed=SEED, span=(44, 48)
    )

    cov = {name: venn.coverage_fraction(name) for name in venn.names}
    # the paper's coverage ordering: distribution > statistical >
    # association (their shares: 56.4 % / 37.2 % / 23.7 %; this substrate
    # gives the association learner a smaller slice — see EXPERIMENTS.md)
    assert cov["distribution"] >= cov["statistical"] >= cov["association"]
    assert cov["association"] > 0.005
    assert 0.05 < cov["statistical"] < 0.9
    assert 0.25 < cov["distribution"] < 0.95
    # learners overlap but none is universal (Observation #1)
    assert venn.multi_captured > 0
    assert venn.uncaptured > 0

    show(table)
