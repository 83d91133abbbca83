"""Bench F11 — regenerate Figure 11 (is dynamic revising necessary?).

Paper claim: the reviser improves prediction accuracy by up to ~6 % by
filtering out misleading rules that the permissive mining parameters
admit.  Reproduced shape: revised precision is at or above unrevised
precision, and the reviser does not cost meaningful recall.
"""

from conftest import SEED, run_once

from repro.evaluation.timeline import mean_accuracy
from repro.experiments import q2_reviser


def test_fig11_reviser_effect(benchmark, show):
    table, results = run_once(
        benchmark, q2_reviser.run, system="SDSC", seed=SEED
    )

    p_rev, r_rev = mean_accuracy(results["revised"].weekly)
    p_unrev, r_unrev = mean_accuracy(results["unrevised"].weekly)

    # the reviser buys substantial precision at a small recall cost, a net
    # win (the paper reports up to 6 % improvement on both metrics; on
    # this substrate the gain concentrates in precision)
    assert p_rev > p_unrev + 0.03
    assert r_rev >= r_unrev - 0.12

    def f1(p, r):
        return 2 * p * r / (p + r) if (p + r) else 0.0

    assert f1(p_rev, r_rev) > f1(p_unrev, r_unrev)
    # the reviser actually removed rules on this workload
    removed = sum(
        e.churn.removed_by_reviser for e in results["revised"].retrains
    )
    assert removed > 0

    show(table)
