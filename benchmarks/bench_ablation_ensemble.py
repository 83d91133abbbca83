"""Ablation — mixture-of-experts vs union-of-experts combination.

DESIGN.md calls out the ensemble policy as a design choice: the paper's
mixture-of-experts consults one expert per instance (association on
non-fatal events, statistical on fatal events, distribution as fallback),
whereas a union policy lets every expert fire.  The union necessarily
emits at least as many warnings; the mixture trades a little recall for
fewer redundant alarms.
"""

from conftest import SEED, run_once

from repro.core.framework import DynamicMetaLearningFramework, FrameworkConfig
from repro.evaluation.timeline import mean_accuracy
from repro.experiments.config import make_log
from repro.utils.tables import TableResult


def _run_both():
    syn = make_log("SDSC", seed=SEED, weeks=60)
    results = {}
    for policy in ("experts", "union"):
        config = FrameworkConfig(ensemble=policy)
        results[policy] = DynamicMetaLearningFramework(
            config, catalog=syn.catalog
        ).run(syn.clean)
    return results


def test_ablation_ensemble_policy(benchmark, show):
    results = run_once(benchmark, _run_both)

    table = TableResult(
        title="Ablation: expert-combination policy (SDSC, 60 weeks)",
        columns=["policy", "precision", "recall", "n_warnings"],
    )
    stats = {}
    for policy, result in results.items():
        p, r = mean_accuracy(result.weekly)
        stats[policy] = (p, r, len(result.warnings))
        table.add_row(
            policy=policy,
            precision=round(p, 3),
            recall=round(r, 3),
            n_warnings=len(result.warnings),
        )

    # the union fires at least as often and never recalls less
    assert stats["union"][2] >= stats["experts"][2]
    assert stats["union"][1] >= stats["experts"][1] - 0.02
    # both remain useful predictors
    assert stats["experts"][0] > 0.5 and stats["union"][0] > 0.4

    show(table)
