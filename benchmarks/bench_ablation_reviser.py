"""Ablation — MinROC sweep for the reviser's rule filter.

DESIGN.md calls out the ROC-norm filter as a design choice.  Sweeping
MinROC from permissive to strict shows the trade-off the paper's 0.7
setting balances: low thresholds keep noisy rules (more recall, less
precision); very strict thresholds starve the rule set.
"""

from conftest import SEED, run_once

from repro.core.framework import DynamicMetaLearningFramework, FrameworkConfig
from repro.evaluation.timeline import mean_accuracy
from repro.experiments.config import make_log
from repro.utils.tables import TableResult

MIN_ROCS = (0.1, 0.7, 1.2)


def _run_sweep():
    syn = make_log("SDSC", seed=SEED, weeks=56)
    results = {}
    for min_roc in MIN_ROCS:
        config = FrameworkConfig(min_roc=min_roc)
        results[min_roc] = DynamicMetaLearningFramework(
            config, catalog=syn.catalog
        ).run(syn.clean)
    return results


def test_ablation_min_roc(benchmark, show):
    results = run_once(benchmark, _run_sweep)

    table = TableResult(
        title="Ablation: reviser MinROC sweep (SDSC, 56 weeks)",
        columns=["min_roc", "precision", "recall", "rules_kept"],
    )
    kept = {}
    stats = {}
    for min_roc, result in results.items():
        p, r = mean_accuracy(result.weekly)
        n_kept = round(
            sum(e.n_kept for e in result.retrains) / len(result.retrains)
        )
        stats[min_roc] = (p, r)
        kept[min_roc] = n_kept
        table.add_row(
            min_roc=min_roc,
            precision=round(p, 3),
            recall=round(r, 3),
            rules_kept=n_kept,
        )

    # stricter filtering keeps fewer rules
    assert kept[0.1] >= kept[0.7] >= kept[1.2]
    # the strict end loses recall relative to the paper's setting
    assert stats[1.2][1] <= stats[0.7][1] + 0.02
    # the paper's setting does not lose precision vs permissive filtering
    assert stats[0.7][0] >= stats[0.1][0] - 0.02

    show(table)
