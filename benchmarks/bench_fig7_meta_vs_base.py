"""Bench F7 — regenerate Figure 7 (meta-learning vs base methods).

Paper claims reproduced as shape checks: the static meta-learner's recall
substantially exceeds every individual base learner (the paper reports up
to ~3× improvement); the association learner has the worst recall (most
failures lack precursors); the statistical learner's precision is the
strongest of the base methods; and every static method's accuracy decays
over the test horizon.
"""

from conftest import SEED, run_once

from repro.evaluation.timeline import mean_accuracy
from repro.experiments import q1_meta


def test_fig7_meta_vs_base(benchmark, show):
    table, results = run_once(
        benchmark, q1_meta.run, system="SDSC", seed=SEED
    )

    precision = {}
    recall = {}
    for method, result in results.items():
        precision[method], recall[method] = mean_accuracy(result.weekly)

    # meta-learning boosts recall over every base learner
    base = ("association", "statistical", "distribution")
    assert recall["meta"] > max(recall[m] for m in base)
    assert recall["meta"] > 1.5 * recall["association"]
    # association worst at recall; statistical strongest base precision
    assert recall["association"] <= min(recall.values()) + 0.05
    assert precision["statistical"] >= max(precision[m] for m in base) - 0.05

    # static rules go stale over time.  Which metric takes the hit
    # depends on how the regime drifts — stale rules either keep firing
    # wrongly (precision erodes) or stop matching (recall erodes); the
    # paper's figures show both sliding.  Require a material decline in
    # at least one metric between the first and last quarter.
    from repro.evaluation.timeline import rolling_metrics

    smoothed = rolling_metrics(results["meta"].weekly, 6)
    n = len(smoothed)

    def quarter_mean(metric, quarter):
        seg = smoothed[quarter * n // 4 : (quarter + 1) * n // 4]
        return sum(getattr(w, metric) for w in seg) / len(seg)

    decayed = [
        metric
        for metric in ("precision", "recall")
        if quarter_mean(metric, 3) < quarter_mean(metric, 0) - 0.03
    ]
    assert decayed, "static meta-learner showed no decay in either metric"

    show(table)


def test_fig7_relations_hold_on_anl(benchmark, show):
    """The paper evaluates Figure 7 on both machines; the ANL system has a
    far denser non-fatal background (KERNEL error checking), which makes
    stale association rules decay especially hard — the base-learner
    ordering must still hold."""
    table, results = run_once(
        benchmark, q1_meta.run, system="ANL", seed=SEED
    )
    precision = {}
    recall = {}
    for method, result in results.items():
        precision[method], recall[method] = mean_accuracy(result.weekly)

    base = ("association", "statistical", "distribution")
    assert recall["meta"] > max(recall[m] for m in base)
    assert recall["association"] <= min(recall.values()) + 0.05
    assert precision["statistical"] >= max(precision[m] for m in base) - 0.05

    show(table)
