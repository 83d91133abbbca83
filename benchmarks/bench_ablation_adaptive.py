"""Ablation — adaptive prediction-window tuning (Section 7 future work).

The paper's stated goal for adaptive windows: "automatically tune its size
to reduce the training cost, without sacrificing the prediction accuracy."
This bench compares the fixed 5-minute window, a fixed 2-hour window, and
the adaptive tuner: the tuner must stay within a small F1 band of the best
fixed window while choosing small windows when they suffice.
"""

from conftest import SEED, run_once

from repro.core.adaptive import AdaptiveWindowFramework, AdaptiveWindowTuner
from repro.core.framework import DynamicMetaLearningFramework, FrameworkConfig
from repro.evaluation.timeline import mean_accuracy
from repro.experiments.config import make_log
from repro.utils.tables import TableResult


def _f1(p, r):
    return 2 * p * r / (p + r) if (p + r) else 0.0


def _run_variants():
    syn = make_log("SDSC", seed=SEED, weeks=72)
    results = {}
    for name, window in (("fixed-5min", 300.0), ("fixed-2hr", 7200.0)):
        config = FrameworkConfig(prediction_window=window)
        results[name] = (
            DynamicMetaLearningFramework(config, catalog=syn.catalog).run(
                syn.clean
            ),
            None,
        )
    config = FrameworkConfig()
    adaptive = AdaptiveWindowFramework(
        config,
        catalog=syn.catalog,
        tuner=AdaptiveWindowTuner(candidates=(300.0, 1800.0, 7200.0)),
    )
    results["adaptive"] = (adaptive.run(syn.clean), adaptive.decisions)
    return results


def test_ablation_adaptive_window(benchmark, show):
    results = run_once(benchmark, _run_variants)

    table = TableResult(
        title="Ablation: adaptive prediction-window tuning (SDSC, 72 weeks)",
        columns=["variant", "precision", "recall", "f1", "windows_chosen"],
    )
    f1s = {}
    for name, (result, decisions) in results.items():
        p, r = mean_accuracy(result.weekly)
        f1s[name] = _f1(p, r)
        chosen = (
            "-"
            if decisions is None
            else "/".join(f"{d.chosen / 60:.0f}m" for d in decisions)
        )
        table.add_row(
            variant=name,
            precision=round(p, 3),
            recall=round(r, 3),
            f1=round(f1s[name], 3),
            windows_chosen=chosen,
        )

    # the tuner must not sacrifice accuracy relative to the best fixed size
    assert f1s["adaptive"] > max(f1s["fixed-5min"], f1s["fixed-2hr"]) - 0.08
    # and it must actually exercise the tuning machinery
    decisions = results["adaptive"][1]
    assert decisions and all(
        d.chosen in (300.0, 1800.0, 7200.0) for d in decisions
    )

    show(table)
