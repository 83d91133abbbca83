"""Bench F13 — regenerate Figure 13 (prediction-window sensitivity).

Paper claims: the larger the prediction window, the higher the recall
(up to ≈ 0.82 at two hours) and the lower the precision; the precision
spread across windows stays within ~0.25 and recall within ~0.15, and
both metrics stay above ≈ 0.55 in most settings.
"""

from conftest import SEED, run_once

from repro.evaluation.timeline import trend_slope
from repro.experiments import q3_window


def test_fig13_prediction_window(benchmark, show):
    table, _ = run_once(
        benchmark, q3_window.run, system="SDSC", seed=SEED
    )

    recalls = table.column("recall")
    precisions = table.column("precision")

    # recall rises with the window (the paper's headline sensitivity)
    assert recalls[-1] > recalls[0] + 0.03
    assert trend_slope(recalls) > 0
    # the paper's recall reaches 0.82 at the two-hour window; this
    # substrate peaks lower (see EXPERIMENTS.md) but well above the
    # usefulness bar for runtime fault tolerance (~0.3 per the authors'
    # prior work)
    assert recalls[-1] > 0.55
    # precision spread bounded (paper: < 0.25).  NOTE: the paper reports
    # precision *decreasing* with the window; under this harness's
    # horizon-credit matching, larger windows also make each warning more
    # likely to be credited, so precision stays flat instead of falling —
    # see EXPERIMENTS.md for the accounting discussion.
    assert max(precisions) - min(precisions) < 0.25
    assert all(p > 0.45 for p in precisions)
    assert all(r > 0.4 for r in recalls)

    show(table)
