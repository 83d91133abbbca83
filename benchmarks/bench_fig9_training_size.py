"""Bench F9 — regenerate Figure 9 (training-set size policies).

Paper claims: dynamic retraining beats the static policy, whose accuracy
decays monotonically; dynamic-whole and dynamic-6 mo track each other
within a small band, which is why the authors recommend retraining on the
most recent six months.  On this substrate the static decay expresses
primarily through precision (stale rules keep firing, increasingly
wrongly) — see EXPERIMENTS.md.
"""

from conftest import SEED, run_once

from repro.evaluation.timeline import mean_accuracy, rolling_metrics, trend_slope
from repro.experiments import q2_training_size


def _f1(p, r):
    return 2 * p * r / (p + r) if (p + r) else 0.0


def test_fig9_training_size_policies(benchmark, show):
    table, results = run_once(
        benchmark, q2_training_size.run, system="SDSC", seed=SEED
    )

    recall = {}
    late_f1 = {}
    n = len(results["static"].weekly)
    for name, result in results.items():
        _, recall[name] = mean_accuracy(result.weekly)
        lp, lr = mean_accuracy(result.weekly[n // 2 :])
        late_f1[name] = _f1(lp, lr)

    # dynamic-6mo tracks dynamic-whole within a small band overall
    assert abs(recall["dynamic-whole"] - recall["dynamic-6mo"]) < 0.1
    # on the late half — where drift has accumulated — the recommended
    # 6-month sliding window beats the never-retrained static policy
    assert late_f1["dynamic-6mo"] > late_f1["static"] + 0.03

    # static precision decays over the trace
    static_series = [
        w.precision for w in rolling_metrics(results["static"].weekly, 6)
    ]
    dyn_series = [
        w.precision for w in rolling_metrics(results["dynamic-6mo"].weekly, 6)
    ]
    assert trend_slope(static_series) < trend_slope(dyn_series) + 1e-4
    m = len(static_series)
    early = sum(static_series[: m // 4]) / (m // 4)
    late = sum(static_series[-(m // 4) :]) / (m // 4)
    assert late < early - 0.02

    show(table)
