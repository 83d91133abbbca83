"""Smoke + shape tests for every experiment driver (DESIGN.md index)."""

import pytest

from repro.experiments import (
    figure4,
    figure5,
    figure8,
    q1_meta,
    q2_retrain_period,
    q2_reviser,
    q2_rule_churn,
    q2_training_size,
    q3_window,
    table2,
    table3,
    table4,
    table5,
)
from repro.evaluation.overhead import _timed
from repro.experiments.config import make_log
from repro.learners.registry import create_learner
from repro.utils.timeutil import WEEK_SECONDS

SEED = 7


class TestTable2:
    def test_rows_and_projection(self):
        table = table2.run(scale=0.005, seed=SEED)
        assert [r["log"] for r in table.rows] == ["ANL", "SDSC"]
        for row in table.rows:
            assert row["events"] > 0
            assert row["events_scaled_up"] == int(row["events"] / 0.005)
        # ANL generates far more raw records than SDSC (KERNEL duplication)
        assert table.rows[0]["events"] > table.rows[1]["events"]


class TestTable3:
    def test_matches_paper_exactly(self):
        table = table3.run()
        for row in table.rows:
            assert row["fatal"] == row["paper_fatal"]
            assert row["nonfatal"] == row["paper_nonfatal"]
        assert table.rows[-1]["fatal"] == 69
        assert table.rows[-1]["nonfatal"] == 150


class TestTable4:
    def test_sweep_shape(self):
        table, sweep = table4.run("SDSC", scale=0.01, seed=SEED)
        assert sweep.totals == sorted(sweep.totals, reverse=True)
        # ≥90% compression at the paper's threshold on this substrate
        rates = sweep.compression_rates()
        idx_300 = list(sweep.thresholds).index(300.0)
        assert rates[idx_300] > 0.9
        # diminishing returns: the 300→400 s step removes little
        assert (sweep.totals[idx_300] - sweep.totals[-1]) < 0.02 * sweep.totals[0]
        assert table.rows[-1]["facility"] == "TOTAL"


def interleaved_association_seconds(syn, months, rounds=5, window=300.0):
    """Fastest association-mining time per training size (months of
    ``syn``), with the sizes timed in alternating rounds so that each
    one sees the same stretches of host speed."""
    learner = create_learner("association", catalog=syn.catalog)
    logs = {
        m: syn.clean.between(0.0, round(m * 30 / 7) * WEEK_SECONDS)
        for m in months
    }
    best = dict.fromkeys(months, float("inf"))
    for _ in range(rounds):
        for m in months:
            _, seconds = _timed(learner.train, logs[m], window)
            best[m] = min(best[m], seconds)
    return best


class TestTable5:
    def test_overhead_shape(self):
        table, records = table5.run(
            "SDSC", scale=1.0, seed=SEED, months=(3, 6, 12, 18), matching_weeks=2
        )
        # association mining grows with training size (the trace is the
        # one table5.run just timed: 18 months plus 2 matching weeks)
        syn = make_log("SDSC", scale=1.0, weeks=round(18 * 30 / 7) + 2, seed=SEED)
        asso = interleaved_association_seconds(syn, (6, 18))
        assert asso[18] > asso[6]
        # online rule matching stays trivially cheap (Observation #8)
        for r in records:
            assert r.rule_matching < 1.0
        assert len(table) == 4


class TestFigure4:
    def test_burstiness(self):
        table, daily = figure4.run("SDSC", weeks=30, seed=SEED)
        stats = {r["statistic"]: r["value"] for r in table.rows}
        assert stats["index_of_dispersion"] > 2.0
        assert stats["frac_gaps_<=300s"] > 0.3
        assert int(daily.sum()) == stats["total_fatal"]


class TestFigure5:
    def test_fit_selection(self):
        fit_table, cdf_table = figure5.run("SDSC", weeks=40, seed=SEED)
        assert len(fit_table) == 3
        best_rows = [r for r in fit_table.rows if r["best"]]
        assert len(best_rows) == 1
        # empirical and fitted CDFs are both monotone over the references
        emp = cdf_table.column("empirical")
        fit = cdf_table.column("fitted_best")
        assert emp == sorted(emp)
        assert fit == sorted(fit)
        assert all(0.0 <= v <= 1.0 for v in emp + fit)


class TestQ1Meta:
    @pytest.fixture(scope="class")
    def q1(self):
        return q1_meta.run("SDSC", weeks=40, seed=SEED)

    def test_meta_beats_base_recall(self, q1):
        table, results = q1
        from repro.evaluation.timeline import mean_accuracy

        recalls = {m: mean_accuracy(r.weekly)[1] for m, r in results.items()}
        assert recalls["meta"] >= max(
            recalls["association"], recalls["statistical"]
        )
        assert recalls["meta"] > recalls["association"] * 1.5

    def test_association_among_worst_recall(self, q1):
        # the paper: association rules have the worst recall (≈75 % of
        # fatals have no precursor); allow a statistical tie at the bottom
        _, results = q1
        from repro.evaluation.timeline import mean_accuracy

        recalls = {m: mean_accuracy(r.weekly)[1] for m, r in results.items()}
        assert recalls["association"] <= min(recalls.values()) + 0.05
        assert recalls["association"] < recalls["statistical"]
        assert recalls["association"] < recalls["meta"]

    def test_table_columns(self, q1):
        table, _ = q1
        assert "p_meta" in table.columns and "r_distribution" in table.columns
        assert len(table) > 0


class TestFigure8:
    def test_venn_shape(self):
        table, venn = figure8.run("SDSC", seed=SEED, span=(30, 36))
        assert venn.n_fatal > 0
        # distribution covers the most, association the least (paper order)
        cov = {n: venn.coverage_fraction(n) for n in venn.names}
        assert cov["distribution"] >= cov["statistical"] >= cov["association"]
        assert venn.multi_captured > 0


class TestQ2TrainingSize:
    def test_policy_ordering(self):
        table, results = q2_training_size.run("SDSC", weeks=48, seed=SEED)
        from repro.evaluation.timeline import mean_accuracy

        recall = {
            name: mean_accuracy(r.weekly)[1] for name, r in results.items()
        }
        # dynamic-6mo within striking distance of dynamic-whole; static and
        # 3-month both behind 6-month on this short horizon
        assert recall["dynamic-6mo"] >= recall["dynamic-3mo"] - 0.08
        assert set(table.columns) >= {"week", "p_static", "r_dynamic-whole"}


class TestQ2RetrainPeriod:
    def test_runs_all_windows(self):
        table, results = q2_retrain_period.run(
            "SDSC", weeks=42, seed=SEED, retrain_windows=(2, 8)
        )
        assert set(results) == {2, 8}
        assert len(results[2].retrains) > len(results[8].retrains)


class TestQ2Reviser:
    def test_reviser_does_not_hurt_precision(self):
        _, results = q2_reviser.run("SDSC", weeks=40, seed=SEED)
        from repro.evaluation.timeline import mean_accuracy

        p_rev, _ = mean_accuracy(results["revised"].weekly)
        p_unrev, _ = mean_accuracy(results["unrevised"].weekly)
        assert p_rev >= p_unrev - 0.02


class TestQ2RuleChurn:
    def test_churn_series(self):
        table, result = q2_rule_churn.run("SDSC", weeks=44, seed=SEED)
        assert len(table) == len(result.churn)
        first = result.churn.records[0]
        assert first.unchanged == 0  # initial training adds everything
        later = result.churn.records[1:]
        assert any(r.added > 0 for r in later)
        assert any(r.removed_by_reviser > 0 for r in later)


class TestQ3Window:
    def test_recall_grows_with_window(self):
        table, _ = q3_window.run(
            "SDSC", weeks=40, seed=SEED, windows=(300.0, 7200.0)
        )
        recalls = table.column("recall")
        assert recalls[-1] >= recalls[0]
        assert len(table) == 2
