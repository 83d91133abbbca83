"""Integration tests for the dynamic meta-learning framework."""

import pytest

from repro import GeneratorConfig, SDSC_PROFILE, generate_log
from repro.core.framework import (
    DynamicMetaLearningFramework,
    FrameworkConfig,
    NothingToEvaluate,
)
from repro.core.online import OnlinePredictionSession
from repro.core.windows import dynamic_months, static_initial
from repro.utils.timeutil import WEEK_SECONDS
from tests.conftest import make_log


@pytest.fixture(scope="module")
def run_result(mid_trace):
    config = FrameworkConfig(initial_train_weeks=20, retrain_weeks=4)
    framework = DynamicMetaLearningFramework(config, catalog=mid_trace.catalog)
    return framework.run(mid_trace.clean)


class TestConfig:
    def test_paper_defaults(self):
        cfg = FrameworkConfig()
        assert cfg.prediction_window == 300.0
        assert cfg.retrain_weeks == 4
        assert cfg.policy == dynamic_months(6)
        assert cfg.min_roc == 0.7
        assert cfg.learners == ("association", "statistical", "distribution")

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameworkConfig(prediction_window=0.0)
        with pytest.raises(ValueError):
            FrameworkConfig(retrain_weeks=0)
        with pytest.raises(ValueError):
            FrameworkConfig(initial_train_weeks=0)
        with pytest.raises(ValueError):
            FrameworkConfig(ensemble="nope")
        with pytest.raises(ValueError):
            FrameworkConfig(learners=())

    def test_tick_validation(self):
        with pytest.raises(ValueError, match="tick"):
            FrameworkConfig(tick=0.0)
        with pytest.raises(ValueError, match="tick"):
            FrameworkConfig(tick=-60.0)
        # None disables the deployment timer and is legal.
        assert FrameworkConfig(tick=None).tick is None

    def test_min_roc_validation(self):
        with pytest.raises(ValueError, match="min_roc"):
            FrameworkConfig(min_roc=-0.1)
        with pytest.raises(ValueError, match="min_roc"):
            FrameworkConfig(min_roc=1.2)
        assert FrameworkConfig(min_roc=0.0).min_roc == 0.0
        assert FrameworkConfig(min_roc=1.0).min_roc == 1.0

    def test_dist_horizon_cap_validation(self):
        with pytest.raises(ValueError, match="dist_horizon_cap"):
            FrameworkConfig(dist_horizon_cap=0.0)
        with pytest.raises(ValueError, match="dist_horizon_cap"):
            FrameworkConfig(dist_horizon_cap=-1.0)

    def test_with_helper(self):
        cfg = FrameworkConfig().with_(retrain_weeks=8)
        assert cfg.retrain_weeks == 8
        assert cfg.prediction_window == 300.0


class TestRunShape:
    def test_weekly_metrics_cover_test_span(self, run_result, mid_trace):
        assert run_result.start_week == 20
        assert run_result.end_week == mid_trace.clean.n_weeks
        weeks = [w.week for w in run_result.weekly]
        assert weeks == list(range(20, mid_trace.clean.n_weeks))

    def test_retrains_on_schedule(self, run_result):
        weeks = [r.week for r in run_result.retrains]
        assert weeks[0] == 20
        assert all((w - 20) % 4 == 0 for w in weeks)
        assert len(run_result.churn) == len(weeks)

    def test_training_span_respects_policy(self, run_result):
        for event in run_result.retrains:
            w0, w1 = event.train_span
            assert w1 == event.week
            assert w1 - w0 <= 26

    def test_rules_survive_revision(self, run_result):
        for event in run_result.retrains:
            assert 0 < event.n_kept <= event.n_candidates

    def test_warnings_in_test_span(self, run_result, mid_trace):
        start = 20 * WEEK_SECONDS
        assert all(w.time >= start for w in run_result.warnings)

    def test_overall_counts_consistent(self, run_result):
        total_tp = sum(w.counts.tp for w in run_result.weekly)
        total_fp = sum(w.counts.fp for w in run_result.weekly)
        assert run_result.overall.tp == total_tp
        assert run_result.overall.fp == total_fp
        assert total_tp + total_fp == len(run_result.warnings)

    def test_series_accessor(self, run_result):
        weeks, values = run_result.series("recall")
        assert len(weeks) == len(values) == len(run_result.weekly)
        with pytest.raises(ValueError, match="metric"):
            run_result.series("f1")

    def test_reasonable_accuracy(self, run_result):
        """Paper ballpark at the 5-minute window after 20 weeks training."""
        assert run_result.overall.precision > 0.5
        assert run_result.overall.recall > 0.4


class TestPolicies:
    def test_static_trains_once(self, mid_trace):
        config = FrameworkConfig(
            initial_train_weeks=20, policy=static_initial(5)
        )
        fw = DynamicMetaLearningFramework(config, catalog=mid_trace.catalog)
        result = fw.run(mid_trace.clean)
        assert len(result.retrains) == 1
        # 5 months ≈ 21 wk, clamped to the 20 weeks the engine has seen
        assert result.retrains[0].train_span == (0, 20)

    def test_no_reviser_keeps_all_candidates(self, mid_trace):
        config = FrameworkConfig(
            initial_train_weeks=20, use_reviser=False, policy=static_initial(4)
        )
        fw = DynamicMetaLearningFramework(config, catalog=mid_trace.catalog)
        result = fw.run(mid_trace.clean, end_week=24)
        event = result.retrains[0]
        assert event.n_kept == event.n_candidates
        assert event.churn.removed_by_reviser == 0

    def test_run_window_arguments(self, mid_trace):
        fw = DynamicMetaLearningFramework(
            FrameworkConfig(initial_train_weeks=20), catalog=mid_trace.catalog
        )
        result = fw.run(mid_trace.clean, start_week=22, end_week=30)
        assert result.start_week == 22
        assert result.end_week == 30
        assert len(result.weekly) == 8

    def test_invalid_run_window(self, mid_trace):
        fw = DynamicMetaLearningFramework(catalog=mid_trace.catalog)
        with pytest.raises(ValueError, match="nothing to evaluate"):
            fw.run(mid_trace.clean, start_week=30, end_week=30)
        with pytest.raises(ValueError, match="start_week"):
            fw.run(mid_trace.clean, start_week=0, end_week=10)

    def test_empty_window_is_its_own_error(self, mid_trace):
        fw = DynamicMetaLearningFramework(catalog=mid_trace.catalog)
        with pytest.raises(NothingToEvaluate):
            fw.run(mid_trace.clean, start_week=30, end_week=30)
        with pytest.raises(ValueError) as err:
            fw.run(mid_trace.clean, start_week=0, end_week=10)
        assert not isinstance(err.value, NothingToEvaluate)

    def test_single_learner_framework(self, mid_trace):
        config = FrameworkConfig(
            initial_train_weeks=20,
            learners=("statistical",),
            policy=static_initial(4),
        )
        fw = DynamicMetaLearningFramework(config, catalog=mid_trace.catalog)
        result = fw.run(mid_trace.clean, end_week=30)
        assert all(w.learner == "statistical" for w in result.warnings)


class TestLifecycle:
    def test_close_is_a_noop(self):
        with DynamicMetaLearningFramework() as fw:
            fw.close()
        fw.close()


class TestDeterminism:
    def test_same_input_same_result(self, mid_trace):
        config = FrameworkConfig(initial_train_weeks=20, retrain_weeks=8)
        r1 = DynamicMetaLearningFramework(config, catalog=mid_trace.catalog).run(
            mid_trace.clean, end_week=32
        )
        r2 = DynamicMetaLearningFramework(config, catalog=mid_trace.catalog).run(
            mid_trace.clean, end_week=32
        )
        assert len(r1.warnings) == len(r2.warnings)
        assert [w.time for w in r1.warnings] == [w.time for w in r2.warnings]
        assert r1.overall == r2.overall


def pattern_log(weeks):
    """A -> B -> FATAL every three hours for ``weeks`` weeks."""
    specs = []
    t = 600.0
    while t + 120.0 < weeks * WEEK_SECONDS:
        specs += [
            (t, "KERNEL-N-002"),
            (t + 60.0, "KERNEL-N-003"),
            (t + 120.0, "KERNEL-F-000"),
        ]
        t += 10_800.0
    return make_log(specs)


class TestReplayDriver:
    def test_end_week_past_last_event_retrains(self, catalog):
        """Empty trailing weeks keep their scheduled retrainings."""
        log = pattern_log(6)
        config = FrameworkConfig(initial_train_weeks=2, retrain_weeks=2)
        to_end = DynamicMetaLearningFramework(config, catalog=catalog).run(log)
        past = DynamicMetaLearningFramework(config, catalog=catalog).run(
            log, end_week=10
        )
        assert [r.week for r in to_end.retrains] == [2, 4]
        assert [r.week for r in past.retrains] == [2, 4, 6, 8]
        assert past.warnings == to_end.warnings

    def test_end_week_past_last_event_runs_no_timer(self):
        """The deployment timer is not run through empty trailing weeks,
        although a stream advanced to the same instant would fire it."""
        trace = generate_log(
            SDSC_PROFILE,
            GeneratorConfig(scale=0.5, weeks=8, seed=5, duplicates=False),
        )
        log = trace.clean
        config = FrameworkConfig(initial_train_weeks=4, policy=static_initial(1))
        to_end = DynamicMetaLearningFramework(
            config, catalog=trace.catalog
        ).run(log)
        past = DynamicMetaLearningFramework(config, catalog=trace.catalog).run(
            log, end_week=log.n_weeks + 2
        )
        assert past.warnings == to_end.warnings
        assert [w.n_warnings for w in past.weekly[-2:]] == [0, 0]

        session = OnlinePredictionSession(
            config, catalog=trace.catalog, origin=log.origin
        )
        for event in log:
            session.ingest(event)
        session.advance(log.origin + (log.n_weeks + 1) * WEEK_SECONDS)
        assert len(session.warnings) > len(past.warnings)

    def test_config_and_engine_share_one_definition(self):
        """The framework imports its config and the session, never the
        other way round; the public import path still works."""
        from repro.core import config, framework, online, session

        assert framework.FrameworkConfig is config.FrameworkConfig
        assert online.FrameworkConfig is config.FrameworkConfig
        assert (
            framework.OnlinePredictionSession
            is online.OnlinePredictionSession
        )
        assert framework.RetrainEvent is session.RetrainEvent
        assert not hasattr(online, "DynamicMetaLearningFramework")
