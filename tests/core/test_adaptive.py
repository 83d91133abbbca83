"""Tests for adaptive prediction-window tuning."""

import pytest

from repro.core.adaptive import (
    AdaptiveWindowFramework,
    AdaptiveWindowTuner,
    TuningDecision,
)
from repro.core.framework import FrameworkConfig
from repro.core.meta import MetaLearner
from repro.core.online import OnlinePredictionSession
from repro.core.reviser import Reviser
from repro.raslog.store import EventLog
from repro.resilience.checkpoint import CheckpointError


class TestTunerValidation:
    def test_needs_two_candidates(self):
        with pytest.raises(ValueError, match="at least two"):
            AdaptiveWindowTuner(candidates=(300.0,))

    def test_candidates_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            AdaptiveWindowTuner(candidates=(900.0, 300.0))

    def test_validation_fraction_bounds(self):
        with pytest.raises(ValueError, match="validation_fraction"):
            AdaptiveWindowTuner(validation_fraction=0.0)
        with pytest.raises(ValueError, match="validation_fraction"):
            AdaptiveWindowTuner(validation_fraction=1.0)

    def test_tolerance_non_negative(self):
        with pytest.raises(ValueError, match="tolerance"):
            AdaptiveWindowTuner(tolerance=-0.1)


class TestChoose:
    def test_scores_all_candidates(self, mid_trace):
        tuner = AdaptiveWindowTuner(candidates=(300.0, 3600.0))
        meta = MetaLearner(catalog=mid_trace.catalog)
        reviser = Reviser(catalog=mid_trace.catalog)
        decision = tuner.choose(
            26,
            mid_trace.clean.slice_weeks(0, 26),
            meta,
            reviser,
            mid_trace.catalog,
        )
        assert isinstance(decision, TuningDecision)
        assert set(decision.scores) == {300.0, 3600.0}
        assert decision.chosen in (300.0, 3600.0)
        for p, r, f1 in decision.scores.values():
            assert 0.0 <= p <= 1.0
            assert 0.0 <= r <= 1.0
            assert 0.0 <= f1 <= 1.0

    def test_prefers_smallest_near_best(self, mid_trace):
        # with an enormous tolerance every candidate is "near best", so
        # the smallest window must win
        tuner = AdaptiveWindowTuner(candidates=(300.0, 3600.0), tolerance=1.0)
        meta = MetaLearner(catalog=mid_trace.catalog)
        reviser = Reviser(catalog=mid_trace.catalog)
        decision = tuner.choose(
            26,
            mid_trace.clean.slice_weeks(0, 26),
            meta,
            reviser,
            mid_trace.catalog,
        )
        assert decision.chosen == 300.0

    def test_empty_training_defaults_to_smallest(self, catalog):
        tuner = AdaptiveWindowTuner(candidates=(300.0, 900.0))
        meta = MetaLearner(catalog=catalog)
        reviser = Reviser(catalog=catalog)
        decision = tuner.choose(0, EventLog(), meta, reviser, catalog)
        assert decision.chosen == 300.0
        assert decision.scores == {}


class TestAdaptiveFramework:
    def test_tunes_at_each_retraining(self, mid_trace):
        config = FrameworkConfig(initial_train_weeks=20, retrain_weeks=8)
        framework = AdaptiveWindowFramework(
            config,
            catalog=mid_trace.catalog,
            tuner=AdaptiveWindowTuner(candidates=(300.0, 1800.0)),
        )
        result = framework.run(mid_trace.clean, end_week=36)
        assert len(framework.decisions) == len(result.retrains)
        for decision in framework.decisions:
            assert decision.chosen in (300.0, 1800.0)
        # warnings carry the window that was active when they fired
        windows = {w.window for w in result.warnings}
        chosen = {d.chosen for d in framework.decisions}
        assert windows <= chosen | {
            w.window for w in result.warnings if w.learner == "distribution"
        }

    def test_produces_reasonable_accuracy(self, mid_trace):
        config = FrameworkConfig(initial_train_weeks=20, retrain_weeks=8)
        framework = AdaptiveWindowFramework(config, catalog=mid_trace.catalog)
        result = framework.run(mid_trace.clean, end_week=36)
        assert result.overall.precision > 0.4
        assert result.overall.recall > 0.3


class TestStreamedWindowTuning:
    def test_session_matches_the_framework(self, mid_trace, tmp_path):
        """A streaming session with a window tuner, fed the log the
        framework replays one event at a time, raises the same warnings
        after the same tuning decisions; its checkpoint is refused."""
        config = FrameworkConfig(initial_train_weeks=20, retrain_weeks=8)
        candidates = (300.0, 1800.0)
        framework = AdaptiveWindowFramework(
            config,
            catalog=mid_trace.catalog,
            tuner=AdaptiveWindowTuner(candidates=candidates),
        )
        log = mid_trace.clean
        result = framework.run(log, end_week=36)

        tuner = AdaptiveWindowTuner(candidates=candidates)
        decisions = []

        def tune(week, train_log, meta, reviser):
            decision = tuner.choose(
                week,
                train_log,
                meta,
                reviser,
                mid_trace.catalog,
                ensemble=config.ensemble,
                dist_horizon_cap=config.dist_horizon_cap,
            )
            decisions.append(decision)
            return decision.chosen

        session = OnlinePredictionSession(
            config,
            catalog=mid_trace.catalog,
            origin=log.origin,
            window_tuner=tune,
        )
        for event in log.slice_weeks(0, 36):
            session.ingest(event)
        assert decisions and decisions == framework.decisions
        assert session.warnings == result.warnings
        assert [r.week for r in session.retrains] == [
            r.week for r in result.retrains
        ]
        with pytest.raises(CheckpointError, match="window tuner"):
            session.checkpoint(tmp_path / "tuned.ckpt")
        assert not (tmp_path / "tuned.ckpt").exists()
