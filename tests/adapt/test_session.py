"""Integration tests: the drift monitor wired into the session layers.

Covers the scheduling semantics the tentpole promises — weekly drift
evaluations instead of a fixed cadence, degraded-mode deferral that
never double-fires, the static-policy path that schedules nothing at
all — and the durability contract: drift state rides checkpoint v3 and
a resumed session is warning-for-warning identical, drift bookkeeping
included.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.adapt import CAUSE_INITIAL, CAUSE_MAX_INTERVAL
from repro.core.framework import DynamicMetaLearningFramework, FrameworkConfig
from repro.core.online import OnlinePredictionSession
from repro.core.session import SessionCore
from repro.core.windows import TrainingPolicy
from repro.faults import FaultPlan, LearnerCrash
from repro.utils.timeutil import WEEK_SECONDS
from tests.adapt.conftest import adaptive_config, shift_log

DRIFT_CAUSES = ("event_mix", "interarrival", "rule_hit_rate")


def stream(session, events):
    for event in events:
        session.ingest(event)
    return session


@pytest.fixture(scope="module")
def shifted():
    return list(shift_log(weeks=10, shift_week=5))


class TestFixedTriggerUnchanged:
    def test_fixed_session_has_no_drift_state(self, catalog, shifted):
        session = SessionCore(
            FrameworkConfig(initial_train_weeks=2, retrain_weeks=2),
            catalog=catalog,
        )
        assert not session.adaptive
        assert session.drift_status() is None
        stream(session, shifted)
        # metronome cadence: every 2 weeks, drift or not
        assert [r.week for r in session.retrains] == [2, 4, 6, 8]


class TestBatchHonoursTrigger:
    def test_batch_run_matches_streamed_core(self, catalog, shifted):
        """The batch framework replays through the session core, so the
        adaptive trigger schedules its retrainings too."""
        result = DynamicMetaLearningFramework(
            adaptive_config(), catalog=catalog
        ).run(shift_log(weeks=10, shift_week=5))
        core = stream(SessionCore(adaptive_config(), catalog=catalog), shifted)
        assert result.warnings == core.warnings
        assert [r.week for r in result.retrains] == [
            r.week for r in core.retrains
        ]
        # A batch run that ignores the trigger runs the fixed cadence.
        fixed = DynamicMetaLearningFramework(
            adaptive_config(retrain_trigger="fixed"), catalog=catalog
        ).run(shift_log(weeks=10, shift_week=5))
        assert [r.week for r in result.retrains] != [
            r.week for r in fixed.retrains
        ]


class TestAdaptiveScheduling:
    def test_retrains_on_drift_not_cadence(self, catalog, shifted):
        session = SessionCore(adaptive_config(), catalog=catalog)
        assert session.adaptive
        stream(session, shifted)
        status = session.drift_status()

        # initial training, then exactly one drift-triggered retraining
        # after the week-5 shift — and far fewer than the fixed cadence
        causes = [t["cause"] for t in status["triggers"]]
        assert causes[0] == CAUSE_INITIAL
        assert len(causes) == 2 and causes[1] in DRIFT_CAUSES
        drift_week = status["triggers"][1]["week"]
        assert drift_week > 5
        assert [r.week for r in session.retrains] == [2, drift_week]

        # every crossed boundary was an evaluation (weeks 2..9, the
        # initial-training boundary included): quiet weeks were skipped,
        # not silently missed
        assert status["evaluations"] == 8
        assert status["skipped_retrains"] == status["evaluations"] - 2
        assert status["deferred"] == 0

    def test_keeps_predicting_after_drift_retrain(self, catalog, shifted):
        session = SessionCore(adaptive_config(), catalog=catalog)
        stream(session, shifted)
        drift_week = session.retrains[-1].week
        post = [
            w
            for w in session.warnings
            if w.time >= drift_week * WEEK_SECONDS
        ]
        # the new rules fire on the new pattern's fatal type
        assert post and any(w.predicted == "APP-F-000" for w in post)

    def test_max_interval_safety_net(self, catalog):
        """A stationary stream never shows drift, yet the WR_max net
        still retrains it on schedule."""
        stationary = list(shift_log(weeks=8, shift_week=99))
        session = SessionCore(
            adaptive_config(adapt_max_interval_weeks=3), catalog=catalog
        )
        stream(session, stationary)
        status = session.drift_status()
        causes = [t["cause"] for t in status["triggers"]]
        assert causes[0] == CAUSE_INITIAL
        assert set(causes[1:]) == {CAUSE_MAX_INTERVAL}
        assert [r.week for r in session.retrains] == [2, 5]  # 2 + 3k


class TestStaticPolicySchedulesNothing:
    @pytest.mark.parametrize("trigger", ["fixed", "adaptive"])
    def test_no_boundary_after_initial_training(self, catalog, trigger):
        """``policy.retrains`` off: the initial training is the only one
        and ``_next_retrain_week`` parks at None (not a sentinel week)."""
        config = FrameworkConfig(
            initial_train_weeks=2,
            retrain_weeks=2,
            policy=TrainingPolicy(kind="static", length_weeks=2),
            retrain_trigger=trigger,
        )
        session = SessionCore(config, catalog=catalog)
        assert session._next_retrain_week == 2
        stream(session, shift_log(weeks=8, shift_week=99))
        assert session._next_retrain_week is None
        assert [r.week for r in session.retrains] == [2]
        # the initial rules keep predicting for the rest of the trace
        assert any(w.time > 6 * WEEK_SECONDS for w in session.warnings)


class TestDegradedDefer:
    def test_defers_while_owed_and_never_double_fires(
        self, catalog, shifted
    ):
        """Drift fires, the retraining crashes, and the backoff stretches
        across later week boundaries: those evaluations defer (counted),
        no second retraining is queued for the same regime change, and
        the eventual success is the *originally* triggered week."""
        reference = SessionCore(adaptive_config(), catalog=catalog)
        stream(reference, shifted)
        drift_week = reference.drift_status()["triggers"][1]["week"]

        config = adaptive_config(
            on_retrain_error="degrade",
            retrain_backoff_base=1.5 * WEEK_SECONDS,
            retrain_backoff_cap=2.0 * WEEK_SECONDS,
        )
        session = SessionCore(config, catalog=catalog)
        plan = FaultPlan(
            learner_crashes=[LearnerCrash(week=drift_week, attempts=1)]
        )
        with faults.install(plan):
            stream(session, shifted)

        status = session.drift_status()
        assert [f.week for f in session.retrain_failures] == [drift_week]
        # the boundary crossed during the backoff evaluated as deferred
        assert status["deferred"] >= 1
        # exactly one drift trigger despite the failure + deferrals
        assert [t["cause"] for t in status["triggers"]] == [
            CAUSE_INITIAL,
            reference.drift_status()["triggers"][1]["cause"],
        ]
        # the retry succeeded for the originally owed week
        assert [r.week for r in session.retrains] == [2, drift_week]
        assert not session.degraded


class TestCheckpointRoundTrip:
    def test_resume_preserves_drift_state(self, catalog, shifted, tmp_path):
        """Checkpoint mid-trace (detectors primed, one retrain behind),
        resume, finish: warnings, retrains and the full drift status all
        match an uninterrupted run."""
        config = adaptive_config()
        reference = OnlinePredictionSession(config, catalog=catalog)
        stream(reference, shifted)
        reference.flush()

        cut = next(
            i
            for i, e in enumerate(shifted)
            if e.timestamp >= 4 * WEEK_SECONDS
        )
        first = OnlinePredictionSession(config, catalog=catalog)
        stream(first, shifted[:cut])
        path = tmp_path / "adaptive.ckpt"
        payload = first.checkpoint(path)
        assert payload["version"] == 3
        assert payload["adapt"] is not None

        resumed = OnlinePredictionSession.resume(path, config, catalog=catalog)
        assert resumed.adaptive
        stream(resumed, shifted[resumed.n_ingested :])
        resumed.flush()

        assert resumed.warnings == reference.warnings
        assert [r.week for r in resumed.retrains] == [
            r.week for r in reference.retrains
        ]
        assert resumed.drift_status() == reference.drift_status()

    def test_fixed_checkpoint_carries_no_drift_state(
        self, catalog, shifted, tmp_path
    ):
        config = FrameworkConfig(initial_train_weeks=2, retrain_weeks=2)
        session = OnlinePredictionSession(config, catalog=catalog)
        stream(session, shifted[:200])
        payload = session.checkpoint(tmp_path / "fixed.ckpt")
        assert payload["version"] == 3
        assert payload["adapt"] is None
