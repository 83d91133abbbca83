"""Tests for the online (streaming) prediction session."""

import numpy as np
import pytest

from repro.core.framework import DynamicMetaLearningFramework, FrameworkConfig
from repro.core.online import OnlinePredictionSession, SessionSummary
from repro.core.windows import static_initial
from repro.evaluation.matching import match_warnings
from repro.utils.timeutil import WEEK_SECONDS
from tests.conftest import make_event, make_log


@pytest.fixture(scope="module")
def config():
    return FrameworkConfig(initial_train_weeks=20, retrain_weeks=4)


class TestBatchEquivalence:
    """The headline guarantee: streaming a log event-by-event yields
    exactly the warnings, retraining schedule, churn and accuracy of a
    batch framework run. Batch and stream each run once, shared by the
    tests below."""

    @pytest.fixture(scope="class")
    def runs(self, mid_trace, config):
        log = mid_trace.clean
        batch = DynamicMetaLearningFramework(
            config, catalog=mid_trace.catalog
        ).run(log)
        session = OnlinePredictionSession(config, catalog=mid_trace.catalog)
        streamed = []
        for event in log:
            streamed.extend(session.ingest(event))
        return batch, session, streamed

    def test_same_warnings_as_batch(self, runs):
        batch, session, streamed = runs
        assert streamed == batch.warnings
        assert session.warnings == batch.warnings

    def test_same_retraining_schedule(self, runs):
        batch, session, _ = runs
        assert [r.week for r in session.retrains] == [
            r.week for r in batch.retrains
        ]
        assert [r.train_span for r in session.retrains] == [
            r.train_span for r in batch.retrains
        ]
        assert session.churn.series() == batch.churn.series()

    def test_summary_matches_batch_metrics(self, runs):
        batch, session, _ = runs
        summary = session.summary()
        assert summary.precision == pytest.approx(batch.overall.precision)
        assert summary.recall == pytest.approx(batch.overall.recall)


PRECURSOR_A = "KERNEL-N-002"
PRECURSOR_B = "KERNEL-N-003"
FATAL = "KERNEL-F-000"


def straddling_log():
    """A stationary A → B → FATAL pattern every 3 hours, with one pattern
    deliberately straddling the week-4 retraining boundary: A arrives 90 s
    before the boundary, B and the failure after it."""
    boundary = 4 * WEEK_SECONDS
    period = 10_800.0
    specs = []
    t = 600.0
    while t + 120.0 < boundary - period:
        specs += [(t, PRECURSOR_A), (t + 60.0, PRECURSOR_B), (t + 120.0, FATAL)]
        t += period
    specs += [
        (boundary - 90.0, PRECURSOR_A),
        (boundary + 30.0, PRECURSOR_B),
        (boundary + 90.0, FATAL),
    ]
    t = boundary + period
    while t + 120.0 < 6 * WEEK_SECONDS:
        specs += [(t, PRECURSOR_A), (t + 60.0, PRECURSOR_B), (t + 120.0, FATAL)]
        t += period
    return make_log(specs)


class TestBoundaryStraddling:
    """Regression for the post-retrain warning loss: precursors that
    arrived just before a retraining boundary must still complete rules
    after the fresh predictor takes over."""

    @pytest.fixture(scope="class")
    def runs(self, catalog):
        log = straddling_log()
        config = FrameworkConfig(initial_train_weeks=2, retrain_weeks=2)
        batch = DynamicMetaLearningFramework(config, catalog=catalog).run(log)
        session = OnlinePredictionSession(config, catalog=catalog)
        streamed = []
        for event in log:
            streamed.extend(session.ingest(event))
        return batch, session, streamed

    def test_stream_equals_batch_across_boundary(self, runs):
        batch, session, streamed = runs
        assert streamed == batch.warnings
        assert session.warnings == batch.warnings

    def test_straddling_precursor_not_lost(self, runs):
        """The two-item rule {A, B} -> FATAL must fire just after the
        boundary, which requires the primed pre-boundary A (the one-item
        {B} rule would fire regardless, so check the rule key)."""
        _, session, _ = runs
        boundary = 4 * WEEK_SECONDS
        key = ("assoc", FATAL, (PRECURSOR_A, PRECURSOR_B))
        fired = [
            w
            for w in session.warnings
            if w.rule_key == key and boundary < w.time <= boundary + 300.0
        ]
        assert fired, "straddling precursor was dropped at the retrain boundary"
        assert fired[0].time == boundary + 30.0
        assert fired[0].predicted == FATAL


class TestSummaryAccounting:
    def test_zero_denominator_precision_and_recall(self):
        matching = match_warnings([], np.zeros(0, dtype=np.float64), [])
        summary = SessionSummary(
            n_events=0, n_fatal=0, n_warnings=0, matching=matching
        )
        assert summary.precision == 0.0
        assert summary.recall == 0.0


class TestLifecycle:
    def test_close_is_idempotent(self, catalog, config):
        with OnlinePredictionSession(config, catalog=catalog) as session:
            session.close()
        session.close()


class TestStreamDiscipline:
    def test_silent_during_initial_training(self, catalog, config):
        session = OnlinePredictionSession(config, catalog=catalog)
        w = session.ingest(make_event(100.0, "KERNEL-N-000"))
        assert w == []
        assert not session.started

    def test_out_of_order_rejected(self, catalog, config):
        session = OnlinePredictionSession(config, catalog=catalog)
        session.ingest(make_event(100.0, "KERNEL-N-000"))
        with pytest.raises(ValueError, match="time order"):
            session.ingest(make_event(50.0, "KERNEL-N-000"))

    def test_event_before_origin_rejected(self, catalog, config):
        session = OnlinePredictionSession(
            config, catalog=catalog, origin=1000.0
        )
        with pytest.raises(ValueError, match="precedes"):
            session.ingest(make_event(10.0, "KERNEL-N-000"))

    def test_advance_backwards_rejected(self, catalog, config):
        session = OnlinePredictionSession(config, catalog=catalog)
        session.advance(500.0)
        with pytest.raises(ValueError, match="backwards"):
            session.advance(100.0)

    def test_current_week_tracks_clock(self, catalog, config):
        session = OnlinePredictionSession(config, catalog=catalog)
        session.advance(3 * WEEK_SECONDS + 10.0)
        assert session.current_week == 3

    def test_history_accumulates(self, catalog, config):
        session = OnlinePredictionSession(config, catalog=catalog)
        for t in (10.0, 20.0, 30.0):
            session.ingest(make_event(t, "KERNEL-N-000"))
        assert len(session.history()) == 3

    def test_static_policy_trains_once(self, mid_trace, catalog):
        config = FrameworkConfig(
            initial_train_weeks=20, policy=static_initial(4)
        )
        session = OnlinePredictionSession(config, catalog=mid_trace.catalog)
        for event in mid_trace.clean:
            session.ingest(event)
        assert len(session.retrains) == 1

    def test_static_span_clamped_to_seen_weeks(self, mid_trace):
        """A static policy longer than the initial training reports only
        the weeks before the boundary: the engine has seen no others."""
        config = FrameworkConfig(
            initial_train_weeks=4, policy=static_initial(3)
        )
        session = OnlinePredictionSession(config, catalog=mid_trace.catalog)
        for event in mid_trace.clean.slice_weeks(0, 6):
            session.ingest(event)
        assert [r.train_span for r in session.retrains] == [(0, 4)]

    def test_sparse_stream_crosses_multiple_boundaries(self, mid_trace, catalog):
        """A long silent gap spanning several retraining boundaries only
        applies the latest retraining (as the batch framework would when
        those weeks contain no events)."""
        config = FrameworkConfig(initial_train_weeks=20, retrain_weeks=4)
        session = OnlinePredictionSession(config, catalog=mid_trace.catalog)
        # feed 22 weeks of real data, then jump to week 35
        for event in mid_trace.clean.slice_weeks(0, 22):
            session.ingest(event)
        session.ingest(make_event(35 * WEEK_SECONDS + 5.0, "KERNEL-N-000"))
        weeks = [r.week for r in session.retrains]
        assert weeks[0] == 20
        assert weeks[-1] == 32  # 20, 24, 28, 32 all crossed
        assert weeks == [20, 24, 28, 32]

    def test_summary_before_start(self, catalog, config):
        session = OnlinePredictionSession(config, catalog=catalog)
        summary = session.summary()
        assert summary.n_warnings == 0
        assert summary.precision == 0.0
        assert summary.recall == 0.0
