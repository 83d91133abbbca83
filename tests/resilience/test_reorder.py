"""Late/out-of-order event tolerance: ReorderBuffer + session wiring."""

import pytest

from repro.core.framework import FrameworkConfig
from repro.core.online import OnlinePredictionSession
from repro.resilience import ReorderBuffer
from tests.conftest import make_event


def ev(t, code="KERNEL-N-000"):
    return make_event(t, code)


class TestReorderBuffer:
    def test_rejects_nonpositive_slack(self):
        with pytest.raises(ValueError, match="slack"):
            ReorderBuffer(0.0)

    def test_in_order_events_release_after_slack(self):
        buf = ReorderBuffer(10.0)
        ready, dropped = buf.push(ev(0.0))
        assert (ready, dropped) == ([], [])
        ready, _ = buf.push(ev(15.0))
        assert [e.timestamp for e in ready] == [0.0]

    def test_within_slack_events_resequenced(self):
        buf = ReorderBuffer(10.0)
        buf.push(ev(100.0))
        buf.push(ev(95.0))  # late but within slack
        assert buf.n_reordered == 1
        ready, _ = buf.push(ev(120.0))
        assert [e.timestamp for e in ready] == [95.0, 100.0]

    def test_beyond_slack_quarantined_not_raised(self):
        buf = ReorderBuffer(10.0)
        buf.push(ev(100.0))
        ready, dropped = buf.push(ev(80.0))  # older than watermark 90
        assert ready == []
        assert [e.timestamp for e in dropped] == [80.0]
        assert buf.n_quarantined == 1

    def test_ties_release_in_arrival_order(self):
        buf = ReorderBuffer(5.0)
        first, second = ev(50.0, "KERNEL-N-001"), ev(50.0, "KERNEL-N-002")
        buf.push(first)
        buf.push(second)
        ready = buf.drain()
        assert [e.entry_data for e in ready] == [
            "KERNEL-N-001",
            "KERNEL-N-002",
        ]

    def test_release_until_advances_horizon(self):
        buf = ReorderBuffer(10.0)
        buf.push(ev(100.0))
        assert [e.timestamp for e in buf.release_until(100.0)] == [100.0]
        # the clock advance moved the watermark: 85 is now too late
        _, dropped = buf.push(ev(85.0))
        assert len(dropped) == 1

    def test_release_until_watermark_reaches_clock(self):
        # Regression: the watermark must reach the release time itself,
        # not lag it by slack — otherwise an event older than everything
        # just released gets buffered and later comes out of order.
        buf = ReorderBuffer(10.0)
        buf.push(ev(100.0))
        assert [e.timestamp for e in buf.release_until(105.0)] == [100.0]
        assert buf.watermark >= 105.0
        ready, dropped = buf.push(ev(98.0))  # older than the observed clock
        assert ready == []
        assert [e.timestamp for e in dropped] == [98.0]

    def test_drain_moves_watermark_to_newest_event(self):
        buf = ReorderBuffer(10.0)
        buf.push(ev(100.0))
        buf.push(ev(95.0))
        assert [e.timestamp for e in buf.drain()] == [95.0, 100.0]
        _, dropped = buf.push(ev(98.0))  # older than what was drained
        assert [e.timestamp for e in dropped] == [98.0]
        ready, dropped = buf.push(ev(100.0))  # a tie is still in order
        assert ([e.timestamp for e in ready], dropped) == ([100.0], [])

    def test_released_stream_is_nondecreasing(self):
        buf = ReorderBuffer(30.0)
        out = []
        for t in (10.0, 40.0, 25.0, 70.0, 55.0, 90.0, 130.0):
            ready, _ = buf.push(ev(t))
            out.extend(e.timestamp for e in ready)
        out.extend(e.timestamp for e in buf.drain())
        assert out == sorted(out)
        assert len(out) == 7

    def test_pending_does_not_consume(self):
        buf = ReorderBuffer(10.0)
        buf.push(ev(1.0))
        buf.push(ev(2.0))
        assert [e.timestamp for e in buf.pending()] == [1.0, 2.0]
        assert len(buf) == 2


class TestSessionSlack:
    @pytest.fixture(scope="class")
    def slack_config(self):
        return FrameworkConfig(
            initial_train_weeks=2, retrain_weeks=2, reorder_slack=300.0
        )

    def swapped(self, events):
        """Swap every 10th adjacent pair (within-slack disorder)."""
        events = list(events)
        for i in range(0, len(events) - 1, 10):
            if events[i + 1].timestamp - events[i].timestamp < 300.0:
                events[i], events[i + 1] = events[i + 1], events[i]
        return events

    def test_disordered_stream_matches_ordered_run(
        self, small_log, small_config, catalog, slack_config
    ):
        """Within-slack disorder yields the ordered run's warnings."""
        strict = OnlinePredictionSession(small_config, catalog=catalog)
        for event in small_log:
            strict.ingest(event)

        tolerant = OnlinePredictionSession(slack_config, catalog=catalog)
        for event in self.swapped(small_log):
            tolerant.ingest(event)
        tolerant.flush()
        assert tolerant.warnings == strict.warnings
        assert tolerant.n_quarantined == 0
        assert tolerant.summary().n_events == strict.summary().n_events

    def test_too_late_event_quarantined(self, catalog, slack_config):
        session = OnlinePredictionSession(slack_config, catalog=catalog)
        session.ingest(ev(10_000.0))
        dropped = session.ingest(ev(100.0))  # 9900 s late, slack 300
        assert dropped == []  # no warnings, no exception
        assert session.n_quarantined == 1
        assert [e.timestamp for e in session.quarantined] == [100.0]
        assert session.summary().n_quarantined == 1

    def test_strict_default_still_raises(self, catalog, small_config):
        session = OnlinePredictionSession(small_config, catalog=catalog)
        session.ingest(ev(1000.0))
        with pytest.raises(ValueError, match="time order"):
            session.ingest(ev(500.0))

    def test_advance_forces_buffered_events_out(self, catalog, slack_config):
        session = OnlinePredictionSession(slack_config, catalog=catalog)
        session.ingest(ev(50.0))
        assert len(session.history()) == 0  # still buffered
        session.advance(1000.0)
        assert len(session.history()) == 1

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError, match="reorder_slack"):
            FrameworkConfig(reorder_slack=-1.0)

    def test_late_event_after_advance_quarantined(self, catalog):
        """Regression: an event behind the advanced clock is quarantined.

        With the watermark lagging the clock by slack, this event was
        buffered and later released behind ``_last_time``, silently
        rewinding the session clock and unsorting ``history()``.
        """
        config = FrameworkConfig(
            initial_train_weeks=2, retrain_weeks=2, reorder_slack=10.0
        )
        session = OnlinePredictionSession(config, catalog=catalog)
        session.ingest(ev(100.0))
        session.advance(105.0)
        session.ingest(ev(98.0))  # behind the observed clock
        assert [e.timestamp for e in session.quarantined] == [98.0]
        session.ingest(ev(120.0))
        session.flush()
        times = [e.timestamp for e in session.history()]
        assert times == sorted(times) == [100.0, 120.0]
        assert session.last_time == 120.0

    def test_late_event_after_flush_quarantined(self, catalog):
        """Regression: an event behind a flushed one is quarantined.

        The flush released everything without moving the watermark, so
        this event was accepted, buffered, and raised ``ValueError``
        from the engine loop when a later event released it."""
        config = FrameworkConfig(
            initial_train_weeks=2, retrain_weeks=2, reorder_slack=60.0
        )
        session = OnlinePredictionSession(config, catalog=catalog)
        session.ingest(ev(1000.0))
        session.flush()
        session.ingest(ev(950.0))  # behind the flushed event
        assert [e.timestamp for e in session.quarantined] == [950.0]
        session.ingest(ev(2000.0))
        session.flush()
        assert [e.timestamp for e in session.history()] == [1000.0, 2000.0]

    def test_advance_backwards_raises_before_draining(
        self, catalog, slack_config
    ):
        """An invalid advance must not leave partial side effects."""
        session = OnlinePredictionSession(slack_config, catalog=catalog)
        session.ingest(ev(100.0))
        session.ingest(ev(200.0))
        session.advance(150.0)
        assert [e.timestamp for e in session.history()] == [100.0]
        with pytest.raises(ValueError, match="clock moved backwards"):
            session.advance(50.0)
        # 200.0 is still buffered; the failed call drained nothing
        assert [e.timestamp for e in session.history()] == [100.0]
        session.advance(250.0)
        assert [e.timestamp for e in session.history()] == [100.0, 200.0]
