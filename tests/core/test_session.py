"""Unit tests for the online session and the shard handle that meters it.

:class:`OnlinePredictionSession` is the ordered event-at-a-time engine
with validation, an optional reorder buffer and an optional write-ahead
journal in front of it, and a :class:`ShardHandle` meters a session for
the fleet service.  These tests pin the engine's behaviour and that
each of the other concerns adds exactly its one effect.
"""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import observe
from repro.core.framework import FrameworkConfig
from repro.core.online import OnlinePredictionSession
from repro.core.windows import TrainingPolicy, static_initial
from repro.raslog.catalog import default_catalog
from repro.resilience.journal import EventJournal
from repro.service.backends import ShardHandle
from repro.utils.timeutil import WEEK_SECONDS
from tests.adapt.conftest import adaptive_config, shift_log
from tests.conftest import make_event, make_log

PRECURSOR_A = "KERNEL-N-002"
PRECURSOR_B = "KERNEL-N-003"
FATAL = "KERNEL-F-000"


def pattern_log(weeks=6):
    period = 10_800.0
    specs = []
    t = 600.0
    while t + 120.0 < weeks * WEEK_SECONDS:
        specs += [(t, PRECURSOR_A), (t + 60.0, PRECURSOR_B), (t + 120.0, FATAL)]
        t += period
    return make_log(specs)


def fast_config(**overrides):
    return FrameworkConfig(
        initial_train_weeks=2, retrain_weeks=2, **overrides
    )


class TestSession:
    def test_orders_enforced(self, catalog):
        session = OnlinePredictionSession(fast_config(), catalog=catalog)
        session.ingest(make_event(100.0, PRECURSOR_A))
        with pytest.raises(ValueError, match="time order"):
            session.ingest(make_event(50.0, PRECURSOR_B))
        with pytest.raises(ValueError, match="clock moved backwards"):
            session.advance(50.0)

    def test_rejects_pre_origin_events(self, catalog):
        session = OnlinePredictionSession(
            fast_config(), catalog=catalog, origin=1000.0
        )
        with pytest.raises(ValueError, match="precedes the session origin"):
            session.ingest(make_event(999.0, PRECURSOR_A))

    def test_trains_at_boundary_and_predicts(self, catalog):
        session = OnlinePredictionSession(fast_config(), catalog=catalog)
        assert not session.started
        warnings = []
        for event in pattern_log():
            warnings.extend(session.ingest(event))
        assert session.started
        assert [r.week for r in session.retrains] == [2, 4]
        assert warnings
        assert session.warnings == warnings
        summary = session.summary()
        assert summary.n_warnings == len(warnings)
        assert summary.precision > 0.9

    def test_flush_is_a_noop(self, catalog, tmp_path):
        """Without a reorder buffer the session holds nothing back:
        flush returns nothing and journals nothing."""
        journal = EventJournal(tmp_path / "j", fsync="never")
        session = OnlinePredictionSession(
            fast_config(), catalog=catalog, journal=journal
        )
        session.ingest(make_event(100.0, PRECURSOR_A))
        assert session.flush() == []
        assert journal.position == 1
        journal.close()


#: Configs whose retrainings a split stream must reproduce: a sliding
#: window retraining every two weeks, a static window that trains once,
#: and the drift-triggered policy (weekly evaluations, a retrain after
#: the week-4 pattern shift).
BATCH_CONFIGS = {
    "sliding": FrameworkConfig(
        initial_train_weeks=2,
        retrain_weeks=2,
        policy=TrainingPolicy(kind="sliding", length_weeks=3),
    ),
    "static": FrameworkConfig(
        initial_train_weeks=2, retrain_weeks=2, policy=static_initial()
    ),
    "adaptive": adaptive_config(),
}
SHIFTED = list(shift_log(weeks=8, shift_week=4))


def outcome(session, registry):
    summary = session.summary()
    return (
        session.warnings,
        [
            (r.week, r.train_span, r.n_candidates, r.n_kept, r.churn)
            for r in session.retrains
        ],
        (summary.n_events, summary.n_fatal, summary.n_warnings),
        (summary.precision, summary.recall),
        registry.counter("online.events").value,
    )


@functools.cache
def per_event_outcome(policy):
    registry = observe.MetricsRegistry()
    session = OnlinePredictionSession(
        BATCH_CONFIGS[policy], catalog=default_catalog()
    )
    with observe.use_registry(registry):
        for event in SHIFTED:
            session.ingest(event)
    return outcome(session, registry)


class TestIngestBatch:
    @settings(max_examples=15, deadline=None)
    @given(
        policy=st.sampled_from(sorted(BATCH_CONFIGS)),
        cuts=st.lists(st.integers(0, len(SHIFTED)), max_size=8),
    )
    @example(policy="sliding", cuts=[])
    @example(policy="adaptive", cuts=[])
    def test_any_split_equals_per_event_ingest(self, policy, cuts):
        """Batches that cross retraining boundaries (and evaluations)
        mid-batch raise the same warnings, retrain the same weeks and
        count the same events as feeding one event at a time."""
        bounds = [0, *sorted(set(cuts)), len(SHIFTED)]
        registry = observe.MetricsRegistry()
        session = OnlinePredictionSession(
            BATCH_CONFIGS[policy], catalog=default_catalog()
        )
        returned = []
        with observe.use_registry(registry):
            for lo, hi in zip(bounds, bounds[1:]):
                returned.extend(session.ingest_batch(SHIFTED[lo:hi]))
        assert returned == session.warnings
        assert outcome(session, registry) == per_event_outcome(policy)

    def test_out_of_order_mid_batch_applies_nothing(self, catalog):
        """A batch with an event out of time order is rejected whole:
        the events ahead of it are not applied either."""
        registry = observe.MetricsRegistry()
        session = OnlinePredictionSession(fast_config(), catalog=catalog)
        batch = [
            make_event(100.0, PRECURSOR_A),
            make_event(200.0, PRECURSOR_B),
            make_event(150.0, PRECURSOR_A),
            make_event(300.0, PRECURSOR_B),
        ]
        with observe.use_registry(registry):
            with pytest.raises(ValueError, match="time order"):
                session.ingest_batch(batch)
        assert session.last_time == 0.0
        assert session.n_ingested == 0
        assert session.summary().n_events == 0
        assert registry.counter("online.events").value == 0

    def test_cached_instruments_follow_a_registry_swap(self, catalog, tmp_path):
        """The session and its shard handle look their instruments up
        once per registry: after a ``use_registry`` swap they record
        into the new registry only."""
        journal = EventJournal(tmp_path / "j", fsync="always")
        session = OnlinePredictionSession(
            fast_config(), catalog=catalog, journal=journal
        )
        shard = ShardHandle("R01", 0, None, session)
        events = list(pattern_log(1))[:6]
        first, second = observe.MetricsRegistry(), observe.MetricsRegistry()
        with observe.use_registry(first):
            shard.ingest_batch(events[:4])
        with observe.use_registry(second):
            shard.ingest_batch(events[4:])
        journal.close()
        for registry, n in ((first, 4), (second, 2)):
            assert registry.counter("online.events").value == n
            assert registry.counter("service.events", shard="R01").value == n
            assert registry.histogram("service.ingest", shard="R01").count == 1
            assert registry.counter("journal.appends").value == n
            assert registry.counter("journal.fsyncs").value == 1


class TestReorderingLayer:
    def test_heals_disorder_within_slack(self, catalog):
        log = list(pattern_log())
        swapped = log.copy()
        swapped[10], swapped[11] = swapped[11], swapped[10]

        straight = OnlinePredictionSession(fast_config(), catalog=catalog)
        for event in log:
            straight.ingest(event)

        session = OnlinePredictionSession(
            fast_config(reorder_slack=300.0), catalog=catalog
        )
        for event in swapped:
            session.ingest(event)
        session.flush()
        assert session.n_quarantined == 0
        assert session.warnings == straight.warnings

    def test_quarantines_beyond_slack(self, catalog):
        registry = observe.MetricsRegistry()
        session = OnlinePredictionSession(
            fast_config(reorder_slack=60.0), catalog=catalog
        )
        with observe.use_registry(registry):
            session.ingest(make_event(10_000.0, PRECURSOR_A))
            session.ingest(make_event(100.0, PRECURSOR_B))  # hopelessly late
            session.flush()
        assert session.n_quarantined == 1
        assert len(session.quarantined) == 1
        assert session.quarantined[0].timestamp == 100.0
        assert registry.counter("online.quarantined").value == 1


class TestJournalingLayer:
    def test_appends_before_delegating(self, catalog, tmp_path):
        """``ingest`` appends one record, ``ingest_batch`` appends its
        events as one group commit, and a flush is journaled (a reorder
        buffer exists)."""
        registry = observe.MetricsRegistry()
        journal = EventJournal(tmp_path / "j", fsync="always")
        session = OnlinePredictionSession(
            fast_config(reorder_slack=60.0), catalog=catalog, journal=journal
        )
        with observe.use_registry(registry):
            session.ingest(make_event(100.0, PRECURSOR_A))
            session.advance(200.0)
            session.flush()
            session.ingest_batch(
                [make_event(300.0, PRECURSOR_A), make_event(310.0, PRECURSOR_B)]
            )
        journal.close()
        assert registry.counter("journal.appends").value == 5
        # One fsync each for the ingest, advance and flush records, and
        # one for the 2-event batch (close() syncs outside the registry).
        assert registry.counter("journal.fsyncs").value == 4

        replayed = [
            record
            for _, record in EventJournal(tmp_path / "j", fsync="never").replay()
        ]
        assert [r["kind"] for r in replayed] == [
            "ingest", "advance", "flush", "ingest", "ingest"
        ]
        assert replayed[0]["event"]["timestamp"] == 100.0
        assert replayed[1]["now"] == 200.0

    def test_rejected_event_is_not_journaled(self, catalog, tmp_path):
        journal = EventJournal(tmp_path / "j", fsync="never")
        session = OnlinePredictionSession(
            fast_config(), catalog=catalog, origin=50.0, journal=journal
        )
        session.ingest(make_event(100.0, PRECURSOR_A))
        with pytest.raises(ValueError, match="time order"):
            session.ingest(make_event(90.0, PRECURSOR_B))
        with pytest.raises(ValueError, match="precedes the session origin"):
            session.ingest(make_event(10.0, PRECURSOR_B))
        assert journal.position == 1
        assert session.n_ingested == 1
        journal.close()

    def test_replay_skips_the_journal(self, catalog, tmp_path):
        """Recovery re-feeds the journal through the public API without
        appending the replayed records a second time."""
        journal = EventJournal(tmp_path / "j", fsync="never")
        session = OnlinePredictionSession(
            fast_config(reorder_slack=60.0), catalog=catalog, journal=journal
        )
        session.ingest(make_event(100.0, PRECURSOR_A))
        session.advance(150.0)
        session.flush()
        journal.close()

        journal = EventJournal(tmp_path / "j", fsync="never")
        recovered = OnlinePredictionSession.recover(
            tmp_path / "no.ckpt",
            journal,
            fast_config(reorder_slack=60.0),
            catalog=catalog,
        )
        assert recovered.n_ingested == 1
        assert [e.timestamp for e in recovered.history()] == [100.0]
        assert journal.position == 3
        recovered.ingest(make_event(200.0, PRECURSOR_A))
        journal.close()
        replayed = [
            record
            for _, record in EventJournal(tmp_path / "j", fsync="never").replay()
        ]
        assert [r["kind"] for r in replayed] == [
            "ingest", "advance", "flush", "ingest"
        ]
        assert replayed[-1]["event"]["timestamp"] == 200.0


class TestMeteredLayer:
    def test_records_labeled_series(self, catalog):
        registry = observe.MetricsRegistry()
        session = OnlinePredictionSession(fast_config(), catalog=catalog)
        shard = ShardHandle("R01", 0, None, session)
        with observe.use_registry(registry):
            for event in pattern_log(3):
                shard.ingest_batch([event])
        events = registry.counter("service.events", shard="R01")
        assert events.value == len(pattern_log(3))
        assert registry.histogram("service.ingest", shard="R01").count > 0
        assert registry.counter("service.warnings", shard="R01").value == len(
            session.warnings
        )
        assert registry.gauge("service.degraded", shard="R01").value == 0.0

    def test_unmetered_until_build_is_finalized(self, catalog, tmp_path):
        registry = observe.MetricsRegistry()
        journal = EventJournal(tmp_path / "j", fsync="never")
        session = OnlinePredictionSession(
            fast_config(), catalog=catalog, journal=journal
        )
        shard = ShardHandle("R01", 0, tmp_path, session, metered=False)
        with observe.use_registry(registry):
            shard.ingest_batch([make_event(100.0, PRECURSOR_A)])
            shard.advance(150.0)
            assert not any(
                name.startswith("service.") for name in registry.snapshot()
            )
            shard.finalize_build("always")
            shard.ingest_batch([make_event(200.0, PRECURSOR_B)])
        journal.close()
        assert registry.counter("service.events", shard="R01").value == 1
        assert registry.histogram("service.ingest", shard="R01").count == 1
