"""Chaos suite: the resilience contracts under injected faults.

Every test here installs a deterministic :class:`repro.faults.FaultPlan`
(or corrupts its input with the seedable helpers) and pins the promised
behaviour: degraded-mode sessions keep predicting and recover, killed
shards are isolated and restored, garbage in the stream is skipped and
counted, and clock jitter within the reorder slack changes nothing.

Run with ``pytest -m chaos`` (deselected from the default suite).
"""

import pytest

from repro import faults, observe
from repro.core.framework import DynamicMetaLearningFramework, FrameworkConfig
from repro.core.online import OnlinePredictionSession
from repro.faults import (
    FaultInjected,
    FaultPlan,
    LearnerCrash,
    ShardKill,
)
from repro.raslog.parser import ParseError, ParseReport, dump_log, load_log
from repro.resilience.degrade import backoff_delay
from repro.service import PredictionService, ShardDown
from repro.utils.timeutil import WEEK_SECONDS
from tests.conftest import make_event, make_log

pytestmark = pytest.mark.chaos

PRECURSOR_A = "KERNEL-N-002"
PRECURSOR_B = "KERNEL-N-003"
FATAL = "KERNEL-F-000"


def pattern_log(weeks=8):
    period = 10_800.0
    specs = []
    t = 600.0
    while t + 120.0 < weeks * WEEK_SECONDS:
        specs += [(t, PRECURSOR_A), (t + 60.0, PRECURSOR_B), (t + 120.0, FATAL)]
        t += period
    return make_log(specs)


def degrade_config(**overrides):
    return FrameworkConfig(
        initial_train_weeks=2,
        retrain_weeks=2,
        on_retrain_error="degrade",
        **overrides,
    )


def stream(session, events):
    for event in events:
        session.ingest(event)
    return session


class TestDegradedSession:
    def test_transient_crash_absorbed_and_retried(self, catalog):
        """The degraded-mode contract: one crashing retraining neither
        kills the session nor silences it — the previous rules keep
        predicting, the failure is recorded, and the backoff-elapsed
        retry lands on the next ingest, not the next boundary."""
        log = pattern_log()
        plan = FaultPlan(learner_crashes=[LearnerCrash(week=4, attempts=1)])
        registry = observe.MetricsRegistry()
        session = OnlinePredictionSession(degrade_config(), catalog=catalog)
        with observe.use_registry(registry), faults.install(plan):
            stream(session, log)

        assert plan.injected == ["train:4:1"]
        assert len(session.retrain_failures) == 1
        failure = session.retrain_failures[0]
        assert failure.week == 4
        assert failure.attempt == 1
        assert failure.error_type == "FaultInjected"
        # the retry succeeded well before the next boundary
        assert [r.week for r in session.retrains] == [2, 4, 6]
        retry_gap = session.retrains[1].week * WEEK_SECONDS  # boundary
        assert failure.time - retry_gap < 10_800.0  # failed near boundary
        assert not session.degraded
        assert registry.counter("online.retrain_failures").value == 1
        assert registry.counter("online.degraded_seconds").value > 0
        # warnings kept flowing after the failed retraining
        assert any(w.time > failure.time for w in session.warnings)
        assert session.summary().retrain_failures == session.retrain_failures

    def test_persistent_crash_backs_off_until_next_boundary(self, catalog):
        """A persistently failing week keeps the old rules alive; the
        retry cadence respects exponential backoff and the next healthy
        boundary recovers the session."""
        log = pattern_log()
        plan = FaultPlan(
            learner_crashes=[LearnerCrash(week=4, attempts=10**9)]
        )
        config = degrade_config(
            retrain_backoff_base=3600.0, retrain_backoff_cap=14_400.0
        )
        session = OnlinePredictionSession(config, catalog=catalog)
        with faults.install(plan):
            stream(session, log)

        failures = session.retrain_failures
        assert len(failures) >= 3
        assert all(f.week == 4 for f in failures)
        assert [f.attempt for f in failures] == list(
            range(1, len(failures) + 1)
        )
        for earlier, later in zip(failures, failures[1:]):
            assert later.time - earlier.time >= backoff_delay(
                earlier.attempt, 3600.0, 14_400.0
            )
        # week 6 is healthy: it supersedes the owed week and recovers
        assert [r.week for r in session.retrains] == [2, 6]
        assert not session.degraded
        # the old rules kept predicting through the degraded stretch
        degraded_span = (failures[0].time, session.retrains[-1].week * WEEK_SECONDS)
        assert any(
            degraded_span[0] < w.time < degraded_span[1]
            for w in session.warnings
        )

    def test_raise_mode_still_fails_fast(self, catalog):
        log = pattern_log(6)
        plan = FaultPlan(learner_crashes=[LearnerCrash(week=4, attempts=1)])
        config = FrameworkConfig(initial_train_weeks=2, retrain_weeks=2)
        session = OnlinePredictionSession(config, catalog=catalog)
        with faults.install(plan), pytest.raises(FaultInjected):
            stream(session, log)

    def test_degraded_checkpoint_resumes_identically(self, catalog, tmp_path):
        """Killing a session *while degraded* and resuming reproduces the
        uninterrupted faulted run exactly — backoff clock, attempt
        counter and failure records all survive the round trip."""
        log = pattern_log()
        events = list(log)
        config = degrade_config(
            retrain_backoff_base=3600.0, retrain_backoff_cap=14_400.0
        )

        def crash_plan():
            return FaultPlan(
                learner_crashes=[LearnerCrash(week=4, attempts=10**9)]
            )

        reference = OnlinePredictionSession(config, catalog=catalog)
        with faults.install(crash_plan()):
            stream(reference, events)

        cut = next(
            i
            for i, e in enumerate(events)
            if e.timestamp > reference.retrain_failures[1].time
        )
        first = OnlinePredictionSession(config, catalog=catalog)
        with faults.install(crash_plan()):
            stream(first, events[:cut])
        assert first.degraded
        path = tmp_path / "degraded.ckpt"
        first.checkpoint(path)

        resumed = OnlinePredictionSession.resume(path, config, catalog=catalog)
        assert resumed.degraded
        with faults.install(crash_plan()):
            stream(resumed, events[resumed.n_ingested:])
        assert resumed.warnings == reference.warnings
        # the error text embeds the fresh plan's own attempt counter, so
        # compare the session-owned fields
        assert [
            (f.week, f.error_type, f.attempt, f.time)
            for f in resumed.retrain_failures
        ] == [
            (f.week, f.error_type, f.attempt, f.time)
            for f in reference.retrain_failures
        ]
        assert [r.week for r in resumed.retrains] == [
            r.week for r in reference.retrains
        ]


class TestDegradedBatch:
    def test_framework_degrade_records_and_retries(self, catalog):
        """A degraded batch run follows the stream's single retry policy
        (capped backoff, not "next week"): same failures, same retrain
        schedule, same warnings as a streamed session."""
        log = pattern_log()

        def plan():
            return FaultPlan(learner_crashes=[LearnerCrash(week=4, attempts=1)])

        with faults.install(plan()):
            result = DynamicMetaLearningFramework(
                degrade_config(), catalog=catalog
            ).run(log)
        session = OnlinePredictionSession(degrade_config(), catalog=catalog)
        with faults.install(plan()):
            stream(session, log)

        assert [f.week for f in result.retrain_failures] == [4]
        assert [
            (f.week, f.error_type, f.attempt, f.time)
            for f in result.retrain_failures
        ] == [
            (f.week, f.error_type, f.attempt, f.time)
            for f in session.retrain_failures
        ]
        assert [r.week for r in result.retrains] == [
            r.week for r in session.retrains
        ]
        assert result.warnings == session.warnings

    def test_framework_default_raises(self, catalog):
        log = pattern_log(6)
        plan = FaultPlan(learner_crashes=[LearnerCrash(week=4, attempts=1)])
        config = FrameworkConfig(initial_train_weeks=2, retrain_weeks=2)
        with faults.install(plan), pytest.raises(FaultInjected):
            DynamicMetaLearningFramework(config, catalog=catalog).run(log)


FLEET_LOCS = ["R00-M0-N00", "R01-M1-N01", "R02-M0-N03"]


def fleet_pattern_log(weeks=8, locations=FLEET_LOCS):
    """Per-location pattern streams merged into one time-sorted fleet log."""
    events = []
    rid = 0
    for offset, location in enumerate(locations):
        t = 600.0 + offset * 37.0
        while t + 120.0 < weeks * WEEK_SECONDS:
            for dt, code in (
                (0.0, PRECURSOR_A),
                (60.0, PRECURSOR_B),
                (120.0, FATAL),
            ):
                events.append(
                    make_event(t + dt, code, location=location, record_id=rid)
                )
                rid += 1
            t += 10_800.0
    events.sort(key=lambda e: (e.timestamp, e.record_id))
    return events


class TestShardKill:
    def test_kill_one_shard_fleet_keeps_serving_and_recovers(
        self, catalog, tmp_path
    ):
        """The blast-radius contract: a chaos kill of one shard leaves
        every other shard's warnings untouched, and full-fleet recovery
        from the per-shard journals reproduces the uninterrupted run
        exactly — victim included."""
        events = fleet_pattern_log()
        config = degrade_config()
        victim = FLEET_LOCS[1]

        reference = PredictionService(config, catalog=catalog)
        for event in events:
            reference.ingest(event)
        reference.flush()

        fleet = tmp_path / "fleet"
        plan = FaultPlan(shard_kills=[ShardKill(shard=victim, at_count=50)])
        registry = observe.MetricsRegistry()
        service = PredictionService(
            config, catalog=catalog, fleet_dir=fleet, journal_fsync="never"
        )
        down_rejections = 0
        with observe.use_registry(registry), faults.install(plan):
            for event in events:
                try:
                    service.ingest(event)
                except FaultInjected:
                    pass  # the kill: event was never durable
                except ShardDown:
                    down_rejections += 1  # victim stays down, fleet serves on
            service.flush()
        assert plan.injected == [f"shard:{victim}:50"]
        assert service.down_shards == {victim}
        assert down_rejections > 0
        assert registry.counter("service.shard_kills", shard=victim).value == 1
        # the survivors never noticed
        for key in FLEET_LOCS:
            if key == victim:
                continue
            assert (
                service.session(key).warnings
                == reference.session(key).warnings
            )
        service.close()

        # full-fleet recovery: journals bring the victim back, then
        # re-delivering each shard's missing tail converges on the
        # uninterrupted run
        recovered = PredictionService.recover(
            fleet, catalog=catalog, journal_fsync="never"
        )
        assert recovered.down_shards == set()
        skipped = {
            k: recovered.session(k).n_ingested for k in recovered.shard_keys
        }
        for event in events:
            key = recovered.router.key(event)
            if skipped.get(key, 0) > 0:
                skipped[key] -= 1
                continue
            recovered.ingest(event)
        recovered.flush()
        for key in FLEET_LOCS:
            assert (
                recovered.session(key).warnings
                == reference.session(key).warnings
            )
        ours, theirs = recovered.summary(), reference.summary()
        assert (ours.n_events, ours.n_fatal, ours.n_warnings) == (
            theirs.n_events,
            theirs.n_fatal,
            theirs.n_warnings,
        )
        assert ours.precision == theirs.precision
        assert ours.recall == theirs.recall
        recovered.close()

    def test_kill_during_degraded_retraining(self, catalog, tmp_path):
        """Composed faults: the victim shard is killed while the whole
        fleet is absorbing retrain crashes in degraded mode; recovery
        restores the victim's degraded-mode bookkeeping from disk."""
        events = fleet_pattern_log()
        config = degrade_config()
        victim = FLEET_LOCS[0]
        kill_plan = FaultPlan(
            learner_crashes=[LearnerCrash(week=4, attempts=10**9)],
            shard_kills=[ShardKill(shard=victim, at_count=120)],
        )
        fleet = tmp_path / "fleet"
        service = PredictionService(
            config, catalog=catalog, fleet_dir=fleet, journal_fsync="never"
        )
        with faults.install(kill_plan):
            for event in events:
                try:
                    service.ingest(event)
                except (FaultInjected, ShardDown):
                    continue
            service.flush()
        assert service.down_shards == {victim}
        assert any(f"shard:{victim}" in r for r in kill_plan.injected)
        assert any(r.startswith("train:") for r in kill_plan.injected)
        service.close()

        reference = PredictionService(config, catalog=catalog)
        with faults.install(
            FaultPlan(learner_crashes=[LearnerCrash(week=4, attempts=10**9)])
        ):
            for event in events:
                reference.ingest(event)
            reference.flush()

            recovered = PredictionService.recover(
                fleet, catalog=catalog, journal_fsync="never"
            )
            skipped = {
                k: recovered.session(k).n_ingested
                for k in recovered.shard_keys
            }
            for event in events:
                key = recovered.router.key(event)
                if skipped.get(key, 0) > 0:
                    skipped[key] -= 1
                    continue
                recovered.ingest(event)
            recovered.flush()
        for key in FLEET_LOCS:
            assert (
                recovered.session(key).warnings
                == reference.session(key).warnings
            )
        recovered.close()


class TestCorruptedStream:
    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        log = pattern_log(2)
        path = tmp_path / "trace.log"
        dump_log(log, path)
        lines = path.read_text().splitlines()
        corrupted = faults.corrupt_lines(lines, fraction=0.2, seed=11)
        assert corrupted != lines
        path.write_text("\n".join(corrupted) + "\n")

        report = ParseReport()
        parsed = load_log(path, report=report)
        assert report.skipped > 0
        assert len(parsed) == report.parsed
        assert len(parsed) < len(log)

        with pytest.raises(ParseError):
            load_log(path, strict=True)

    def test_jitter_within_slack_is_equivalent(self, catalog):
        """Clock jitter smaller than the reorder slack is fully healed:
        the tolerant session reproduces the warnings of a strict run
        over the time-sorted stream."""
        log = pattern_log(6)
        jittered = faults.jitter_timestamps(
            list(log), fraction=0.3, max_jitter=120.0, seed=3
        )
        assert [e.timestamp for e in jittered] != [e.timestamp for e in log]

        strict = OnlinePredictionSession(
            FrameworkConfig(initial_train_weeks=2, retrain_weeks=2),
            catalog=catalog,
        )
        stream(strict, sorted(jittered, key=lambda e: e.timestamp))

        tolerant = OnlinePredictionSession(
            FrameworkConfig(
                initial_train_weeks=2, retrain_weeks=2, reorder_slack=300.0
            ),
            catalog=catalog,
        )
        stream(tolerant, jittered)
        tolerant.flush()
        assert tolerant.n_quarantined == 0
        assert tolerant.warnings == strict.warnings
