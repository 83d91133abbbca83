"""Checkpoint/resume: crash-recovery equivalence and file hardening.

The headline contract: a session killed mid-stream and resumed from its
last checkpoint continues *warning-for-warning identically* to one that
never stopped, and its final :class:`SessionSummary` matches exactly
(no double counting, no lost accounting).
"""

import dataclasses
import json
import os
import stat as stat_module

import pytest

from repro.core.framework import FrameworkConfig
from repro.core.online import OnlinePredictionSession
from repro.resilience import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    EventJournal,
    atomic_write_json,
    config_digest,
    config_from_dict,
    config_to_dict,
    read_checkpoint,
)
from tests.conftest import make_event


def stream(session, events):
    for event in events:
        session.ingest(event)
    return session


def run_uninterrupted(log, config, catalog):
    return stream(OnlinePredictionSession(config, catalog=catalog), log)


def assert_summaries_equal(got, want):
    assert got.n_events == want.n_events
    assert got.n_fatal == want.n_fatal
    assert got.n_warnings == want.n_warnings
    assert got.n_quarantined == want.n_quarantined
    assert [r.week for r in got.retrains] == [r.week for r in want.retrains]
    assert got.retrain_failures == want.retrain_failures
    assert got.matching.true_positives == want.matching.true_positives
    assert got.matching.false_positives == want.matching.false_positives
    assert got.matching.false_negatives == want.matching.false_negatives
    assert got.precision == want.precision
    assert got.recall == want.recall


class TestCrashRecovery:
    @pytest.fixture(scope="class")
    def reference(self, small_log, small_config, catalog):
        return run_uninterrupted(small_log, small_config, catalog)

    @pytest.mark.parametrize("fraction", [0.3, 0.6, 0.9])
    def test_resume_is_warning_for_warning_identical(
        self, small_log, small_config, catalog, reference, tmp_path, fraction
    ):
        """Kill mid-stream, resume, finish: identical warning stream."""
        events = list(small_log)
        cut = int(len(events) * fraction)
        first = stream(
            OnlinePredictionSession(small_config, catalog=catalog),
            events[:cut],
        )
        path = tmp_path / "session.ckpt"
        first.checkpoint(path)
        # a real crash loses everything after the checkpoint
        del first

        resumed = OnlinePredictionSession.resume(
            path, small_config, catalog=catalog
        )
        stream(resumed, events[resumed.n_ingested:])
        assert resumed.warnings == reference.warnings
        assert_summaries_equal(resumed.summary(), reference.summary())

    def test_summary_not_double_counted_across_two_resumes(
        self, small_log, small_config, catalog, reference, tmp_path
    ):
        """Regression: resuming twice must not inflate any summary count."""
        events = list(small_log)
        path = tmp_path / "session.ckpt"
        session = OnlinePredictionSession(small_config, catalog=catalog)
        for stop in (len(events) // 3, 2 * len(events) // 3):
            stream(session, events[session.n_ingested:stop])
            session.checkpoint(path)
            session = OnlinePredictionSession.resume(
                path, small_config, catalog=catalog
            )
        stream(session, events[session.n_ingested:])
        assert session.warnings == reference.warnings
        assert_summaries_equal(session.summary(), reference.summary())

    def test_checkpoint_during_initial_training(
        self, small_log, small_config, catalog, reference, tmp_path
    ):
        """A checkpoint taken before the first retraining (no predictor
        yet) resumes into the same final state."""
        events = list(small_log)
        boundary = 2 * 604_800.0
        cut = next(i for i, e in enumerate(events) if e.timestamp > boundary / 2)
        first = stream(
            OnlinePredictionSession(small_config, catalog=catalog),
            events[:cut],
        )
        assert not first.started
        path = tmp_path / "early.ckpt"
        first.checkpoint(path)
        resumed = OnlinePredictionSession.resume(
            path, small_config, catalog=catalog
        )
        assert not resumed.started
        stream(resumed, events[resumed.n_ingested:])
        assert resumed.warnings == reference.warnings
        assert_summaries_equal(resumed.summary(), reference.summary())

    def test_resume_without_explicit_config(
        self, small_log, small_config, catalog, tmp_path
    ):
        """The checkpoint carries its config; resume(path) alone works."""
        events = list(small_log)
        first = stream(
            OnlinePredictionSession(small_config, catalog=catalog),
            events[: len(events) // 2],
        )
        path = tmp_path / "session.ckpt"
        first.checkpoint(path)
        resumed = OnlinePredictionSession.resume(path, catalog=catalog)
        assert resumed.config == small_config
        assert resumed.n_ingested == first.n_ingested


class TestFileHardening:
    def checkpointed(self, small_log, small_config, catalog, path):
        events = list(small_log)
        session = stream(
            OnlinePredictionSession(small_config, catalog=catalog),
            events[: len(events) // 2],
        )
        session.checkpoint(path)
        return session

    def test_version_mismatch_rejected(
        self, small_log, small_config, catalog, tmp_path
    ):
        path = tmp_path / "session.ckpt"
        self.checkpointed(small_log, small_config, catalog, path)
        payload = json.loads(path.read_text())
        payload["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            OnlinePredictionSession.resume(path, small_config, catalog=catalog)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(CheckpointError, match=CHECKPOINT_FORMAT):
            read_checkpoint(path)

    def test_torn_file_rejected(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_text('{"format": "repro-session-ch')
        with pytest.raises(CheckpointError, match="JSON"):
            read_checkpoint(path)

    def test_config_digest_mismatch_rejected(
        self, small_log, small_config, catalog, tmp_path
    ):
        """Resuming under different semantics must fail loudly."""
        path = tmp_path / "session.ckpt"
        self.checkpointed(small_log, small_config, catalog, path)
        other = FrameworkConfig(
            initial_train_weeks=2, retrain_weeks=2, prediction_window=600.0
        )
        with pytest.raises(CheckpointError, match="digest"):
            OnlinePredictionSession.resume(path, other, catalog=catalog)

    def test_atomic_write_preserves_previous_on_failure(self, tmp_path):
        """A failed write leaves the previous checkpoint intact."""
        path = tmp_path / "session.ckpt"
        atomic_write_json(path, {"format": CHECKPOINT_FORMAT, "n": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert json.loads(path.read_text())["n"] == 1
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def test_checkpoint_is_strict_json_before_first_event(
        self, catalog, tmp_path
    ):
        """A fresh slack session's checkpoint must be parseable JSON.

        Reorder ``max_seen`` is ``-inf`` until the first event;
        ``json.dump`` would emit the non-standard token ``-Infinity``
        that strict parsers (jq, other languages) reject.
        """
        config = FrameworkConfig(
            initial_train_weeks=2, retrain_weeks=2, reorder_slack=300.0
        )
        session = OnlinePredictionSession(config, catalog=catalog)
        path = tmp_path / "fresh.ckpt"
        session.checkpoint(path)
        text = path.read_text()
        assert "Infinity" not in text
        json.loads(
            text,
            parse_constant=lambda s: pytest.fail(
                f"non-standard JSON constant {s!r} in checkpoint"
            ),
        )
        resumed = OnlinePredictionSession.resume(path, catalog=catalog)
        assert resumed._reorder_buffer is not None
        assert resumed._reorder_buffer.max_seen == float("-inf")
        resumed.ingest(small_event := make_event(500.0, "KERNEL-N-000"))
        assert resumed._reorder_buffer.max_seen == small_event.timestamp

    def test_config_round_trips_through_dict(self, small_config):
        clone = config_from_dict(config_to_dict(small_config))
        assert config_digest(clone) == config_digest(small_config)
        degraded = dataclasses.replace(small_config, on_retrain_error="degrade")
        assert config_digest(degraded) != config_digest(small_config)

    def test_atomic_write_fsyncs_file_then_directory(
        self, tmp_path, monkeypatch
    ):
        """Durability fd discipline: the temp file must be fsynced before
        the rename, and the parent *directory* after it — without the
        directory fsync a power loss can make the checkpoint vanish."""
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(stat_module.S_ISDIR(os.fstat(fd).st_mode))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        atomic_write_json(tmp_path / "s.ckpt", {"format": CHECKPOINT_FORMAT})
        assert True in synced and False in synced
        # The file fsync happens strictly before the directory fsync
        # (fsyncing the dir entry of a not-yet-durable file is useless).
        assert synced.index(False) < synced.index(True)

    def test_v1_checkpoint_still_readable(
        self, small_log, small_config, catalog, tmp_path
    ):
        """Pre-journal (v1) checkpoints resume fine: the journal field
        simply is not there."""
        path = tmp_path / "session.ckpt"
        self.checkpointed(small_log, small_config, catalog, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == CHECKPOINT_VERSION == 3
        payload["version"] = 1
        del payload["journal"]
        del payload["adapt"]
        path.write_text(json.dumps(payload))
        resumed = OnlinePredictionSession.resume(
            path, small_config, catalog=catalog
        )
        assert resumed.n_ingested > 0


class TestJournalPosition:
    def test_checkpoint_records_journal_position(
        self, small_log, small_config, catalog, tmp_path
    ):
        events = list(small_log)
        journal = EventJournal(tmp_path / "wal", fsync="never")
        session = OnlinePredictionSession(
            small_config, catalog=catalog, journal=journal
        )
        for event in events[:40]:
            session.ingest(event)
        payload = session.checkpoint(tmp_path / "s.ckpt")
        assert payload["journal"] == {"position": 40}
        assert journal.position == 40
        journal.close()

    def test_journalless_checkpoint_records_null(
        self, small_log, small_config, catalog, tmp_path
    ):
        session = OnlinePredictionSession(small_config, catalog=catalog)
        for event in list(small_log)[:10]:
            session.ingest(event)
        payload = session.checkpoint(tmp_path / "s.ckpt")
        assert payload["journal"] is None

    def test_unaligned_journal_rejected(
        self, small_log, small_config, catalog, tmp_path
    ):
        """A checkpoint with no recorded position must not guess where
        replay starts when the journal is non-empty."""
        events = list(small_log)
        path = tmp_path / "s.ckpt"
        session = OnlinePredictionSession(small_config, catalog=catalog)
        for event in events[:30]:
            session.ingest(event)
        session.checkpoint(path)  # journal-less: position is null
        journal = EventJournal(tmp_path / "wal", fsync="never")
        journal.append({"kind": "ingest", "event": events[30].as_dict()})
        with pytest.raises(CheckpointError, match="journal position"):
            OnlinePredictionSession.resume(
                path, small_config, catalog=catalog, journal=journal
            )
        journal.close()

    def test_checkpoint_ahead_of_journal_realigns(
        self, small_log, small_config, catalog, tmp_path
    ):
        """Power loss under fsync='never' can lose journal appends that
        the (always-fsynced) checkpoint covers; recovery realigns the
        journal to the checkpoint position and continues."""
        events = list(small_log)
        path = tmp_path / "s.ckpt"
        journal = EventJournal(tmp_path / "wal", fsync="never")
        session = OnlinePredictionSession(
            small_config, catalog=catalog, journal=journal
        )
        for event in events[:25]:
            session.ingest(event)
        session.checkpoint(path)
        journal.close()
        # Simulate the page-cache loss: wipe the journal directory.
        for segment in (tmp_path / "wal").iterdir():
            segment.unlink()
        fresh = EventJournal(tmp_path / "wal", fsync="never")
        assert fresh.position == 0
        resumed = OnlinePredictionSession.resume(
            path, small_config, catalog=catalog, journal=fresh
        )
        assert resumed.n_ingested == 25
        assert fresh.position == 25  # realigned, indices stay monotonic
        resumed.ingest(events[25])
        assert fresh.position == 26
        fresh.close()
