"""Batched journal appends: group commit, replay and ingest_batch.

``EventJournal.append_batch`` frames a whole batch into one ``os.write``
and makes it durable with one group fsync — the path each served
micro-batch commits through.  These tests pin its contract:
byte-compatible with per-record appends on replay, one fsync per batch
under ``fsync="always"``, torn tails recovered exactly like single
appends, and the ``ingest_batch`` plumbing through the session stack
stays warning-for-warning equal to per-event ingest.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro import observe
from repro.core.framework import FrameworkConfig
from repro.core.online import OnlinePredictionSession
from repro.raslog.catalog import default_catalog
from repro.raslog.generator import GeneratorConfig, generate_log
from repro.raslog.profiles import SDSC_PROFILE
from repro.resilience import EventJournal, JournalError


def records(n, start=0):
    return [{"kind": "ingest", "i": i} for i in range(start, start + n)]


class TestAppendBatch:
    def test_replay_equals_per_record_appends(self, tmp_path):
        with EventJournal(tmp_path / "single") as single:
            for record in records(10):
                single.append(record)
            per_record = list(single.replay())
        with EventJournal(tmp_path / "batched") as batched:
            batched.append_batch(records(4))
            batched.append_batch(records(6, start=4))
            assert batched.position == 10
            assert list(batched.replay()) == per_record

    def test_one_group_fsync_per_batch(self, tmp_path):
        registry = observe.MetricsRegistry()
        with observe.use_registry(registry):
            journal = EventJournal(tmp_path / "wal", fsync="always")
            journal.append_batch(records(64))
            journal.append_batch(records(64, start=64))
            appends = registry.counter("journal.appends").value
            # Group commit: 2 batches -> 2 fsyncs, not 128 (close() adds
            # its own final fsync, so count before closing).
            fsyncs = registry.counter("journal.fsyncs").value
            journal.close()
        assert appends == 128
        assert fsyncs == 2

    def test_fsync_every_n_counts_batch_records(self, tmp_path):
        registry = observe.MetricsRegistry()
        with observe.use_registry(registry):
            with EventJournal(tmp_path / "wal", fsync=10) as journal:
                journal.append_batch(records(25))
        assert registry.counter("journal.fsyncs").value >= 1

    def test_empty_batch_is_a_noop(self, tmp_path):
        with EventJournal(tmp_path / "wal") as journal:
            assert journal.append_batch([]) == 0
            assert journal.position == 0

    def test_append_batch_after_close_raises(self, tmp_path):
        journal = EventJournal(tmp_path / "wal")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append_batch(records(1))

    def test_torn_batch_tail_truncates_like_single(self, tmp_path):
        journal = EventJournal(tmp_path / "wal", fsync="never")
        journal.append_batch(records(5))
        journal.close()
        # Chop bytes off the segment tail: the last record is torn.
        (segment,) = sorted((tmp_path / "wal").glob("journal-*.seg"))
        data = segment.read_bytes()
        segment.write_bytes(data[:-3])
        reopened = EventJournal(tmp_path / "wal")
        assert reopened.position == 4
        assert [r["i"] for _, r in reopened.replay()] == [0, 1, 2, 3]
        reopened.close()

    def test_rotation_applies_after_batch(self, tmp_path):
        with EventJournal(
            tmp_path / "wal", fsync="never", segment_bytes=64
        ) as journal:
            journal.append_batch(records(8))
            journal.append_batch(records(8, start=8))
            segments = sorted((tmp_path / "wal").glob("journal-*.seg"))
            assert len(segments) >= 2
            assert [r["i"] for _, r in journal.replay()] == list(range(16))


#: Records whose encoding must not move: non-ASCII text, floats that
#: need their full repr, and the non-finite floats JSON allows here.
ODD_RECORDS = [
    {"kind": "ingest", "event": {"location": "R00-M0-N01",
                                 "entry_data": "naïve — fatal ✓ 故障"}},
    {"kind": "advance", "now": 0.1 + 0.2},
    {"kind": "ingest", "x": [1e300, -0.0, 5e-324, 123456789.125]},
    {"kind": "ingest", "x": float("inf"), "y": -float("inf")},
]


def _parent_frames(records):
    """Frames as ``json.dumps`` writes them: the format every journal on
    disk was written in."""
    out = b""
    for record in records:
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        out += struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    return out


class TestRecordEncoding:
    def test_frames_equal_json_dumps_output(self, tmp_path):
        with EventJournal(tmp_path / "wal", fsync="never") as journal:
            journal.append(ODD_RECORDS[0])
            journal.append_batch(ODD_RECORDS[1:])
        (segment,) = (tmp_path / "wal").glob("journal-*.seg")
        assert segment.read_bytes() == _parent_frames(ODD_RECORDS)

    def test_journal_in_the_json_dumps_format_replays(self, tmp_path):
        wal = tmp_path / "wal"
        wal.mkdir()
        (wal / "journal-0.seg").write_bytes(_parent_frames(ODD_RECORDS))
        with EventJournal(wal, fsync="never") as journal:
            assert journal.position == len(ODD_RECORDS)
            assert [r for _, r in journal.replay()] == ODD_RECORDS
            journal.append({"kind": "flush"})
        with EventJournal(wal, fsync="never") as journal:
            assert [r for _, r in journal.replay()] == [
                *ODD_RECORDS, {"kind": "flush"}
            ]


def _stream(n=120):
    trace = generate_log(
        SDSC_PROFILE, GeneratorConfig(scale=0.3, weeks=4, seed=7)
    )
    return list(trace.clean)[:n]


def _config():
    return FrameworkConfig(initial_train_weeks=2, retrain_weeks=2)


class TestIngestBatch:
    def test_matches_per_event_ingest(self):
        events = _stream()
        catalog = default_catalog()
        one = OnlinePredictionSession(_config(), catalog=catalog)
        per_event = []
        for event in events:
            per_event.extend(one.ingest(event))
        batched = OnlinePredictionSession(_config(), catalog=catalog)
        got = []
        for i in range(0, len(events), 16):
            got.extend(batched.ingest_batch(events[i : i + 16]))
        assert got == per_event
        assert batched.n_ingested == one.n_ingested == len(events)

    def test_batch_is_journaled_before_processing(self, tmp_path):
        events = _stream(40)
        journal = EventJournal(tmp_path / "wal", fsync="never")
        session = OnlinePredictionSession(
            _config(), catalog=default_catalog(), journal=journal
        )
        session.ingest_batch(events)
        assert journal.position == len(events)
        journal.close()
        # The journaled batch recovers into an identical session.
        recovered = OnlinePredictionSession.recover(
            tmp_path / "absent.ckpt",
            EventJournal(tmp_path / "wal", fsync="never"),
            _config(),
            catalog=default_catalog(),
        )
        assert recovered.n_ingested == len(events)

    def test_invalid_batch_is_rejected_atomically(self, tmp_path):
        events = _stream(20)
        journal = EventJournal(tmp_path / "wal", fsync="never")
        session = OnlinePredictionSession(
            _config(), catalog=default_catalog(), journal=journal
        )
        session.ingest_batch(events[:10])
        # Out-of-order batch: element 5 regresses behind element 4.
        bad = events[10:14] + [events[12]] + events[14:]
        with pytest.raises(ValueError, match="time order"):
            session.ingest_batch(bad)
        # Nothing from the bad batch was journaled or counted.
        assert session.n_ingested == 10
        assert journal.position == 10

    def test_empty_batch(self):
        session = OnlinePredictionSession(
            _config(), catalog=default_catalog()
        )
        assert session.ingest_batch([]) == []
        assert session.n_ingested == 0
