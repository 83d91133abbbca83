"""EventJournal: framing, fsync policy, rotation, compaction, corruption.

The corruption-tolerance contract in one place: a *torn tail* (the
record a crash interrupted) is truncated and counted; a CRC mismatch on
a *complete* record — bit rot — raises :class:`JournalCorruption` naming
the segment and offset, because replaying past it would silently diverge
from the pre-crash session.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import pytest

from repro import faults, observe
from repro.faults import FaultInjected, FaultPlan, JournalFault
from repro.resilience import EventJournal, JournalCorruption, JournalError
from repro.resilience.journal import parse_fsync_policy


def records(n, start=0):
    return [{"kind": "ingest", "i": i} for i in range(start, start + n)]


def fill(journal, n, start=0):
    for record in records(n, start):
        journal.append(record)


class TestFraming:
    def test_append_replay_round_trip(self, tmp_path):
        with EventJournal(tmp_path / "wal") as journal:
            fill(journal, 5)
            assert journal.position == 5
        reopened = EventJournal(tmp_path / "wal")
        assert reopened.position == 5
        assert list(reopened.replay()) == list(enumerate(records(5)))
        reopened.close()

    def test_replay_from_position_skips_prefix(self, tmp_path):
        with EventJournal(tmp_path / "wal") as journal:
            fill(journal, 10)
            got = list(journal.replay(7))
        assert [i for i, _ in got] == [7, 8, 9]
        assert [r["i"] for _, r in got] == [7, 8, 9]

    def test_append_after_close_raises(self, tmp_path):
        journal = EventJournal(tmp_path / "wal")
        journal.close()
        assert journal.closed
        with pytest.raises(JournalError, match="closed"):
            journal.append({"kind": "ingest"})

    def test_fresh_directory_starts_at_zero(self, tmp_path):
        journal = EventJournal(tmp_path / "brand-new")
        assert journal.position == 0
        assert list(journal.replay()) == []
        journal.close()


class TestFsyncPolicy:
    @pytest.mark.parametrize("bad", ["0", "-3", "sometimes", "", "1.5"])
    def test_invalid_policies_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fsync_policy(bad)

    @pytest.mark.parametrize(
        "value, parsed", [("always", "always"), ("never", "never"), ("7", 7)]
    )
    def test_valid_policies(self, value, parsed):
        assert parse_fsync_policy(value) == parsed

    def test_always_fsyncs_every_append(self, tmp_path):
        registry = observe.MetricsRegistry()
        with observe.use_registry(registry):
            with EventJournal(tmp_path / "wal", fsync="always") as journal:
                fill(journal, 4)
        assert registry.counter("journal.appends").value == 4
        assert registry.counter("journal.fsyncs").value >= 4

    def test_interval_policy_batches_fsyncs(self, tmp_path):
        registry = observe.MetricsRegistry()
        with observe.use_registry(registry):
            journal = EventJournal(tmp_path / "wal", fsync=5)
            fill(journal, 14)
            # 14 appends = 2 full batches of 5; close() forces the rest.
            assert registry.counter("journal.fsyncs").value == 2
            journal.close()
            assert registry.counter("journal.fsyncs").value == 3

    def test_never_policy_never_fsyncs(self, tmp_path):
        registry = observe.MetricsRegistry()
        with observe.use_registry(registry):
            with EventJournal(tmp_path / "wal", fsync="never") as journal:
                fill(journal, 10)
        assert registry.counter("journal.fsyncs").value == 0


class TestRotationAndCompaction:
    def test_rotation_by_size(self, tmp_path):
        with EventJournal(
            tmp_path / "wal", fsync="never", segment_bytes=128
        ) as journal:
            fill(journal, 20)
        segments = sorted(p.name for p in (tmp_path / "wal").iterdir())
        assert len(segments) > 1
        # Segment names carry the global index of their first record.
        reopened = EventJournal(tmp_path / "wal", fsync="never")
        assert reopened.position == 20
        assert [r["i"] for _, r in reopened.replay()] == list(range(20))
        reopened.close()

    def test_compaction_drops_covered_segments_only(self, tmp_path):
        journal = EventJournal(
            tmp_path / "wal", fsync="never", segment_bytes=128
        )
        fill(journal, 20)
        n_before = len(list((tmp_path / "wal").iterdir()))
        assert n_before > 2
        removed = journal.compact(journal.position)
        assert removed == n_before - 1  # the active tail always stays
        # Records past a mid-stream position all survive compaction.
        journal2_dir = tmp_path / "wal2"
        journal2 = EventJournal(journal2_dir, fsync="never", segment_bytes=128)
        fill(journal2, 20)
        journal2.compact(10)
        survivors = [i for i, _ in journal2.replay(10)]
        assert survivors == list(range(10, 20))
        journal.close()
        journal2.close()

    def test_recovery_after_compaction_replays_only_post_checkpoint(
        self, tmp_path
    ):
        """Compaction must never eat records a checkpoint does not cover."""
        journal = EventJournal(
            tmp_path / "wal", fsync="never", segment_bytes=96
        )
        fill(journal, 30)
        checkpoint_position = 18
        journal.compact(checkpoint_position)
        journal.close()
        reopened = EventJournal(tmp_path / "wal", fsync="never")
        assert reopened.position == 30
        replayed = [i for i, _ in reopened.replay(checkpoint_position)]
        assert replayed == list(range(checkpoint_position, 30))
        reopened.close()

    def test_reset_position_rotates_forward(self, tmp_path):
        journal = EventJournal(tmp_path / "wal", fsync="never")
        fill(journal, 3)
        journal.reset_position(10)
        assert journal.position == 10
        fill(journal, 2, start=10)
        assert [i for i, _ in journal.replay(10)] == [10, 11]
        with pytest.raises(JournalError, match="backwards"):
            journal.reset_position(4)
        journal.close()


def tail_segment(directory):
    return max(directory.iterdir(), key=lambda p: p.name)


class TestCorruptionTolerance:
    def test_torn_tail_is_truncated_and_counted(self, tmp_path):
        with EventJournal(tmp_path / "wal", fsync="never") as journal:
            fill(journal, 6)
        segment = tail_segment(tmp_path / "wal")
        intact = segment.stat().st_size
        # Tear the last record mid-payload, as a crash would.
        with open(segment, "r+b") as fh:
            fh.truncate(intact - 5)
        registry = observe.MetricsRegistry()
        with observe.use_registry(registry):
            reopened = EventJournal(tmp_path / "wal", fsync="never")
        assert reopened.n_torn_truncated == 1
        assert registry.counter("journal.torn_tail_truncated").value == 1
        assert reopened.position == 5
        assert [r["i"] for _, r in reopened.replay()] == list(range(5))
        # The file itself was truncated back to the committed prefix.
        assert segment.stat().st_size < intact - 5
        reopened.close()

    def test_torn_header_is_truncated(self, tmp_path):
        with EventJournal(tmp_path / "wal", fsync="never") as journal:
            fill(journal, 3)
        segment = tail_segment(tmp_path / "wal")
        with open(segment, "ab") as fh:
            fh.write(b"\x07\x00")  # 2 of 8 header bytes
        reopened = EventJournal(tmp_path / "wal", fsync="never")
        assert reopened.position == 3
        assert reopened.n_torn_truncated == 1
        reopened.close()

    def test_mid_journal_crc_mismatch_reports_segment_and_offset(
        self, tmp_path
    ):
        with EventJournal(tmp_path / "wal", fsync="never") as journal:
            fill(journal, 6)
        segment = tail_segment(tmp_path / "wal")
        data = bytearray(segment.read_bytes())
        # Corrupt one payload byte of the *third* record (a complete,
        # mid-journal record — bit rot, not a torn write).
        offset = 0
        for _ in range(2):
            length = struct.unpack_from("<I", data, offset)[0]
            offset += 8 + length
        data[offset + 8] ^= 0x40
        segment.write_bytes(bytes(data))
        with pytest.raises(JournalCorruption, match="CRC32") as excinfo:
            EventJournal(tmp_path / "wal", fsync="never")
        assert excinfo.value.segment == segment.name
        assert excinfo.value.offset == offset
        assert segment.name in str(excinfo.value)

    def test_anomaly_in_sealed_segment_is_corruption(self, tmp_path):
        """A short record is a torn tail only in the *newest* segment;
        inside a sealed segment it means the log was tampered with."""
        with EventJournal(
            tmp_path / "wal", fsync="never", segment_bytes=64
        ) as journal:
            fill(journal, 8)
        segments = sorted((tmp_path / "wal").iterdir())
        assert len(segments) > 1
        first = segments[0]
        with open(first, "r+b") as fh:
            fh.truncate(first.stat().st_size - 3)
        journal = EventJournal(tmp_path / "wal", fsync="never")
        with pytest.raises(JournalCorruption, match="sealed"):
            list(journal.replay())
        journal.close()

    def test_implausible_length_is_corruption(self, tmp_path):
        with EventJournal(tmp_path / "wal", fsync="never") as journal:
            fill(journal, 2)
        segment = tail_segment(tmp_path / "wal")
        payload = json.dumps({"x": 1}).encode()
        bogus = struct.pack("<II", 1 << 30, zlib.crc32(payload)) + payload
        with open(segment, "ab") as fh:
            fh.write(bogus)
        with pytest.raises(JournalCorruption, match="length"):
            EventJournal(tmp_path / "wal", fsync="never")


class TestFaultInjection:
    def test_torn_write_fault_kills_journal_and_leaves_partial_bytes(
        self, tmp_path
    ):
        journal = EventJournal(tmp_path / "wal", fsync="never")
        plan = FaultPlan(
            journal_faults=[JournalFault(record=2, mode="torn", keep_bytes=9)]
        )
        with faults.install(plan):
            fill(journal, 2)
            with pytest.raises(FaultInjected, match="torn write"):
                journal.append({"kind": "ingest", "i": 2})
        assert plan.injected == ["journal:torn:2"]
        assert journal.closed  # the simulated crash killed it
        reopened = EventJournal(tmp_path / "wal", fsync="never")
        assert reopened.n_torn_truncated == 1
        assert reopened.position == 2
        reopened.close()

    def test_torn_fault_inside_batch_keeps_prefix_frames(self, tmp_path):
        """A torn fault on record k of an n-record batch writes the k
        complete frames before it plus the kept bytes, and kills the
        journal at position k."""
        wal = tmp_path / "wal"
        journal = EventJournal(wal, fsync="never")
        plan = FaultPlan(
            journal_faults=[JournalFault(record=3, mode="torn", keep_bytes=9)]
        )
        batch = records(6)
        with faults.install(plan):
            with pytest.raises(FaultInjected, match="torn write"):
                journal.append_batch(batch)
        assert plan.injected == ["journal:torn:3"]
        assert journal.closed
        assert journal.position == 3
        with EventJournal(tmp_path / "clean", fsync="never") as clean:
            clean.append_batch(batch)
        full = tail_segment(tmp_path / "clean").read_bytes()
        frames = [
            json.dumps(r, separators=(",", ":")).encode() for r in batch
        ]
        prefix = sum(8 + len(payload) for payload in frames[:3])
        assert tail_segment(wal).read_bytes() == full[: prefix + 9]
        reopened = EventJournal(wal, fsync="never")
        assert reopened.n_torn_truncated == 1
        assert reopened.position == 3
        assert [r for _, r in reopened.replay()] == batch[:3]
        reopened.close()

    def test_bitflip_fault_succeeds_then_fails_validation(self, tmp_path):
        journal = EventJournal(tmp_path / "wal", fsync="never")
        plan = FaultPlan(
            journal_faults=[JournalFault(record=1, mode="bitflip")]
        )
        with faults.install(plan):
            fill(journal, 4)  # the flipped append does not raise
        assert journal.position == 4
        assert plan.injected == ["journal:bitflip:1"]
        journal.close()
        with pytest.raises(JournalCorruption, match="CRC32"):
            EventJournal(tmp_path / "wal", fsync="never")

    def test_unknown_fault_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            JournalFault(record=0, mode="gamma-ray")

    def test_no_plan_appends_clean(self, tmp_path):
        assert faults.active() is None
        with EventJournal(tmp_path / "wal", fsync="never") as journal:
            fill(journal, 3)
            assert journal.position == 3


class TestDurabilityDiscipline:
    def test_append_is_a_raw_os_write(self, tmp_path, monkeypatch):
        """Appends must hit the kernel immediately (no user-space
        buffering): what ``append`` returned for survives a process
        kill even under ``fsync='never'``."""
        writes = []
        real_write = os.write

        def spy(fd, data):
            writes.append(data)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", spy)
        journal = EventJournal(tmp_path / "wal", fsync="never")
        journal.append({"kind": "ingest", "i": 0})
        assert len(writes) == 1
        length, crc = struct.unpack_from("<II", writes[0], 0)
        payload = writes[0][8:]
        assert len(payload) == length
        assert zlib.crc32(payload) == crc
        # No close, no flush — the bytes are already re-readable.
        fresh = EventJournal(tmp_path / "wal", fsync="never")
        assert fresh.position == 1
