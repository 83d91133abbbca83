"""Durable write-ahead event journal for the online session.

Periodic checkpoints (:mod:`repro.resilience.checkpoint`) bound recovery
to the last snapshot — every event ingested *since* is lost on a crash,
which on a live RAS feed means missed precursors and missed warnings.
The :class:`EventJournal` closes that gap: the session appends every
accepted input (events, clock advances, flushes) to the journal *before*
acting on it, so after a crash the checkpoint restores the last snapshot
and replaying the journal records past the checkpoint's recorded
position reconstructs the exact pre-crash state — warning for warning
(pinned by the kill-at-any-event-index chaos tests).

On-disk layout: a directory of size-rotated segment files named
``journal-<start>.seg`` where ``<start>`` is the global index of the
segment's first record.  Each record is length-prefixed and checksummed
(``<u32 length><u32 crc32><payload>``, payload = compact JSON), so
recovery can tell the two corruption modes apart:

* a **torn tail** — the record the crash interrupted, recognisable as a
  short read at the end of the *last* segment — is truncated away and
  counted (``journal.torn_tail_truncated``); the event it held was never
  durable and its source will re-deliver it;
* **bit rot** — a complete record whose CRC32 does not match, anywhere —
  raises :class:`JournalCorruption` naming the segment and byte offset,
  because silently skipping an event the session *did* process would
  break replay equivalence.

Durability is tunable per deployment through the fsync policy:
``"always"`` (fsync every append — survives power loss), a positive
integer N (fsync every N records — bounded loss window on power loss),
or ``"never"`` (OS page cache only — survives process crashes, not power
loss).  :meth:`EventJournal.append_batch` is the one write path (a
single record is a batch of one): each batch is one raw ``os.write`` on
the segment fd, so even under ``"never"`` a killed *process* loses
nothing that an append returned for, and under ``"always"`` one fsync
commits the whole batch.  After a checkpoint, :meth:`compact` deletes
segments wholly covered by it.

Counters (current :mod:`repro.observe` registry): ``journal.appends``
(records written), ``journal.fsyncs``, ``journal.torn_tail_truncated``,
``journal.replayed_events``, ``journal.compacted_segments``.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Iterator

from repro import faults, observe
from repro.resilience.checkpoint import fsync_directory

#: ``<u32 payload length><u32 crc32(payload)>`` little-endian.
_HEADER = struct.Struct("<II")

#: Compact JSON for record payloads.  ``json.dumps`` with non-default
#: separators builds a fresh encoder per call; one shared encoder writes
#: the same bytes without that per-record set-up.
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: Sanity cap on a single record; a larger claimed length is corruption
#: (a real record is a few hundred bytes of JSON).
MAX_RECORD_BYTES = 16 * 1024 * 1024

_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".seg"

#: Default segment rotation size.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


class JournalError(RuntimeError):
    """A journal that cannot be opened or appended to."""


class JournalCorruption(JournalError):
    """A complete journal record failed validation (bit rot, framing).

    Distinct from a torn tail, which is expected after a crash and is
    silently truncated; corruption *inside* the committed prefix means
    replay can no longer reproduce the pre-crash session and must be
    surfaced to the operator.
    """

    def __init__(
        self, message: str, *, segment: str | None = None, offset: int | None = None
    ) -> None:
        where = ""
        if segment is not None:
            where = f" [segment {segment}" + (
                f", offset {offset}]" if offset is not None else "]"
            )
        super().__init__(message + where)
        self.segment = segment
        self.offset = offset


def parse_fsync_policy(value: str | int) -> str | int:
    """Validate an fsync policy: ``"always"``, ``"never"`` or int N >= 1."""
    if value in ("always", "never"):
        return value
    try:
        interval = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid fsync policy {value!r}: expected 'always', 'never' "
            f"or a positive integer"
        ) from None
    if interval < 1:
        raise ValueError(
            f"invalid fsync interval {interval}: must be >= 1 "
            f"(use 'never' to disable fsync)"
        )
    return interval


def _segment_path(directory: Path, start: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{start:020d}{_SEGMENT_SUFFIX}"


def _segment_start(path: Path) -> int | None:
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def _parse_record(
    data: bytes, offset: int, segment: str, final: bool
) -> tuple[bytes | None, int]:
    """Parse one framed record at ``offset``; returns ``(payload, end)``.

    ``(None, offset)`` marks a torn tail: a record cut short by a crash,
    legal only at the end of the newest segment.  A complete record with
    a CRC mismatch — or any anomaly inside a sealed segment — raises
    :class:`JournalCorruption`.
    """
    if offset + _HEADER.size > len(data):
        if final:
            return None, offset
        raise JournalCorruption(
            "truncated record header inside a sealed segment",
            segment=segment,
            offset=offset,
        )
    length, crc = _HEADER.unpack_from(data, offset)
    if length > MAX_RECORD_BYTES:
        raise JournalCorruption(
            f"implausible record length {length}",
            segment=segment,
            offset=offset,
        )
    end = offset + _HEADER.size + length
    if end > len(data):
        if final:
            return None, offset
        raise JournalCorruption(
            "truncated record payload inside a sealed segment",
            segment=segment,
            offset=offset,
        )
    payload = data[offset + _HEADER.size : end]
    if zlib.crc32(payload) != crc:
        # A *complete* record with a bad checksum is bit rot, not a
        # torn write — never silently dropped.
        raise JournalCorruption(
            "record CRC32 mismatch", segment=segment, offset=offset
        )
    return payload, end


class EventJournal:
    """Segmented, checksummed write-ahead log of session inputs.

    Opening a directory scans the newest segment, truncates any torn
    tail left by a crash, and positions new appends after the last
    committed record; an empty or missing directory starts a fresh
    journal at position 0.  ``position`` is the global count of
    committed records — the value a checkpoint stores so recovery knows
    where replay must start.
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: str | int = "always",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retain: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.fsync_policy = parse_fsync_policy(fsync)
        if segment_bytes < 1:
            raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
        self.segment_bytes = segment_bytes
        #: keep checkpoint-covered segments (:meth:`compact` becomes a
        #: no-op) — live resharding rebuilds shards by replaying their
        #: journals from record 0, which a compacted journal cannot do.
        self.retain = retain
        self.directory.mkdir(parents=True, exist_ok=True)
        #: torn records truncated when this journal was opened
        self.n_torn_truncated = 0
        self._appends_since_sync = 0
        self._fd: int | None = None
        self._registry: observe.MetricsRegistry | None = None
        self._open_tail()

    # -- opening / scanning ------------------------------------------------

    def _segments(self) -> list[tuple[int, Path]]:
        """All segment files, sorted by their starting record index."""
        found = []
        for path in self.directory.iterdir():
            start = _segment_start(path)
            if start is not None:
                found.append((start, path))
        found.sort()
        return found

    def _open_tail(self) -> None:
        segments = self._segments()
        if not segments:
            self._start_segment(0)
            self._position = 0
            return
        start, path = segments[-1]
        n_records, valid_end = self._scan_segment(path, final=True)
        if valid_end < path.stat().st_size:
            with open(path, "r+b") as fh:
                fh.truncate(valid_end)
                fh.flush()
                os.fsync(fh.fileno())
            self.n_torn_truncated += 1
            observe.counter("journal.torn_tail_truncated").inc()
        self._segment_size = valid_end
        self._segment_path = path
        self._fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        self._position = start + n_records

    def _scan_segment(self, path: Path, final: bool) -> tuple[int, int]:
        """Validate a segment; returns ``(n_records, valid_end_offset)``."""
        data = path.read_bytes()
        offset = 0
        n_records = 0
        while offset < len(data):
            payload, end = _parse_record(data, offset, path.name, final)
            if payload is None:
                break
            n_records += 1
            offset = end
        return n_records, offset

    def _start_segment(self, start: int) -> None:
        path = _segment_path(self.directory, start)
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._segment_size = 0
        self._segment_path = path
        fsync_directory(self.directory)

    # -- appending ---------------------------------------------------------

    def _instruments(self) -> "tuple[observe.Counter, ...]":
        """``journal.appends`` and ``journal.fsyncs``, looked up once
        per registry."""
        registry = observe.get_registry()
        if self._registry is not registry:
            self._registry = registry
            self._counters = (
                registry.counter("journal.appends"),
                registry.counter("journal.fsyncs"),
            )
        return self._counters

    @property
    def position(self) -> int:
        """Global index one past the last committed record."""
        return self._position

    @property
    def start_position(self) -> int:
        """Global index of the earliest record still on disk.

        0 for a journal that has never been compacted (or was opened
        with ``retain=True``); resharding checks this before promising a
        from-the-beginning replay.
        """
        segments = self._segments()
        return segments[0][0] if segments else self._position

    @property
    def closed(self) -> bool:
        return self._fd is None

    def append(self, record: dict[str, Any]) -> int:
        """Frame, checksum and write one record; returns the new position.

        A batch of one (:meth:`append_batch`): the same framing, write,
        sync and rotation.
        """
        return self.append_batch([record])

    def append_batch(self, records: "list[dict[str, Any]]") -> int:
        """Frame and write ``records`` with one ``os.write``; returns the
        new position.

        The write is raw (no user-space buffering), so a process crash
        right after this returns loses nothing; whether a *power* loss
        can is governed by the fsync policy.  Group commit: under
        ``fsync="always"`` the whole batch is made durable by a *single*
        fsync, which is where the per-event WAL overhead lives.  The
        batch is written (and synced) before any of its records is
        processed, and a crash mid-write leaves a torn tail whose
        truncated suffix was never durable; recovery replays the
        committed prefix and the source re-delivers the rest.  A segment
        that reaches ``segment_bytes`` rotates after the batch.

        With a fault-injection plan active, ``on_journal_append`` sees
        every record at its index; a torn fault on the batch's record k
        writes the k frames before it plus the kept bytes, closes the
        journal at the position after those k and raises
        :class:`~repro.faults.FaultInjected`.
        """
        if self._fd is None:
            raise JournalError("journal is closed")
        if not records:
            return self._position
        frames = []
        encode, pack, crc32 = _ENCODER.encode, _HEADER.pack, zlib.crc32
        for record in records:
            payload = encode(record).encode("utf-8")
            frames.append(pack(len(payload), crc32(payload)) + payload)
        kill_message = None
        plan = faults.active()
        if plan is not None:
            for i, framed in enumerate(frames):
                frames[i], kill_message = plan.on_journal_append(
                    self._position + i, framed
                )
                if kill_message is not None:
                    del frames[i + 1 :]
                    break
        buffer = b"".join(frames)
        os.write(self._fd, buffer)
        appends, _ = self._instruments()
        if kill_message is not None:
            # Simulated crash mid-write: the frames before the torn one
            # are committed, the partial bytes are on disk, and this
            # journal is dead, exactly like the real process.
            self._position += len(frames) - 1
            appends.inc(len(frames) - 1)
            os.close(self._fd)
            self._fd = None
            raise faults.FaultInjected(kill_message)
        self._position += len(frames)
        self._segment_size += len(buffer)
        appends.inc(len(frames))
        policy = self.fsync_policy
        if policy == "always":
            self.sync()
        elif policy != "never":
            self._appends_since_sync += len(frames)
            if self._appends_since_sync >= policy:
                self.sync()
        if self._segment_size >= self.segment_bytes:
            self._rotate()
        return self._position

    def sync(self) -> None:
        """Force the current segment to stable storage."""
        if self._fd is None:
            return
        os.fsync(self._fd)
        self._appends_since_sync = 0
        self._instruments()[1].inc()

    def _rotate(self) -> None:
        assert self._fd is not None
        if self.fsync_policy != "never":
            self.sync()
        os.close(self._fd)
        self._start_segment(self._position)

    def reset_position(self, position: int) -> None:
        """Fast-forward to ``position`` by opening a segment named for it.

        Used by recovery when a checkpoint records a position *beyond*
        the journal's committed tail — possible after a power loss under
        a relaxed fsync policy, where page-cached appends vanished but
        the (always-fsynced) checkpoint survived.  Rotating to a segment
        named ``position`` keeps record indices monotonic and aligned
        with checkpoints instead of re-using indices the snapshot
        already covers.
        """
        if position < self._position:
            raise JournalError(
                f"cannot move the journal position backwards "
                f"({position} < {self._position})"
            )
        if position == self._position:
            return
        if self._fd is None:
            raise JournalError("journal is closed")
        self._position = position
        self._rotate()

    def close(self) -> None:
        """Sync (unless policy ``"never"``) and release the segment fd."""
        if self._fd is None:
            return
        if self.fsync_policy != "never":
            self.sync()
        os.close(self._fd)
        self._fd = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- replay / compaction -----------------------------------------------

    def replay(self, from_position: int = 0) -> Iterator[tuple[int, dict[str, Any]]]:
        """Yield ``(index, record)`` for every committed record >= position.

        Segments wholly below ``from_position`` are skipped without
        reading; every record that is read is CRC-validated (a mismatch
        raises :class:`JournalCorruption`).
        """
        segments = self._segments()
        for i, (start, path) in enumerate(segments):
            next_start = (
                segments[i + 1][0] if i + 1 < len(segments) else self._position
            )
            if next_start <= from_position:
                continue
            final = i == len(segments) - 1
            data = path.read_bytes()
            offset = 0
            index = start
            while offset < len(data):
                payload, end = _parse_record(data, offset, path.name, final)
                if payload is None:
                    break
                if index >= from_position:
                    yield index, json.loads(payload.decode("utf-8"))
                index += 1
                offset = end

    def compact(self, covered_position: int) -> int:
        """Delete segments wholly covered by a checkpoint at ``position``.

        A segment may go once *every* record in it is below
        ``covered_position``; the active tail segment always stays.
        Returns the number of segments removed.  A ``retain=True``
        journal never compacts — its full history is the handoff
        substrate for live resharding.
        """
        if self.retain:
            return 0
        segments = self._segments()
        removed = 0
        for i, (start, path) in enumerate(segments[:-1]):
            next_start = segments[i + 1][0]
            if next_start <= covered_position:
                path.unlink()
                removed += 1
        if removed:
            observe.counter("journal.compacted_segments").inc(removed)
            fsync_directory(self.directory)
        return removed


__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "EventJournal",
    "JournalCorruption",
    "JournalError",
    "MAX_RECORD_BYTES",
    "parse_fsync_policy",
]
