"""Parser and writer for the public LogHub BGL RAS-log format.

The paper's logs are the raw ANL / SDSC Blue Gene/L RAS dumps; the publicly
released equivalent (LogHub's ``BGL.log``) uses one line per record::

    - 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 \
R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected

Fields: alert label (``-`` for non-alert), epoch seconds, date, node,
full timestamp, node (repeated), recording mechanism, facility, severity,
and the free-text message.  This module converts between that format and
:class:`~repro.raslog.events.RASEvent` so real logs can be dropped into the
pipeline in place of the synthetic generator.

:func:`iter_chunks` is the one parser loop.  It reads :data:`CHUNK_LINES`
lines at a time and fills :class:`~repro.raslog.store.RowColumns` without
building events: each line is split once, and each distinct epoch string
and each distinct record kind (alert label plus the text after the
repeated node: mechanism, facility, severity and message) is validated
once per chunk and then reused.  :func:`parse_line` is the per-line
definition of the format; the loop shares its helpers and hands every
line it rejects to it, so reasons and line numbers agree.
:func:`load_log` returns a column-backed :class:`EventLog`.
"""

from __future__ import annotations

import io
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.raslog.events import Facility, RASEvent, Severity
from repro.raslog.store import EventLog, Header, RowColumns

#: Number of whitespace-separated header fields before the message text.
_HEADER_FIELDS = 9

#: Fields split off a line before its kind: label, epoch, date, node,
#: full timestamp, node again, and the rest (the kind's text).
_LEAD_FIELDS = 6

#: Lines parsed into one :class:`RowColumns` chunk.
CHUNK_LINES = 65536

#: Facility and severity tokens by their canonical spellings, so the
#: common case costs one dict lookup; other spellings fall back to
#: ``Facility.parse``/``Severity.parse``.
_FACILITY_TOKENS = {f.value: f for f in Facility}
_SEVERITY_TOKENS = {s.name: s for s in Severity}


class ParseError(ValueError):
    """A malformed log line encountered in strict mode."""

    def __init__(self, line_no: int, line: str, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason}: {line[:120]!r}")
        self.line_no = line_no
        self.line = line
        self.reason = reason


@dataclass
class ParseReport:
    """Counts accumulated while parsing in lenient mode."""

    parsed: int = 0
    skipped: int = 0
    errors: list[ParseError] = field(default_factory=list)

    def record_error(self, err: ParseError, keep: int = 20) -> None:
        self.skipped += 1
        if len(self.errors) < keep:
            self.errors.append(err)


class _Invalid(ValueError):
    """A field that fails validation; its message is the reason."""


_TOO_FEW = "expected at least 9 fields"


def _split(line: str) -> list[str]:
    """The line's six leading fields and the rest (its kind's text).

    Splitting on whitespace stops at the same place whether or not the
    line's trailing newline is still there, so the line is split as read.
    """
    return line.split(None, _LEAD_FIELDS)


def _epoch(epoch_s: str) -> float:
    try:
        timestamp = float(int(epoch_s))
    except (ValueError, OverflowError):
        raise _Invalid(f"bad epoch field {epoch_s!r}") from None
    if timestamp < 0:
        raise _Invalid(f"negative epoch {epoch_s!r}")
    return timestamp


def _fields(text: str) -> list[str]:
    """Mechanism, facility, severity and (when there is one) the message,
    from the text after a line's sixth field."""
    parts = text.rstrip("\r\n").split(None, _HEADER_FIELDS - _LEAD_FIELDS)
    if len(parts) < _HEADER_FIELDS - _LEAD_FIELDS:
        raise _Invalid(_TOO_FEW)
    return parts


def _header(label: str, parts: list[str]) -> tuple[Header, str]:
    """The header and message of a line from its label and :func:`_fields`."""
    mechanism, fac_s, sev_s = parts[:3]
    message = parts[3] if len(parts) > 3 else ""
    facility = _FACILITY_TOKENS.get(fac_s)
    if facility is None:
        try:
            facility = Facility.parse(fac_s)
        except ValueError:
            raise _Invalid(f"unknown facility {fac_s!r}") from None
    severity = _SEVERITY_TOKENS.get(sev_s)
    if severity is None:
        try:
            severity = Severity.parse(sev_s)
        except ValueError:
            raise _Invalid(f"unknown severity {sev_s!r}") from None
    # The alert label marks lines LogHub's curators flagged; keep it in the
    # event_type channel alongside the recording mechanism.
    event_type = mechanism if label == "-" else f"{mechanism}:{label}"
    return (event_type, facility, severity), message


def parse_line(line: str, line_no: int = 0) -> RASEvent:
    """Parse one LogHub BGL line into a :class:`RASEvent`.

    The LogHub format carries no Job ID; ``job_id`` is set to 0 and real
    deployments can re-join job information from the scheduler log.
    """
    parts = _split(line)
    try:
        if len(parts) <= _LEAD_FIELDS:
            raise _Invalid(_TOO_FEW)
        label, epoch_s, _date, location, _full_ts, _loc2, text = parts
        # Checked in this order: field count, epoch, facility, severity.
        fields = _fields(text)
        timestamp = _epoch(epoch_s)
        (event_type, facility, severity), message = _header(label, fields)
    except _Invalid as bad:
        raise ParseError(line_no, line, str(bad)) from None
    # Positional: record_id, event_type, timestamp, job_id, location,
    # entry_data, facility, severity.
    return RASEvent(
        line_no, event_type, timestamp, 0, location, message, facility, severity
    )


def open_log(path: str | Path) -> TextIO:
    """Open a LogHub BGL file for parsing; undecodable bytes read as
    U+FFFD."""
    return open(path, "r", encoding="utf-8", errors="replace")


def iter_chunks(
    source: str | Path | Iterable[str],
    *,
    strict: bool = False,
    report: ParseReport | None = None,
) -> Iterator[RowColumns]:
    """Parse a LogHub BGL file (or its lines) into :class:`RowColumns`,
    :data:`CHUNK_LINES` lines at a time.

    A row's ``record_id`` is its line number.  Blank lines are skipped;
    malformed lines are skipped and tallied in *report*, or, in strict
    mode, the first one raises :class:`ParseError` once the rows before
    it have been yielded.  A chunk's tables hold only its own values, so
    memory is bounded by one chunk.
    """
    if isinstance(source, (str, Path)):
        with open_log(source) as fh:
            yield from iter_chunks(fh, strict=strict, report=report)
        return
    lines = iter(source)
    chunk_lines = CHUNK_LINES
    first = 1
    while True:
        chunk, n_lines, error = _parse_chunk(
            islice(lines, chunk_lines), first, strict, report
        )
        if n_lines == 0:
            return
        first += n_lines
        if len(chunk):
            yield chunk
        if error is not None:
            raise error


def _parse_chunk(
    lines: Iterable[str], first: int, strict: bool, report: ParseReport | None
) -> tuple[RowColumns, int, ParseError | None]:
    """The rows of ``lines`` (numbered from ``first``), how many lines were
    read, and, in strict mode, the first malformed line's error (the rows
    are then those before it)."""
    epochs: dict[str, float] = {}
    kinds: dict[tuple[str, str], int] = {}
    headers: dict[Header, int] = {}
    messages: dict[str, int] = {}
    locations: dict[str, int] = {}
    kind_header: list[int] = []
    kind_message: list[int] = []
    times = array("d")
    kind = array("q")
    location = array("q")
    rejected: list[int] = []
    error: ParseError | None = None

    def add_kind(key: tuple[str, str]) -> int | None:
        # A record kind: its alert label and the text after its sixth field.
        label, text = key
        try:
            header, message = _header(label, _fields(text))
        except _Invalid:
            return None
        kind_header.append(headers.setdefault(header, len(headers)))
        kind_message.append(messages.setdefault(message, len(messages)))
        k = kinds[key] = len(kinds)
        return k

    def add_epoch(epoch_s: str) -> float | None:
        try:
            t = epochs[epoch_s] = _epoch(epoch_s)
        except _Invalid:
            return None
        return t

    split = _split
    get_kind, get_epoch, get_location = kinds.get, epochs.get, locations.get
    add_time, add_row_kind, add_location = times.append, kind.append, location.append
    line_no = first - 1
    for line_no, line in enumerate(lines, first):
        parts = split(line)
        if len(parts) > _LEAD_FIELDS:
            key = (parts[0], parts[6])
            k = get_kind(key)
            if k is None:
                k = add_kind(key)
            t = get_epoch(parts[1])
            if t is None:
                t = add_epoch(parts[1])
            if k is not None and t is not None:
                loc = get_location(parts[3])
                if loc is None:
                    loc = locations[parts[3]] = len(locations)
                add_time(t)
                add_row_kind(k)
                add_location(loc)
                continue
        rejected.append(line_no)
        # A blank line fails on its field count; skip it untallied.
        if not line.strip():
            continue
        err = _rejection(line, line_no)
        if strict:
            error = err
            break
        if report is not None:
            report.record_error(err)
    n_lines = line_no - first + 1
    if report is not None:
        report.parsed += len(times)
    rows = np.array(kind, dtype=np.int64)
    columns = RowColumns(
        np.array(times, dtype=np.float64),
        np.delete(
            np.arange(first, first + n_lines),
            np.array(rejected, dtype=np.int64) - first,
        ),
        np.zeros(len(rows), dtype=np.int64),
        np.array(kind_header, dtype=np.int64)[rows],
        np.array(kind_message, dtype=np.int64)[rows],
        np.array(location, dtype=np.int64),
        list(headers),
        list(messages),
        list(locations),
    )
    return columns, n_lines, error


def _rejection(line: str, line_no: int) -> ParseError:
    """The error :func:`parse_line` gives for a line the chunk loop
    rejected."""
    try:
        parse_line(line, line_no)
    except ParseError as err:
        return err
    raise AssertionError(f"line {line_no} parses alone but not in a chunk")


def iter_lines(
    lines: Iterable[str],
    *,
    strict: bool = False,
    report: ParseReport | None = None,
) -> Iterator[RASEvent]:
    """Yield events from raw lines, skipping blanks (and, unless strict,
    malformed lines, which are tallied in *report*).

    Lines are read :data:`CHUNK_LINES` at a time (see :func:`iter_chunks`),
    so an event is yielded only once its chunk is full or the lines end.
    In strict mode every event before the first malformed line is yielded,
    then its :class:`ParseError` is raised.
    """
    for chunk in iter_chunks(lines, strict=strict, report=report):
        yield from chunk.events()


def load_log(
    source: str | Path | io.TextIOBase,
    *,
    strict: bool = False,
    report: ParseReport | None = None,
) -> EventLog:
    """Parse a LogHub BGL file (or open text stream) into an EventLog.

    The log is backed by the parsed columns (see
    :meth:`EventLog.from_columns`): its events are built only if a caller
    asks for them.  The log's origin is set to the earliest event time so
    that week arithmetic starts at the head of the trace; out-of-order
    lines are stably sorted by time.
    """
    chunks = list(iter_chunks(source, strict=strict, report=report))
    return EventLog.from_columns(RowColumns.concat(chunks))


def format_line(event: RASEvent, origin_epoch: float = 1_100_000_000.0) -> str:
    """Render an event as a LogHub BGL line (inverse of :func:`parse_line`).

    Synthetic timestamps are relative to the trace origin; *origin_epoch*
    shifts them into UNIX-epoch territory so the emitted line round-trips.
    """
    epoch = int(event.timestamp + origin_epoch)
    import time

    tm = time.gmtime(epoch)
    date = time.strftime("%Y.%m.%d", tm)
    full_ts = time.strftime("%Y-%m-%d-%H.%M.%S", tm) + ".000000"
    if ":" in event.event_type:
        mechanism, label = event.event_type.split(":", 1)
    else:
        mechanism, label = event.event_type, "-"
    return (
        f"{label} {epoch} {date} {event.location} {full_ts} {event.location} "
        f"{mechanism} {event.facility.value} {event.severity.name} {event.entry_data}"
    )


def dump_log(
    log: Iterable[RASEvent],
    destination: str | Path | io.TextIOBase,
    origin_epoch: float = 1_100_000_000.0,
) -> int:
    """Write a log (or any events) in LogHub BGL format; returns the number
    of lines.  A log parsed from such a file holds epoch times already:
    write it back with ``origin_epoch=0``."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as fh:
            return dump_log(log, fh, origin_epoch)
    n = 0
    for event in log:
        destination.write(format_line(event, origin_epoch) + "\n")
        n += 1
    return n
