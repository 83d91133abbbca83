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
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.raslog.events import Facility, RASEvent, Severity
from repro.raslog.store import EventLog

#: Number of whitespace-separated header fields before the message text.
_HEADER_FIELDS = 9

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


def parse_line(line: str, line_no: int = 0) -> RASEvent:
    """Parse one LogHub BGL line into a :class:`RASEvent`.

    The LogHub format carries no Job ID; ``job_id`` is set to 0 and real
    deployments can re-join job information from the scheduler log.
    """
    parts = line.rstrip("\r\n").split(None, _HEADER_FIELDS)
    if len(parts) < _HEADER_FIELDS:
        raise ParseError(line_no, line, "expected at least 9 fields")
    label, epoch_s, _date, location, _full_ts, _loc2, mechanism, fac_s, sev_s = parts[
        :_HEADER_FIELDS
    ]
    message = parts[_HEADER_FIELDS] if len(parts) > _HEADER_FIELDS else ""
    try:
        timestamp = float(int(epoch_s))
    except (ValueError, OverflowError):
        raise ParseError(line_no, line, f"bad epoch field {epoch_s!r}") from None
    if timestamp < 0:
        raise ParseError(line_no, line, f"negative epoch {epoch_s!r}")
    facility = _FACILITY_TOKENS.get(fac_s)
    if facility is None:
        try:
            facility = Facility.parse(fac_s)
        except ValueError:
            raise ParseError(line_no, line, f"unknown facility {fac_s!r}") from None
    severity = _SEVERITY_TOKENS.get(sev_s)
    if severity is None:
        try:
            severity = Severity.parse(sev_s)
        except ValueError:
            raise ParseError(line_no, line, f"unknown severity {sev_s!r}") from None
    # The alert label marks lines LogHub's curators flagged; keep it in the
    # event_type channel alongside the recording mechanism.
    event_type = mechanism if label == "-" else f"{mechanism}:{label}"
    # Positional: record_id, event_type, timestamp, job_id, location,
    # entry_data, facility, severity.
    return RASEvent(
        line_no, event_type, timestamp, 0, location, message, facility, severity
    )


def iter_lines(
    lines: Iterable[str],
    *,
    strict: bool = False,
    report: ParseReport | None = None,
) -> Iterator[RASEvent]:
    """Yield events from raw lines, skipping blanks (and, unless strict,
    malformed lines, which are tallied in *report*)."""
    for line_no, line in enumerate(lines, start=1):
        try:
            event = parse_line(line, line_no)
        except ParseError as err:
            # A blank line fails on its field count; skip it untallied.
            if not line.strip():
                continue
            if strict:
                raise
            if report is not None:
                report.record_error(err)
            continue
        if report is not None:
            report.parsed += 1
        yield event


def load_log(
    source: str | Path | io.TextIOBase,
    *,
    strict: bool = False,
    report: ParseReport | None = None,
) -> EventLog:
    """Parse a LogHub BGL file (or open text stream) into an EventLog.

    The log's origin is set to the earliest event time so that week
    arithmetic starts at the head of the trace; out-of-order lines are
    stably sorted by time.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="replace") as fh:
            events = list(iter_lines(fh, strict=strict, report=report))
    else:
        events = list(iter_lines(source, strict=strict, report=report))
    log = EventLog(events)
    return log.with_origin(log.span[0])


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
    log: EventLog,
    destination: str | Path | io.TextIOBase,
    origin_epoch: float = 1_100_000_000.0,
) -> int:
    """Write a log in LogHub BGL format; returns the number of lines."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as fh:
            return dump_log(log, fh, origin_epoch)
    n = 0
    for event in log:
        destination.write(format_line(event, origin_epoch) + "\n")
        n += 1
    return n
