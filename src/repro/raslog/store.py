"""In-memory RAS event store.

``EventLog`` replaces the paper's centralized DB2 repository: an immutable,
time-sorted sequence of :class:`~repro.raslog.events.RASEvent` with a NumPy
timestamp index so window queries (the predictor's sliding window, the
learners' rule-generation windows, weekly evaluation slices) are
``searchsorted`` + view operations rather than scans or copies.

A log parsed from a file is backed by :class:`RowColumns` instead of
events: one NumPy column per attribute, with every distinct header,
message and location stored once in a table.  Such a log answers its
length, timestamps, span and facility counts from the columns, and builds
its events (once, then cached) only when a caller touches them.  The
preprocessing pipeline reads the columns directly, so a raw log's events
are never built at all: only the few rows that survive the filter are.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import overload

import numpy as np

from repro.raslog.catalog import EventCatalog
from repro.raslog.events import Facility, RASEvent, Severity
from repro.utils.timeutil import WEEK_SECONDS

#: The attributes a row's header fixes: ``(event_type, facility, severity)``.
Header = tuple[str, Facility, Severity]

_HEADER = attrgetter("event_type", "facility", "severity")
_ENTRY_DATA = attrgetter("entry_data")


def encode(values: Iterable[Hashable], table: dict) -> np.ndarray:
    """The int64 ids of ``values`` in ``table`` (value -> id), adding the
    values it lacks with the next ids.

    Dict builds are O(n) with C-speed hashing, which beats sort-based
    ``np.unique`` on object arrays (those compare elements in Python);
    only the distinct values pass through Python bytecode.
    """
    values = list(values)
    for value in dict.fromkeys(values):
        table.setdefault(value, len(table))
    return np.fromiter(map(table.__getitem__, values), np.int64, len(values))


def _merge(tables: Sequence[Sequence]) -> tuple[list, list[np.ndarray]]:
    """One table holding every value of ``tables``, and for each of them
    the array mapping its ids to the merged table's."""
    merged: dict = {}
    remaps = [encode(table, merged) for table in tables]
    return list(merged), remaps


@dataclass(frozen=True)
class RowColumns:
    """A log's rows as columns: ``times`` (float64), ``record_id`` and
    ``job`` (int64), and ``header``, ``message`` and ``location``, each an
    int64 id into its table.

    A raw log repeats a few hundred headers and messages and a few
    thousand locations, so the tables are small and a row costs a few
    machine words instead of a frozen event.
    """

    times: np.ndarray
    record_id: np.ndarray
    job: np.ndarray
    header: np.ndarray
    message: np.ndarray
    location: np.ndarray
    headers: Sequence[Header]
    messages: Sequence[str]
    locations: Sequence[str]

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def of_events(
        cls, events: Iterable[RASEvent], times: np.ndarray | None = None
    ) -> "RowColumns":
        """The columns of ``events``, whose ``times`` (their timestamps)
        may be passed in when already at hand."""
        events = tuple(events)
        headers: dict = {}
        messages: dict = {}
        locations: dict = {}
        n = len(events)
        if times is None:
            times = np.fromiter(map(attrgetter("timestamp"), events), np.float64, n)
        return cls(
            times,
            np.fromiter(map(attrgetter("record_id"), events), np.int64, n),
            np.fromiter(map(attrgetter("job_id"), events), np.int64, n),
            encode(map(_HEADER, events), headers),
            encode(map(_ENTRY_DATA, events), messages),
            encode(map(attrgetter("location"), events), locations),
            list(headers),
            list(messages),
            list(locations),
        )

    @classmethod
    def concat(cls, parts: Sequence["RowColumns"]) -> "RowColumns":
        """The rows of ``parts`` one after another, over merged tables."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.of_events(())
        headers, h = _merge([p.headers for p in parts])
        messages, m = _merge([p.messages for p in parts])
        locations, loc = _merge([p.locations for p in parts])

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(p, name) for p in parts])

        return cls(
            joined("times"),
            joined("record_id"),
            joined("job"),
            np.concatenate([r[p.header] for r, p in zip(h, parts)]),
            np.concatenate([r[p.message] for r, p in zip(m, parts)]),
            np.concatenate([r[p.location] for r, p in zip(loc, parts)]),
            headers,
            messages,
            locations,
        )

    def take(self, rows: np.ndarray) -> "RowColumns":
        """The given rows, in the given order, over the same tables."""
        return RowColumns(
            self.times[rows],
            self.record_id[rows],
            self.job[rows],
            self.header[rows],
            self.message[rows],
            self.location[rows],
            self.headers,
            self.messages,
            self.locations,
        )

    def events(
        self,
        rows: np.ndarray | None = None,
        entry_data: Iterable[str] | None = None,
    ) -> tuple[RASEvent, ...]:
        """Build the events of ``rows`` (default: every row), with
        ``entry_data`` in place of their messages when it is given."""
        pick = slice(None) if rows is None else rows
        header = self.header[pick].tolist()
        if not header:
            return ()
        event_type, facility, severity = zip(*map(self.headers.__getitem__, header))
        if entry_data is None:
            entry_data = map(self.messages.__getitem__, self.message[pick].tolist())
        # Positional: record_id, event_type, timestamp, job_id, location,
        # entry_data, facility, severity.
        return tuple(
            map(
                RASEvent,
                self.record_id[pick].tolist(),
                event_type,
                self.times[pick].tolist(),
                self.job[pick].tolist(),
                map(self.locations.__getitem__, self.location[pick].tolist()),
                entry_data,
                facility,
                severity,
            )
        )

    def counts_by_facility(self) -> dict[Facility, int]:
        """Rows per facility."""
        out: dict[Facility, int] = {}
        counts = np.bincount(self.header, minlength=len(self.headers))
        for (_, facility, _), n in zip(self.headers, counts.tolist()):
            if n:
                out[facility] = out.get(facility, 0) + n
        return out


class EventLog:
    """Immutable, time-ordered collection of RAS events.

    ``origin`` anchors week/day arithmetic: week *w* covers
    ``[origin + w*WEEK, origin + (w+1)*WEEK)``.  Slicing returns views that
    share the underlying event tuple and timestamp array.

    A log made by :meth:`from_columns` holds no events until
    :attr:`events`, iteration, indexing or slicing needs them; it then
    builds them all once and keeps them.  :attr:`columns` gives the rows
    as :class:`RowColumns` either way.
    """

    __slots__ = ("_events", "_columns", "_times", "_origin")

    def __init__(
        self,
        events: Iterable[RASEvent] = (),
        *,
        origin: float = 0.0,
        _presorted: bool = False,
    ) -> None:
        evts = tuple(events)
        times = np.fromiter(
            map(attrgetter("timestamp"), evts), dtype=np.float64, count=len(evts)
        )
        # A stable sort, skipped when the events are already in time order.
        if not _presorted and np.any(times[1:] < times[:-1]):
            order = np.argsort(times, kind="stable")
            evts = tuple(map(evts.__getitem__, order.tolist()))
            times = times[order]
        times.setflags(write=False)
        self._events: tuple[RASEvent, ...] | None = evts
        self._columns: RowColumns | None = None
        self._times = times
        self._origin = float(origin)

    @classmethod
    def _from_parts(
        cls,
        events: tuple[RASEvent, ...] | None,
        times: np.ndarray,
        origin: float,
        columns: "RowColumns | None" = None,
    ) -> "EventLog":
        log = cls.__new__(cls)
        log._events = events
        log._columns = columns
        log._times = times
        log._origin = origin
        return log

    @classmethod
    def from_columns(
        cls, columns: RowColumns, origin: float | None = None
    ) -> "EventLog":
        """A log backed by ``columns``, stably sorted by time when they are
        out of order; ``origin`` defaults to the earliest time (0 when
        empty)."""
        times = columns.times
        if np.any(times[1:] < times[:-1]):
            columns = columns.take(np.argsort(times, kind="stable"))
            times = columns.times
        times = times.view()
        times.setflags(write=False)
        if origin is None:
            origin = float(times[0]) if len(times) else 0.0
        return cls._from_parts(None, times, float(origin), columns)

    # -- basic container protocol -------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[RASEvent]:
        return iter(self.events)

    @overload
    def __getitem__(self, index: int) -> RASEvent: ...

    @overload
    def __getitem__(self, index: slice) -> "EventLog": ...

    def __getitem__(self, index: int | slice) -> "RASEvent | EventLog":
        if isinstance(index, slice):
            if index.step not in (None, 1):
                raise ValueError("EventLog slices must be contiguous (step 1)")
            return EventLog._from_parts(
                self.events[index], self._times[index], self._origin
            )
        return self.events[index]

    def __repr__(self) -> str:
        if len(self) == 0:
            return f"EventLog(n=0, origin={self._origin})"
        return (
            f"EventLog(n={len(self)}, origin={self._origin}, "
            f"span=[{self._times[0]:.0f}, {self._times[-1]:.0f}])"
        )

    # -- metadata ------------------------------------------------------

    @property
    def events(self) -> tuple[RASEvent, ...]:
        if self._events is None:
            assert self._columns is not None
            self._events = self._columns.events()
        return self._events

    def event(self, row: int) -> RASEvent:
        """The event at ``row``; a log made by :meth:`from_columns` that
        has not built its events builds this one alone."""
        if self._events is None:
            assert self._columns is not None
            (event,) = self._columns.events(np.array([row]))
            return event
        return self._events[row]

    def codes(self) -> tuple[np.ndarray, list[str]]:
        """Each row's ``entry_data`` as an id into the returned table: the
        message column of a log made by :meth:`from_columns`, else encoded
        from the events."""
        if self._columns is not None:
            return self._columns.message, list(self._columns.messages)
        table: dict = {}
        ids = encode(map(_ENTRY_DATA, self._events), table)
        return ids, list(table)

    @property
    def columns(self) -> RowColumns:
        """The rows as columns: the backing ones of a log made by
        :meth:`from_columns`, else built from the events on each call."""
        if self._columns is not None:
            return self._columns
        return RowColumns.of_events(self._events, self._times)

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only float64 array of event times (sorted ascending)."""
        return self._times

    @property
    def origin(self) -> float:
        return self._origin

    @property
    def span(self) -> tuple[float, float]:
        """(first, last) event time; ``(origin, origin)`` when empty."""
        if len(self) == 0:
            return (self._origin, self._origin)
        return (float(self._times[0]), float(self._times[-1]))

    @property
    def n_weeks(self) -> int:
        """Number of (possibly partial) weeks spanned from the origin."""
        if len(self) == 0:
            return 0
        return int((self._times[-1] - self._origin) // WEEK_SECONDS) + 1

    def take(
        self, rows: np.ndarray, columns: RowColumns | None = None
    ) -> "EventLog":
        """The events at ``rows`` (ascending indices), same origin, backed
        by those rows of ``columns`` (default: :attr:`columns`).  Events
        are taken only if this log has built its own."""
        times = self._times[rows]
        times.setflags(write=False)
        columns = (self.columns if columns is None else columns).take(rows)
        events = None
        if self._events is not None:
            events = tuple(map(self._events.__getitem__, rows.tolist()))
        return EventLog._from_parts(events, times, self._origin, columns)

    def with_origin(self, origin: float) -> "EventLog":
        return EventLog._from_parts(
            self._events, self._times, float(origin), self._columns
        )

    # -- time-window queries --------------------------------------------

    def between(self, start: float, end: float) -> "EventLog":
        """Events with ``start <= t < end`` as a zero-copy view."""
        if end < start:
            raise ValueError(f"empty interval: start={start} > end={end}")
        lo = int(np.searchsorted(self._times, start, side="left"))
        hi = int(np.searchsorted(self._times, end, side="left"))
        return EventLog._from_parts(
            self.events[lo:hi], self._times[lo:hi], self._origin
        )

    def window_before(self, t: float, width: float) -> "EventLog":
        """Events inside ``[t - width, t)`` — a rule-generation window."""
        if width < 0:
            raise ValueError(f"negative window width {width}")
        return self.between(t - width, t)

    def week(self, week: int) -> "EventLog":
        """Events of the given zero-based week (relative to the origin)."""
        start = self._origin + week * WEEK_SECONDS
        return self.between(start, start + WEEK_SECONDS)

    def slice_weeks(self, first: int, last: int) -> "EventLog":
        """Events of weeks ``first .. last-1`` (half-open, like ``range``)."""
        if last < first:
            raise ValueError(f"empty week range [{first}, {last})")
        start = self._origin + first * WEEK_SECONDS
        end = self._origin + last * WEEK_SECONDS
        return self.between(start, end)

    # -- filtering -------------------------------------------------------

    def filter(self, predicate: Callable[[RASEvent], bool]) -> "EventLog":
        kept = tuple(e for e in self.events if predicate(e))
        return EventLog(kept, origin=self._origin, _presorted=True)

    def select_codes(self, codes: Iterable[str]) -> "EventLog":
        """Events whose ``entry_data`` is one of the given codes."""
        wanted = frozenset(codes)
        return self.filter(lambda e: e.entry_data in wanted)

    def fatal(self, catalog: EventCatalog) -> "EventLog":
        """Events whose categorized code is catalog-fatal.

        Requires a categorized log (``entry_data`` holds catalog codes);
        an event is fatal when its code is one of ``catalog.fatal_codes``,
        so events with unknown codes are treated as non-fatal.
        """
        return self._where(self._fatal_flags(catalog))

    def nonfatal(self, catalog: EventCatalog) -> "EventLog":
        return self._where([not f for f in self._fatal_flags(catalog)])

    def split_fatal(self, catalog: EventCatalog) -> tuple["EventLog", "EventLog"]:
        """``(fatal(catalog), nonfatal(catalog))`` from one pass over the
        codes."""
        flags = self._fatal_flags(catalog)
        return self._where(flags), self._where([not f for f in flags])

    def _fatal_flags(self, catalog: EventCatalog) -> list[bool]:
        fatal = catalog.fatal_codes
        return list(map(fatal.__contains__, map(_ENTRY_DATA, self.events)))

    def _where(self, flags: list[bool]) -> "EventLog":
        """The events whose flag is set, same origin."""
        times = self._times[np.fromiter(flags, bool, len(flags))]
        times.setflags(write=False)
        return EventLog._from_parts(
            tuple(compress(self.events, flags)), times, self._origin
        )

    # -- aggregation ------------------------------------------------------

    def counts_by_facility(self) -> dict[Facility, int]:
        if self._columns is not None:
            return self._columns.counts_by_facility()
        return dict(Counter(map(attrgetter("facility"), self._events)))

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.events:
            counts[e.entry_data] = counts.get(e.entry_data, 0) + 1
        return counts

    def daily_counts(self) -> np.ndarray:
        """Events per day from the origin (Figure 4 series)."""
        if len(self) == 0:
            return np.zeros(0, dtype=np.int64)
        days = ((self._times - self._origin) // 86400.0).astype(np.int64)
        if days.min() < 0:
            raise ValueError("log contains events before its origin")
        return np.bincount(days)

    def interarrivals(self) -> np.ndarray:
        """Gaps between consecutive events (Figure 5 inputs)."""
        if len(self) < 2:
            return np.zeros(0, dtype=np.float64)
        return np.diff(self._times)

    # -- combination -----------------------------------------------------

    @staticmethod
    def concat(logs: Sequence["EventLog"], origin: float | None = None) -> "EventLog":
        """Merge several logs into one time-sorted log."""
        if not logs:
            return EventLog(origin=origin or 0.0)
        events: list[RASEvent] = []
        for log in logs:
            events.extend(log.events)
        base = logs[0].origin if origin is None else origin
        return EventLog(events, origin=base)
