"""In-memory RAS event store.

``EventLog`` replaces the paper's centralized DB2 repository: an immutable,
time-sorted sequence of :class:`~repro.raslog.events.RASEvent` with a NumPy
timestamp index so window queries (the predictor's sliding window, the
learners' rule-generation windows, weekly evaluation slices) are
``searchsorted`` + view operations rather than scans or copies.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import attrgetter
from typing import overload

import numpy as np

from repro.raslog.catalog import EventCatalog
from repro.raslog.events import Facility, RASEvent
from repro.utils.timeutil import WEEK_SECONDS


class EventLog:
    """Immutable, time-ordered collection of RAS events.

    ``origin`` anchors week/day arithmetic: week *w* covers
    ``[origin + w*WEEK, origin + (w+1)*WEEK)``.  Slicing returns views that
    share the underlying event tuple and timestamp array.
    """

    __slots__ = ("_events", "_times", "_origin")

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
        self._events = evts
        self._times = times
        self._origin = float(origin)

    @classmethod
    def _from_parts(
        cls, events: tuple[RASEvent, ...], times: np.ndarray, origin: float
    ) -> "EventLog":
        log = cls.__new__(cls)
        log._events = events
        log._times = times
        log._origin = origin
        return log

    # -- basic container protocol -------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[RASEvent]:
        return iter(self._events)

    @overload
    def __getitem__(self, index: int) -> RASEvent: ...

    @overload
    def __getitem__(self, index: slice) -> "EventLog": ...

    def __getitem__(self, index: int | slice) -> "RASEvent | EventLog":
        if isinstance(index, slice):
            if index.step not in (None, 1):
                raise ValueError("EventLog slices must be contiguous (step 1)")
            return EventLog._from_parts(
                self._events[index], self._times[index], self._origin
            )
        return self._events[index]

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
        return self._events

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

    def with_origin(self, origin: float) -> "EventLog":
        return EventLog._from_parts(self._events, self._times, float(origin))

    # -- time-window queries --------------------------------------------

    def between(self, start: float, end: float) -> "EventLog":
        """Events with ``start <= t < end`` as a zero-copy view."""
        if end < start:
            raise ValueError(f"empty interval: start={start} > end={end}")
        lo = int(np.searchsorted(self._times, start, side="left"))
        hi = int(np.searchsorted(self._times, end, side="left"))
        return EventLog._from_parts(
            self._events[lo:hi], self._times[lo:hi], self._origin
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
        kept = tuple(e for e in self._events if predicate(e))
        return EventLog(kept, origin=self._origin, _presorted=True)

    def select_codes(self, codes: Iterable[str]) -> "EventLog":
        """Events whose ``entry_data`` is one of the given codes."""
        wanted = frozenset(codes)
        return self.filter(lambda e: e.entry_data in wanted)

    def fatal(self, catalog: EventCatalog) -> "EventLog":
        """Events whose categorized code is catalog-fatal.

        Requires a categorized log (``entry_data`` holds catalog codes);
        events with unknown codes are treated as non-fatal.
        """
        return self.filter(
            lambda e: e.entry_data in catalog and catalog.is_fatal_code(e.entry_data)
        )

    def nonfatal(self, catalog: EventCatalog) -> "EventLog":
        return self.filter(
            lambda e: not (
                e.entry_data in catalog and catalog.is_fatal_code(e.entry_data)
            )
        )

    # -- aggregation ------------------------------------------------------

    def counts_by_facility(self) -> dict[Facility, int]:
        return dict(Counter(map(attrgetter("facility"), self._events)))

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self._events:
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
