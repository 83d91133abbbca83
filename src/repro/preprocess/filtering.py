"""Event filtering (Section 3.2): temporal and spatial compression.

*Temporal compression at a single location*: records with identical Job ID,
Location and event identity reported within a threshold of each other are
coalesced into one entry (chain-based tupling, following Hansen & Siewiorek's
time-coalescence model: a record joins the current tuple when its gap to the
previous record of the tuple is within the threshold; the earliest record of
each tuple is kept).

*Spatial compression across locations*: records with identical event
identity and Job ID but *different* locations, close to each other within
the threshold, are reduced to the earliest report.

Event identity is the ``entry_data`` field — the free-text description in a
raw log, or the catalog code after categorization; both work.

Both steps, and exact-duplicate removal, are one kernel over integer key
columns (:class:`KeyColumns`: timestamps, Job ID, identity, Location, each
factorized once): :func:`dedup_rows` and :func:`compress_rows` take and
return ascending row-index arrays, so the stages chain by masking indices
and no intermediate log is built.  The preprocessing pipeline runs them on
the categorizer's columns; :func:`deduplicate_exact`,
:func:`temporal_compress`, :func:`spatial_compress` and :func:`compress`
are adapters (log → columns → kernel → one selection).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import compress as _itcompress
from operator import attrgetter

import numpy as np

from repro.raslog.events import Facility, RASEvent
from repro.raslog.store import EventLog


@dataclass
class FilterStats:
    """Input/output record accounting for one compression pass."""

    threshold: float
    n_input: int = 0
    n_output: int = 0
    by_facility: dict[Facility, tuple[int, int]] = field(default_factory=dict)

    @property
    def compression_rate(self) -> float:
        """Fraction of records removed (the paper reports ≥ 98 % at 300 s)."""
        if self.n_input == 0:
            return 0.0
        return 1.0 - self.n_output / self.n_input

    @staticmethod
    def from_logs(
        threshold: float, before: EventLog, after: EventLog
    ) -> "FilterStats":
        before_counts = before.counts_by_facility()
        after_counts = after.counts_by_facility()
        return FilterStats(
            threshold=threshold,
            n_input=len(before),
            n_output=len(after),
            by_facility={
                fac: (before_counts.get(fac, 0), after_counts.get(fac, 0))
                for fac in set(before_counts) | set(after_counts)
            },
        )


#: A factorized key column: ``(codes, cardinality)``.
Column = tuple[np.ndarray, int]

_INT64_LIMIT = 2**63

_JOB_ID = attrgetter("job_id")
_ENTRY_DATA = attrgetter("entry_data")
_LOCATION = attrgetter("location")


def _factorize(values: Sequence[Hashable]) -> Column:
    """Hash-factorize a column of hashables into dense int64 codes.

    Dict builds are O(n) with C-speed hashing, which beats sort-based
    ``np.unique`` on object arrays (those compare elements in Python);
    only the distinct values pass through Python bytecode.
    """
    table = {v: i for i, v in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(
        map(table.__getitem__, values), dtype=np.int64, count=len(values)
    )
    return codes, max(len(table), 1)


def _group_ids(*columns: Column) -> np.ndarray:
    """Fold key columns into one int64 group id.

    Rows are in the same group iff they are equal in every column.  The
    id is the mixed-radix number of the codes; it is re-compressed with
    ``np.unique`` (a C-speed sort) only when the next fold could
    overflow int64.
    """
    gid, radix = columns[0]
    for codes, cardinality in columns[1:]:
        if radix * cardinality >= _INT64_LIMIT:
            uniques, gid = np.unique(gid, return_inverse=True)
            radix = len(uniques)
        gid = gid * np.int64(cardinality) + codes
        radix *= cardinality
    return gid


@dataclass(frozen=True)
class KeyColumns:
    """The filter's key columns over time-ordered rows, each factorized once.

    ``times`` must be non-decreasing, as an :class:`EventLog`'s are; the
    kernels below rely on it to keep the earliest row of every tuple.
    """

    times: np.ndarray
    job: Column
    identity: Column
    location: Column

    @classmethod
    def of_events(
        cls,
        events: Iterable[RASEvent],
        times: np.ndarray,
        identity: Sequence[str] | None = None,
    ) -> "KeyColumns":
        """Columns of ``events``; ``identity`` defaults to their
        ``entry_data``."""
        events = list(events)
        if identity is None:
            identity = list(map(_ENTRY_DATA, events))
        return cls(
            times,
            _factorize(list(map(_JOB_ID, events))),
            _factorize(identity),
            _factorize(list(map(_LOCATION, events))),
        )

    def all_rows(self) -> np.ndarray:
        return np.arange(len(self.times))


def _chain_heads(
    times: np.ndarray, gid: np.ndarray, rows: np.ndarray, gap: float
) -> np.ndarray:
    """The rows (ascending) that start a chain-tuple of their group.

    Rows of one group form a tuple while each is within ``gap`` of the
    one before it.  One stable argsort groups the rows while keeping
    each group in time order; a tuple starts wherever the group id
    changes or the gap to the previous row exceeds ``gap``.
    """
    if len(rows) == 0:
        return rows
    g = gid[rows]
    order = np.argsort(g, kind="stable")
    g = g[order]
    t = times[rows][order]
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    np.not_equal(g[1:], g[:-1], out=starts[1:])
    starts[1:] |= np.diff(t) > gap
    return np.sort(rows[order[starts]])


def dedup_rows(cols: KeyColumns, rows: np.ndarray) -> np.ndarray:
    """Drop rows identical to an earlier one in time, job, identity and
    location: a chain with zero gap, so the first occurrence wins."""
    gid = _group_ids(cols.job, cols.identity, cols.location)
    return _chain_heads(cols.times, gid, rows, 0.0)


def compress_rows(
    cols: KeyColumns,
    rows: np.ndarray,
    threshold: float,
    *,
    temporal: bool = True,
    spatial: bool = True,
) -> np.ndarray:
    """Temporal, then spatial compression of ``rows`` (see the module
    docs); threshold 0 keeps every row."""
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    if threshold == 0:
        return rows
    if temporal:
        gid = _group_ids(cols.job, cols.identity, cols.location)
        rows = _chain_heads(cols.times, gid, rows, threshold)
    if spatial:
        gid = _group_ids(cols.job, cols.identity)
        rows = _chain_heads(cols.times, gid, rows, threshold)
    return rows


def _columns(log: EventLog) -> KeyColumns:
    return KeyColumns.of_events(log.events, log.timestamps)


def _select(log: EventLog, rows: np.ndarray) -> EventLog:
    if len(rows) == len(log):
        return log
    keep = np.zeros(len(log), dtype=bool)
    keep[rows] = True
    kept = tuple(_itcompress(log.events, keep))
    times = log.timestamps[rows]
    times.setflags(write=False)
    return EventLog._from_parts(kept, times, log.origin)


def _compress_log(
    log: EventLog, threshold: float, temporal: bool, spatial: bool
) -> tuple[EventLog, FilterStats]:
    if threshold == 0:
        return log, FilterStats.from_logs(threshold, log, log)
    cols = _columns(log)  # compress_rows rejects a negative threshold
    rows = compress_rows(
        cols, cols.all_rows(), threshold, temporal=temporal, spatial=spatial
    )
    out = _select(log, rows)
    return out, FilterStats.from_logs(threshold, log, out)


def temporal_compress(
    log: EventLog, threshold: float
) -> tuple[EventLog, FilterStats]:
    """Coalesce repeated reports from the same location/job/event."""
    return _compress_log(log, threshold, temporal=True, spatial=False)


def spatial_compress(
    log: EventLog, threshold: float
) -> tuple[EventLog, FilterStats]:
    """Coalesce reports of the same event/job from different locations."""
    return _compress_log(log, threshold, temporal=False, spatial=True)


def compress(
    log: EventLog, threshold: float
) -> tuple[EventLog, FilterStats]:
    """Full filter: temporal compression, then spatial compression.

    The returned stats are end-to-end (raw input vs final output).
    """
    return _compress_log(log, threshold, temporal=True, spatial=True)


def deduplicate_exact(log: EventLog) -> EventLog:
    """Remove byte-identical records with the same timestamp.

    The logging granularity is sub-millisecond but recorded times are
    second-resolution, so raw logs contain exact-duplicate rows even before
    window-based compression (Section 3).
    """
    cols = _columns(log)
    return _select(log, dedup_rows(cols, cols.all_rows()))
