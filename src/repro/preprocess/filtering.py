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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress as _itcompress

import numpy as np

from repro.raslog.events import Facility
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


def _factorize(values, n: int) -> tuple[np.ndarray, int]:
    """Hash-factorize a column of hashables into dense int64 codes.

    A dict build is O(n) with C-speed hashing, which beats sort-based
    ``np.unique`` on object arrays (those compare elements in Python).
    """
    table: dict[object, int] = {}
    codes = np.fromiter(
        (table.setdefault(v, len(table)) for v in values),
        dtype=np.int64,
        count=n,
    )
    return codes, max(len(table), 1)


def _group_ids(columns) -> np.ndarray:
    """Fold ``(codes, cardinality)`` columns into one dense group id.

    Rows are in the same group iff they are equal in every column.  The
    combined id is re-compressed (``np.unique`` over int64, a C-speed
    sort) after every fold, so ids stay dense and the mixed-radix
    product can never overflow int64.
    """
    columns = list(columns)
    gid, _ = columns[0]
    for codes, cardinality in columns[1:]:
        gid = gid * np.int64(cardinality) + codes
        _, gid = np.unique(gid, return_inverse=True)
    return gid


def _key_columns(log: EventLog, with_location: bool):
    n = len(log)
    columns = [
        _factorize((e.job_id for e in log), n),
        _factorize((e.entry_data for e in log), n),
    ]
    if with_location:
        columns.append(_factorize((e.location for e in log), n))
    return columns


def _select(log: EventLog, keep: np.ndarray) -> EventLog:
    if keep.all():
        return log
    kept = tuple(_itcompress(log.events, keep))
    times = log.timestamps[keep]
    times.setflags(write=False)
    return EventLog._from_parts(kept, times, log.origin)


def _coalesce(
    log: EventLog,
    threshold: float,
    with_location: bool,
) -> EventLog:
    """Keep the earliest record of every chain-tuple of a key group.

    Records sharing a key (Job ID + event identity, plus Location when
    ``with_location``) form tuples: consecutive records (in time) whose
    gap is ≤ ``threshold`` belong to the same tuple.  Fully vectorized:
    one stable argsort groups rows by key while preserving time order
    inside each group, then a tuple starts wherever the group id changes
    or the gap to the previous record exceeds the threshold.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    if threshold == 0 or len(log) == 0:
        return log

    gid = _group_ids(_key_columns(log, with_location))
    # Stable sort by group id: EventLog is time-sorted, so within each
    # group the original (time) order is preserved.
    order = np.argsort(gid, kind="stable")
    ts = log.timestamps[order]
    gid_sorted = gid[order]

    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    np.not_equal(gid_sorted[1:], gid_sorted[:-1], out=starts[1:])
    starts[1:] |= np.diff(ts) > threshold

    keep = np.zeros(len(order), dtype=bool)
    keep[order[starts]] = True
    return _select(log, keep)


def temporal_compress(
    log: EventLog, threshold: float
) -> tuple[EventLog, FilterStats]:
    """Coalesce repeated reports from the same location/job/event."""
    out = _coalesce(log, threshold, with_location=True)
    return out, FilterStats.from_logs(threshold, log, out)


def spatial_compress(
    log: EventLog, threshold: float
) -> tuple[EventLog, FilterStats]:
    """Coalesce reports of the same event/job from different locations."""
    out = _coalesce(log, threshold, with_location=False)
    return out, FilterStats.from_logs(threshold, log, out)


def compress(
    log: EventLog, threshold: float
) -> tuple[EventLog, FilterStats]:
    """Full filter: temporal compression, then spatial compression.

    The returned stats are end-to-end (raw input vs final output).
    """
    after_temporal = _coalesce(log, threshold, with_location=True)
    out = _coalesce(after_temporal, threshold, with_location=False)
    return out, FilterStats.from_logs(threshold, log, out)


def deduplicate_exact(log: EventLog) -> EventLog:
    """Remove byte-identical records with the same timestamp.

    The logging granularity is sub-millisecond but recorded times are
    second-resolution, so raw logs contain exact-duplicate rows even before
    window-based compression (Section 3).
    """
    if len(log) == 0:
        return log
    # Timestamps are float64 and sort at C speed, so np.unique is the
    # fast factorizer here (unlike the string columns).
    ts_uniques, ts_codes = np.unique(log.timestamps, return_inverse=True)
    times = (ts_codes.astype(np.int64, copy=False), max(len(ts_uniques), 1))
    gid = _group_ids([times, *_key_columns(log, with_location=True)])
    # First occurrence (lowest original index) of each signature wins,
    # exactly like the first-seen-wins set scan this replaces.
    _, first = np.unique(gid, return_index=True)
    keep = np.zeros(len(log), dtype=bool)
    keep[first] = True
    return _select(log, keep)
