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
columns (:class:`KeyColumns`: timestamps, and Job ID, identity and
Location as dense codes, read off a log's
:class:`~repro.raslog.store.RowColumns`): :func:`dedup_rows` and
:func:`compress_rows` take and return ascending row-index arrays, so the
stages chain by masking indices and no intermediate log is built.  :func:`deduplicate_exact`,
:func:`temporal_compress`, :func:`spatial_compress` and :func:`compress`
are adapters (log → columns → kernel → one selection); on a log parsed
from a file they build no events.

:class:`ChunkFilter` runs all three steps over consecutive time-ordered
chunks of rows, which is how the preprocessing pipeline runs them, on a
whole log (one chunk) or on a file streamed in chunks.  Every step keeps
a row unless it chains onto an earlier row of its group (the previous
row for deduplication and temporal compression, the previous temporal
survivor for spatial compression), so the filter carries, per group,
just the time of that row into the next chunk, as a leading "ghost" row
of the group.  A group idle for longer than the threshold can no longer
chain and is dropped from the carry, which keeps it bounded by the groups
active in the last threshold seconds.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from repro import observe
from repro.raslog.events import Facility
from repro.raslog.store import EventLog, RowColumns, encode


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
        return FilterStats.from_counts(
            threshold, before.counts_by_facility(), after.counts_by_facility()
        )

    @staticmethod
    def from_counts(
        threshold: float,
        before: dict[Facility, int],
        after: dict[Facility, int],
    ) -> "FilterStats":
        """Stats from per-facility record counts before and after."""
        return FilterStats(
            threshold=threshold,
            n_input=sum(before.values()),
            n_output=sum(after.values()),
            by_facility={
                fac: (before.get(fac, 0), after.get(fac, 0))
                for fac in set(before) | set(after)
            },
        )


#: A factorized key column: ``(codes, cardinality)``.
Column = tuple[np.ndarray, int]

_INT64_LIMIT = 2**63


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
    """The filter's key columns over time-ordered rows: ``times``, and Job
    ID, identity and location as ``(codes, cardinality)`` pairs.

    ``times`` must be non-decreasing, as an :class:`EventLog`'s are; the
    kernels below rely on it to keep the earliest row of every tuple.
    """

    times: np.ndarray
    job: Column
    identity: Column
    location: Column

    @classmethod
    def of_rows(cls, rows: RowColumns) -> "KeyColumns":
        """The key columns of a log's rows, their message as identity."""
        jobs, job = np.unique(rows.job, return_inverse=True)
        return cls(
            rows.times,
            (job, max(len(jobs), 1)),
            (rows.message, max(len(rows.messages), 1)),
            (rows.location, max(len(rows.locations), 1)),
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


def _last_rows(gid: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The last of ``rows`` (ascending) in each group of ``gid``."""
    if len(rows) == 0:
        return rows
    g = gid[rows]
    order = np.argsort(g, kind="stable")
    g = g[order]
    last = np.empty(len(order), dtype=bool)
    last[-1] = True
    np.not_equal(g[1:], g[:-1], out=last[:-1])
    return rows[order[last]]


class ChunkFilter:
    """Exact deduplication (optional), then temporal, then spatial
    compression, over consecutive time-ordered chunks of rows.

    Feeding a log's rows in any number of chunks keeps exactly the rows
    that :func:`dedup_rows` and :func:`compress_rows` keep on the whole
    log, provided no chunk starts before the previous one ends (see the
    module docs for the carry).
    """

    def __init__(self, threshold: float, dedup: bool = True) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.threshold = threshold
        self.dedup = dedup
        #: (job, identity, location) -> time of the group's last row
        self.temporal: dict[tuple, float] = {}
        #: (job, identity) -> time of the group's last temporal survivor
        self.spatial: dict[tuple, float] = {}

    def feed(
        self,
        times: np.ndarray,
        job: np.ndarray,
        identity: tuple[np.ndarray, Sequence[str]],
        location: tuple[np.ndarray, Sequence[str]],
    ) -> np.ndarray:
        """The kept rows (ascending indices) of one chunk.

        ``times`` must be non-decreasing and not before the previous
        chunk's last time; ``job`` holds Job IDs, and ``identity`` and
        ``location`` are ``(codes, values)`` pairs.
        """
        if len(times) == 0 or (self.threshold == 0 and not self.dedup):
            return np.arange(len(times))
        # Rows 0..n_t-1 are the temporal groups' ghosts, rows n_t..g-1 the
        # spatial groups' (whose location is never looked at), each set
        # in time order; the chunk's rows follow.
        carried = sorted(self.temporal.items(), key=itemgetter(1))
        n_t = len(carried)
        carried += sorted(self.spatial.items(), key=itemgetter(1))
        g = len(carried)
        keys = [key for key, _ in carried]
        ident_ids = {v: i for i, v in enumerate(identity[1])}
        loc_ids = {v: i for i, v in enumerate(location[1])}
        jobs, job_codes = np.unique(
            np.concatenate([np.array([k[0] for k in keys], dtype=np.int64), job]),
            return_inverse=True,
        )
        ident_codes = np.concatenate(
            [encode([k[1] for k in keys], ident_ids), identity[0]]
        )
        loc_codes = np.concatenate([
            encode([k[2] for k in keys[:n_t]], loc_ids),
            np.zeros(g - n_t, dtype=np.int64),
            location[0],
        ])
        identities, locations = list(ident_ids), list(loc_ids)
        all_times = np.concatenate(
            [np.array([t for _, t in carried], dtype=np.float64), times]
        )
        cols = KeyColumns(
            all_times,
            (job_codes, len(jobs)),
            (ident_codes, max(len(identities), 1)),
            (loc_codes, max(len(locations), 1)),
        )
        rows = np.concatenate([np.arange(n_t), np.arange(g, len(all_times))])
        temporal_rows = rows
        if self.dedup:
            with observe.span("preprocess.dedup"):
                rows = dedup_rows(cols, rows)
        with observe.span("preprocess.compress"):
            heads = compress_rows(
                cols, rows, self.threshold, temporal=True, spatial=False
            )
            spatial_rows = np.concatenate([np.arange(n_t, g), heads[heads >= g]])
            kept = compress_rows(
                cols, spatial_rows, self.threshold, temporal=False, spatial=True
            )
        # Carry each group's last row (temporal survivor, for the spatial
        # groups) unless the group has been idle for longer than the
        # threshold.
        horizon = float(times[-1]) - self.threshold

        def still_open(gid: np.ndarray, rows: np.ndarray) -> list[int]:
            last = _last_rows(gid, rows)
            return last[all_times[last] >= horizon].tolist()

        def key(r: int) -> tuple:
            return (
                int(jobs[job_codes[r]]),
                identities[ident_codes[r]],
                locations[loc_codes[r]],
            )

        temporal_gid = _group_ids(cols.job, cols.identity, cols.location)
        spatial_gid = _group_ids(cols.job, cols.identity)
        self.temporal = {
            key(r): float(all_times[r])
            for r in still_open(temporal_gid, temporal_rows)
        }
        self.spatial = {
            key(r)[:2]: float(all_times[r])
            for r in still_open(spatial_gid, spatial_rows)
        }
        return kept[kept >= g] - g


def _filter_log(
    log: EventLog, kernel: Callable[[KeyColumns], np.ndarray]
) -> EventLog:
    """The log's rows that ``kernel`` keeps, given their key columns."""
    rows = log.columns
    kept = kernel(KeyColumns.of_rows(rows))
    return log if len(kept) == len(log) else log.take(kept, rows)


def _compress_log(
    log: EventLog, threshold: float, temporal: bool, spatial: bool
) -> tuple[EventLog, FilterStats]:
    if threshold == 0:
        return log, FilterStats.from_logs(threshold, log, log)
    # compress_rows rejects a negative threshold.
    out = _filter_log(
        log,
        lambda cols: compress_rows(
            cols, cols.all_rows(), threshold, temporal=temporal, spatial=spatial
        ),
    )
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
    return _filter_log(log, lambda cols: dedup_rows(cols, cols.all_rows()))
