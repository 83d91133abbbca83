"""End-to-end data preprocessing (Figure 1, left half).

Chains the two components of the paper's preprocessing stage — the event
categorizer and the event filter — turning a raw RAS dump into the list of
unique, categorized events the prediction stage consumes.

The run is one columnar pass: the categorizer classifies every row into
an identity column without building events, the filter kernel drops
duplicates and compresses on the key columns, and only the surviving rows
(under 2 % of a raw log) are rebuilt as categorized events.  Each stage
runs in its own ``observe`` span: ``preprocess.categorize``,
``preprocess.columns`` (the filter's key columns), ``preprocess.dedup``
and ``preprocess.compress``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import observe
from repro.preprocess.categorizer import CategorizationReport, Categorizer
from repro.preprocess.filtering import (
    FilterStats,
    KeyColumns,
    compress_rows,
    dedup_rows,
)

# The public adapters over the same kernels; kept importable from here,
# where perfbench's trace points look them up.
from repro.preprocess.filtering import compress, deduplicate_exact  # noqa: F401
from repro.raslog.catalog import EventCatalog
from repro.raslog.store import EventLog

#: The paper's chosen coalescence threshold (seconds).
DEFAULT_THRESHOLD = 300.0


@dataclass
class PreprocessResult:
    """Output of one pipeline run."""

    clean: EventLog
    categorization: CategorizationReport
    filtering: FilterStats

    @property
    def compression_rate(self) -> float:
        return self.filtering.compression_rate


class PreprocessingPipeline:
    """Categorize, then compress.

    Order matters: categorization first maps free-text descriptions onto
    stable codes, so the filter's event-identity key is insensitive to
    per-instance detail in the message text (addresses, counts).

    :meth:`run` gives the same result as ``categorize`` →
    ``deduplicate_exact`` → ``compress`` on the log, through the same
    kernels, without materializing the intermediate logs.
    """

    def __init__(
        self,
        catalog: EventCatalog | None = None,
        threshold: float = DEFAULT_THRESHOLD,
        unknown: str = "skip",
        drop_exact_duplicates: bool = True,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.categorizer = Categorizer(catalog, unknown=unknown)
        self.threshold = threshold
        self.drop_exact_duplicates = drop_exact_duplicates

    @property
    def catalog(self) -> EventCatalog:
        return self.categorizer.catalog

    def run(self, raw: EventLog) -> PreprocessResult:
        events = raw.events
        with observe.span("preprocess.run"):
            report = CategorizationReport()
            with observe.span("preprocess.categorize"):
                rows, identity = self.categorizer.classify_rows(events, report)
            with observe.span("preprocess.columns"):
                cols = KeyColumns.of_events(
                    map(events.__getitem__, rows), raw.timestamps[rows], identity
                )
            kept = cols.all_rows()
            if self.drop_exact_duplicates:
                with observe.span("preprocess.dedup"):
                    kept = dedup_rows(cols, kept)
            with observe.span("preprocess.compress"):
                kept = compress_rows(cols, kept, self.threshold)
            clean_events = tuple(
                events[rows[k]].with_entry_data(identity[k]) for k in kept.tolist()
            )
            times = cols.times[kept]
            times.setflags(write=False)
            clean = EventLog._from_parts(clean_events, times, raw.origin)
            stats = FilterStats.from_logs(self.threshold, raw, clean)
        observe.counter("preprocess.events_in").inc(len(raw))
        observe.counter("preprocess.events_out").inc(len(clean))
        observe.gauge("preprocess.compression_rate").set(stats.compression_rate)
        return PreprocessResult(
            clean=clean, categorization=report, filtering=stats
        )
