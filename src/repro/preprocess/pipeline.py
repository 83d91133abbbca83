"""End-to-end data preprocessing (Figure 1, left half).

Chains the two components of the paper's preprocessing stage — the event
categorizer and the event filter — turning a raw RAS dump into the list of
unique, categorized events the prediction stage consumes.

The run is columnar: the categorizer classifies each distinct (header,
message) pair of the log's :class:`~repro.raslog.store.RowColumns` once,
the filter kernel (:class:`~repro.preprocess.filtering.ChunkFilter`)
drops duplicates and compresses on integer key columns, and only the
surviving rows (under 2 % of a raw log) are built as categorized events.
:meth:`PreprocessingPipeline.run` makes that pass over a whole log;
:meth:`PreprocessingPipeline.run_file` makes it over a LogHub file parsed
in chunks, carrying the categorization tallies and the filter's open
groups from chunk to chunk, so memory is bounded by a chunk and the
survivors.  Each chunk runs in ``observe`` spans ``preprocess.categorize``,
``preprocess.columns`` (the filter's key columns), ``preprocess.dedup``
and ``preprocess.compress``, inside one ``preprocess.run``.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from repro import observe
from repro.preprocess.categorizer import CategorizationReport, Categorizer
from repro.preprocess.filtering import ChunkFilter, FilterStats

# The public adapters over the same kernels; kept importable from here,
# where perfbench's trace points look them up.
from repro.preprocess.filtering import compress, deduplicate_exact  # noqa: F401
from repro.raslog.catalog import EventCatalog
from repro.raslog.events import Facility, RASEvent
from repro.raslog.parser import (
    ParseReport,
    dump_log,
    iter_chunks,
    load_log,
    open_log,
)
from repro.raslog.store import EventLog, RowColumns

#: The paper's chosen coalescence threshold (seconds).
DEFAULT_THRESHOLD = 300.0


@dataclass
class PreprocessResult:
    """Output of one pipeline run.

    ``clean`` is None when :meth:`PreprocessingPipeline.run_file` wrote
    the clean events to a file instead.
    """

    clean: EventLog | None
    categorization: CategorizationReport
    filtering: FilterStats

    @property
    def compression_rate(self) -> float:
        return self.filtering.compression_rate


class _Pass:
    """One pipeline pass over consecutive time-ordered chunks of a log."""

    def __init__(self, pipeline: "PreprocessingPipeline") -> None:
        self.categorizer = pipeline.categorizer
        self.threshold = pipeline.threshold
        self.filter = ChunkFilter(pipeline.threshold, pipeline.drop_exact_duplicates)
        self.categorization = CategorizationReport()
        self.raw_counts: Counter[Facility] = Counter()
        self.clean_counts: Counter[Facility] = Counter()

    def feed(self, columns: RowColumns) -> tuple[RASEvent, ...]:
        """The clean events of the next chunk."""
        with observe.span("preprocess.categorize"):
            classified = self.categorizer.classify_columns(
                columns, self.categorization
            )
        rows = classified.rows
        with observe.span("preprocess.columns"):
            key_columns = (
                columns.times[rows],
                columns.job[rows],
                (classified.identity, classified.identities),
                (columns.location[rows], columns.locations),
            )
        kept = self.filter.feed(*key_columns)
        events = columns.events(rows[kept], classified.identity_texts(kept))
        self.raw_counts.update(columns.counts_by_facility())
        self.clean_counts.update(map(attrgetter("facility"), events))
        return events

    def result(self, clean: EventLog | None) -> PreprocessResult:
        stats = FilterStats.from_counts(
            self.threshold, dict(self.raw_counts), dict(self.clean_counts)
        )
        observe.counter("preprocess.events_in").inc(stats.n_input)
        observe.counter("preprocess.events_out").inc(stats.n_output)
        observe.gauge("preprocess.compression_rate").set(stats.compression_rate)
        return PreprocessResult(
            clean=clean, categorization=self.categorization, filtering=stats
        )


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
        """Preprocess a whole log: its columns (built from its events
        when it has none) as one chunk."""
        with observe.span("preprocess.run"):
            step = _Pass(self)
            events = step.feed(raw.columns)
            clean = EventLog(events, origin=raw.origin, _presorted=True)
        return step.result(clean)

    def run_file(
        self,
        source: str | Path,
        *,
        strict: bool = False,
        report: ParseReport | None = None,
        output: str | Path | None = None,
    ) -> PreprocessResult:
        """Parse and preprocess a LogHub BGL file, chunk by chunk.

        Gives :meth:`run` on :func:`~repro.raslog.parser.load_log` of the
        file, with the same parse ``report``, without holding more than a
        chunk of raw rows.  A chunk whose rows are out of time order is
        stably sorted; if one starts before the previous chunk's last
        time, the file is parsed again whole, so out-of-order input gives
        exactly what the whole-log path gives.

        With ``output``, each chunk's clean events are written there as
        LogHub lines, with their own epochs, and the result's ``clean`` is
        None.
        """
        report = report if report is not None else ParseReport()
        start = (report.parsed, report.skipped, len(report.errors))
        with observe.span("preprocess.run"):
            result = self._stream(source, strict, report, output)
        if result is not None:
            return result
        # Out of time order across chunks: start again on the whole file.
        report.parsed, report.skipped = start[:2]
        del report.errors[start[2]:]
        result = self.run(load_log(source, strict=strict, report=report))
        if output is not None:
            dump_log(result.clean, output, origin_epoch=0.0)
            result.clean = None
        return result

    def _stream(
        self,
        source: str | Path,
        strict: bool,
        report: ParseReport,
        output: str | Path | None,
    ) -> PreprocessResult | None:
        """:meth:`run_file`'s chunked pass; None if a chunk starts before
        the previous one ends."""
        step = _Pass(self)
        kept: list[RASEvent] = []
        origin: float | None = None
        last = -math.inf
        with ExitStack() as stack:
            lines = stack.enter_context(open_log(source))
            out = None
            if output is not None:
                out = stack.enter_context(open(output, "w", encoding="utf-8"))
            for chunk in iter_chunks(lines, strict=strict, report=report):
                times = chunk.times
                if np.any(times[1:] < times[:-1]):
                    chunk = chunk.take(np.argsort(times, kind="stable"))
                    times = chunk.times
                if times[0] < last:
                    return None
                if origin is None:
                    origin = float(times[0])
                last = float(times[-1])
                events = step.feed(chunk)
                if out is None:
                    kept.extend(events)
                else:
                    dump_log(events, out, origin_epoch=0.0)
        if out is not None:
            return step.result(None)
        clean = EventLog(kept, origin=origin or 0.0, _presorted=True)
        return step.result(clean)
