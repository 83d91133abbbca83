"""Event categorization (Section 3.1).

Maps raw RAS records onto the hierarchical catalog: the Facility attribute
selects the high-level category, and the Severity + Entry Data attributes
select the low-level event type.  After categorization an event's
``entry_data`` holds the catalog *code*, which is the identity the learners
and the predictor operate on.

:meth:`Categorizer.classify_columns` is the one classification pass: it
works on a log's :class:`~repro.raslog.store.RowColumns`, applies the
unknown policy, fills every :class:`CategorizationReport` tally, and
returns the kept rows with their identity (the catalog code, or the raw
text of an unknown row under ``unknown="keep"``) without building any
event.  A raw log repeats a few hundred distinct (header, message) pairs
thousands of times each, so the pass classifies each distinct pair once
and spreads the outcome over its rows with NumPy.  The preprocessing
pipeline filters on those columns and builds only the survivors;
:meth:`Categorizer.categorize` is the same pass followed by the build of
every kept row.

Nothing is kept between calls: a pass over a file in chunks classifies
each distinct pair once per chunk, so the categorizer's memory is bounded
by one chunk however many distinct messages the log holds.

Fake-fatal handling: the paper removes events whose logged severity is
FATAL/FAILURE but which administrators classified as benign.  Those types
carry ``fatal=False`` in the catalog, so simply classifying through the
catalog performs the removal; the report counts how many records were
demoted this way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.raslog.catalog import EventCatalog, EventType, default_catalog
from repro.raslog.events import Facility, RASEvent
from repro.raslog.store import EventLog, RowColumns

_WS = re.compile(r"\s+")
_BRACKET_TAIL = re.compile(r"\s*\[[^\]]*\]$")
_NUMERIC_TAIL = re.compile(r"\s*(0x[0-9a-f]+|\d+)$")


def _fold(text: str) -> str:
    """Case- and whitespace-insensitive form of a description."""
    return _WS.sub(" ", text.strip().lower())


def normalize_description(text: str) -> str:
    """Fallback form for description lookup: :func:`_fold`, with
    trailing numeric details stripped (e.g. ``"ddr error ... at 0x0bc0"``
    → the generic type text)."""
    text = _fold(text)
    # Strip bracketed or hex/numeric tails that encode per-instance detail.
    text = _BRACKET_TAIL.sub("", text)
    text = _NUMERIC_TAIL.sub("", text)
    return text.strip()


@dataclass
class CategorizationReport:
    """Tallies from one categorization pass."""

    matched: int = 0
    unmatched: int = 0
    #: records logged FATAL/FAILURE but classified benign (fake fatals)
    demoted_fatals: int = 0
    unmatched_by_facility: dict[Facility, int] = field(default_factory=dict)

    def add(
        self, matched: int, demoted_fatals: int, unmatched: dict[Facility, int]
    ) -> None:
        """Add a pass's tallies (``unmatched`` counts rows per facility)."""
        self.matched += matched
        self.demoted_fatals += demoted_fatals
        for facility, n in unmatched.items():
            self.unmatched += n
            self.unmatched_by_facility[facility] = (
                self.unmatched_by_facility.get(facility, 0) + n
            )

    @property
    def total(self) -> int:
        return self.matched + self.unmatched

    @property
    def match_rate(self) -> float:
        return self.matched / self.total if self.total else 1.0


@dataclass(frozen=True)
class Classified:
    """The rows a classification pass keeps: ``rows`` (ascending indices)
    and, per kept row, ``identity``, an id into ``identities``."""

    rows: np.ndarray
    identity: np.ndarray
    identities: list[str]

    def identity_texts(self, kept: np.ndarray | None = None) -> list[str]:
        """The identity of each kept row (or of ``kept``, indices into
        ``rows``)."""
        ids = self.identity if kept is None else self.identity[kept]
        return list(map(self.identities.__getitem__, ids.tolist()))


class Categorizer:
    """Hierarchical event classifier backed by an :class:`EventCatalog`.

    ``unknown`` controls what happens to records whose description matches
    no catalog type: ``"skip"`` drops them (the paper's cleaning behaviour),
    ``"error"`` raises, ``"keep"`` passes them through uncategorized.
    """

    def __init__(
        self,
        catalog: EventCatalog | None = None,
        unknown: str = "skip",
    ) -> None:
        if unknown not in ("skip", "error", "keep"):
            raise ValueError(f"unknown policy must be skip/error/keep, got {unknown!r}")
        self.catalog = catalog or default_catalog()
        self.unknown = unknown
        # A description is looked up as written first: catalog types may
        # differ only in a numeric tail ("kernel fatal condition class
        # 007"), so tails are stripped only when that lookup misses.
        self._by_description = {
            (t.facility, _fold(t.description)): t for t in self.catalog
        }
        self._by_stripped = {
            (t.facility, normalize_description(t.description)): t
            for t in self.catalog
        }
        # Codes are also accepted as-is so already-categorized logs pass
        # through unchanged (idempotence).
        self._codes = {t.code for t in self.catalog}

    def _lookup(self, facility: Facility, text: str) -> EventType | None:
        if text in self._codes:
            return self.catalog.get(text)
        # Strip one detail tail at a time (bracketed, then numeric), as
        # :func:`normalize_description` does, and look each form up as
        # written: "... class 016 [node 3]" is "... class 016" once its
        # bracket goes, which the stripped index would fold into every
        # filler type of the class.
        text = _fold(text)
        etype = self._by_description.get((facility, text))
        for tail in (_BRACKET_TAIL, _NUMERIC_TAIL):
            if etype is not None:
                return etype
            text = tail.sub("", text).strip()
            etype = self._by_description.get((facility, text))
        return etype or self._by_stripped.get((facility, text))

    def classify(self, event: RASEvent) -> EventType | None:
        """Find the low-level type of a record, or None when unmatched."""
        return self._lookup(event.facility, event.entry_data)

    def is_fatal(self, event: RASEvent) -> bool:
        """Catalog-level fatality of a record (False when unmatched)."""
        etype = self.classify(event)
        return etype.fatal if etype is not None else False

    def classify_columns(
        self,
        columns: RowColumns,
        report: CategorizationReport | None = None,
    ) -> Classified:
        """Classify every row; return the kept rows and their identity.

        Kept rows are those the unknown policy keeps.  Under
        ``unknown="error"`` the first unknown row raises, after the rows
        before it are tallied in *report*.
        """
        n_messages = max(len(columns.messages), 1)
        pairs, first, inverse = np.unique(
            columns.header * n_messages + columns.message,
            return_index=True,
            return_inverse=True,
        )
        # Per distinct pair: identity id (-1: dropped), matched, demoted.
        identity = np.full(len(pairs), -1, dtype=np.int64)
        matched = np.zeros(len(pairs), dtype=bool)
        demoted = np.zeros(len(pairs), dtype=bool)
        unknown: list[tuple[int, Facility, str]] = []
        identities: dict[str, int] = {}
        for k, pair in enumerate(pairs.tolist()):
            h, m = divmod(pair, n_messages)
            _, facility, severity = columns.headers[h]
            text = columns.messages[m]
            etype = self._lookup(facility, text)
            if etype is None:
                unknown.append((int(first[k]), facility, text))
                if self.unknown != "keep":
                    continue
                code = text
            else:
                code = etype.code
                matched[k] = True
                demoted[k] = severity.is_fatal_class and not etype.fatal
            identity[k] = identities.setdefault(code, len(identities))
        counts = np.bincount(inverse, minlength=len(pairs))
        unknown.sort(key=lambda u: u[0])
        if unknown and self.unknown == "error":
            row, facility, text = unknown[0]
            if report is not None:
                before = np.bincount(inverse[:row], minlength=len(pairs))
                report.add(
                    int(before[matched].sum()), int(before[demoted].sum()), {}
                )
            raise ValueError(
                f"uncategorizable event: facility={facility.value} "
                f"entry_data={text!r}"
            )
        if report is not None:
            # Unknown rows per facility, in the order the facilities first
            # occur.
            unmatched: dict[Facility, int] = {}
            for row, facility, _ in unknown:
                n = int(counts[inverse[row]])
                unmatched[facility] = unmatched.get(facility, 0) + n
            report.add(
                int(counts[matched].sum()), int(counts[demoted].sum()), unmatched
            )
        row_identity = identity[inverse]
        rows = np.flatnonzero(row_identity >= 0)
        return Classified(rows, row_identity[rows], list(identities))

    def categorize(
        self, log: EventLog, report: CategorizationReport | None = None
    ) -> EventLog:
        """Rewrite ``entry_data`` to catalog codes; apply the unknown policy."""
        columns = log.columns
        classified = self.classify_columns(columns, report)
        kept = columns.events(classified.rows, classified.identity_texts())
        times = log.timestamps[classified.rows]
        times.setflags(write=False)
        return EventLog._from_parts(kept, times, log.origin)

    def fatal_codes(self) -> frozenset[str]:
        """Codes in the (cleaned) failure list — fake fatals excluded."""
        return frozenset(t.code for t in self.catalog.fatal_types())
