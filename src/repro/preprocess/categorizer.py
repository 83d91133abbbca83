"""Event categorization (Section 3.1).

Maps raw RAS records onto the hierarchical catalog: the Facility attribute
selects the high-level category, and the Severity + Entry Data attributes
select the low-level event type.  After categorization an event's
``entry_data`` holds the catalog *code*, which is the identity the learners
and the predictor operate on.

:meth:`Categorizer.classify_rows` is the one per-row classification loop:
it applies the unknown policy, fills every :class:`CategorizationReport`
tally, and returns the kept rows' indices with their identity (the catalog
code, or the raw text of an unknown row under ``unknown="keep"``) without
building any event.  The preprocessing pipeline filters on those columns
and rebuilds only the survivors; :meth:`Categorizer.categorize` is the same
loop followed by the rebuild of every kept row.  A raw log repeats a few
hundred distinct descriptions thousands of times each, so the loop
normalizes and classifies each distinct message once per call and reuses
the result for its repeats.

Fake-fatal handling: the paper removes events whose logged severity is
FATAL/FAILURE but which administrators classified as benign.  Those types
carry ``fatal=False`` in the catalog, so simply classifying through the
catalog performs the removal; the report counts how many records were
demoted this way.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.raslog.catalog import EventCatalog, EventType, default_catalog
from repro.raslog.events import Facility, RASEvent, Severity
from repro.raslog.store import EventLog

_WS = re.compile(r"\s+")
_BRACKET_TAIL = re.compile(r"\s*\[[^\]]*\]$")
_NUMERIC_TAIL = re.compile(r"\s*(0x[0-9a-f]+|\d+)$")


def normalize_description(text: str) -> str:
    """Canonical form used for description lookup: case- and
    whitespace-insensitive, with trailing numeric details stripped
    (e.g. ``"ddr error ... at 0x0bc0"`` → the generic type text)."""
    text = _WS.sub(" ", text.strip().lower())
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
        self._by_key: dict[tuple[Facility, str], EventType] = {}
        for t in self.catalog:
            self._by_key[(t.facility, normalize_description(t.description))] = t
        # Codes are also accepted as-is so already-categorized logs pass
        # through unchanged (idempotence).
        self._codes = {t.code for t in self.catalog}

    def classify(self, event: RASEvent) -> EventType | None:
        """Find the low-level type of a record, or None when unmatched."""
        if event.entry_data in self._codes:
            return self.catalog.get(event.entry_data)
        key = (event.facility, normalize_description(event.entry_data))
        return self._by_key.get(key)

    def is_fatal(self, event: RASEvent) -> bool:
        """Catalog-level fatality of a record (False when unmatched)."""
        etype = self.classify(event)
        return etype.fatal if etype is not None else False

    def classify_rows(
        self,
        events: Sequence[RASEvent],
        report: CategorizationReport | None = None,
    ) -> tuple[list[int], list[str]]:
        """Classify every row; return the kept rows and their identity.

        The first list holds the indices (ascending) of the rows the
        unknown policy keeps; the second, for each of them, the catalog
        code, or the raw ``entry_data`` of an unknown row kept under
        ``unknown="keep"``.  Under ``unknown="error"`` the first unknown
        row raises, after the rows before it are tallied in *report*.

        The memo of classified messages lives for this call only, so it is
        bounded by the log's distinct messages.  Its key carries the
        severity so that a row's fake-fatal demotion is memoized too.
        """
        rows: list[int] = []
        identity: list[str] = []
        memo: dict[tuple[Facility, str, Severity], tuple[str | None, bool]] = {}
        matched = demoted = 0
        unmatched: dict[Facility, int] = {}
        for i, event in enumerate(events):
            key = (event.facility, event.entry_data, event.severity)
            outcome = memo.get(key)
            if outcome is None:
                etype = self.classify(event)
                if etype is None:
                    outcome = (None, False)
                else:
                    demote = event.severity.is_fatal_class and not etype.fatal
                    outcome = (etype.code, demote)
                memo[key] = outcome
            code, demote = outcome
            if code is None:
                if self.unknown == "error":
                    if report is not None:
                        report.add(matched, demoted, unmatched)
                    raise ValueError(
                        f"uncategorizable event: facility={event.facility.value} "
                        f"entry_data={event.entry_data!r}"
                    )
                unmatched[event.facility] = unmatched.get(event.facility, 0) + 1
                if self.unknown != "keep":
                    continue
                code = event.entry_data
            else:
                matched += 1
                demoted += demote
            rows.append(i)
            identity.append(code)
        if report is not None:
            report.add(matched, demoted, unmatched)
        return rows, identity

    def categorize(
        self, log: EventLog, report: CategorizationReport | None = None
    ) -> EventLog:
        """Rewrite ``entry_data`` to catalog codes; apply the unknown policy."""
        rows, identity = self.classify_rows(log.events, report)
        events = log.events
        kept = tuple(
            events[i].with_entry_data(code) for i, code in zip(rows, identity)
        )
        times = log.timestamps[rows]
        times.setflags(write=False)
        return EventLog._from_parts(kept, times, log.origin)

    def fatal_codes(self) -> frozenset[str]:
        """Codes in the (cleaned) failure list — fake fatals excluded."""
        return frozenset(t.code for t in self.catalog.fatal_types())
