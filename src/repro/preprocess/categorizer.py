"""Event categorization (Section 3.1).

Maps raw RAS records onto the hierarchical catalog: the Facility attribute
selects the high-level category, and the Severity + Entry Data attributes
select the low-level event type.  After categorization an event's
``entry_data`` holds the catalog *code*, which is the identity the learners
and the predictor operate on.

A raw log repeats a few hundred distinct descriptions thousands of times
each, so :meth:`Categorizer.categorize` normalizes and classifies each
distinct ``(facility, entry_data)`` message once per log and reuses the
result for its repeats; the unknown policy and the report still see every
row.

Fake-fatal handling: the paper removes events whose logged severity is
FATAL/FAILURE but which administrators classified as benign.  Those types
carry ``fatal=False`` in the catalog, so simply classifying through the
catalog performs the removal; the report counts how many records were
demoted this way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.raslog.catalog import EventCatalog, EventType, default_catalog
from repro.raslog.events import Facility, RASEvent
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

    def record_unmatched(self, facility: Facility) -> None:
        self.unmatched += 1
        self.unmatched_by_facility[facility] = (
            self.unmatched_by_facility.get(facility, 0) + 1
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

    def categorize(
        self, log: EventLog, report: CategorizationReport | None = None
    ) -> EventLog:
        """Rewrite ``entry_data`` to catalog codes; apply the unknown policy.

        The memo of classified messages lives for this call only, so it is
        bounded by the log's distinct messages.
        """
        out: list[RASEvent] = []
        memo: dict[tuple[Facility, str], EventType | None] = {}
        for event in log:
            key = (event.facility, event.entry_data)
            if key in memo:
                etype = memo[key]
            else:
                etype = memo[key] = self.classify(event)
            if etype is None:
                if self.unknown == "error":
                    raise ValueError(
                        f"uncategorizable event: facility={event.facility.value} "
                        f"entry_data={event.entry_data!r}"
                    )
                if report is not None:
                    report.record_unmatched(event.facility)
                if self.unknown == "keep":
                    out.append(event)
                continue
            if report is not None:
                report.matched += 1
                if event.severity.is_fatal_class and not etype.fatal:
                    report.demoted_fatals += 1
            out.append(event.with_entry_data(etype.code))
        return EventLog(out, origin=log.origin, _presorted=True)

    def fatal_codes(self) -> frozenset[str]:
        """Codes in the (cleaned) failure list — fake fatals excluded."""
        return frozenset(t.code for t in self.catalog.fatal_types())
