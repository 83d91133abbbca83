"""Hierarchical event-type catalog for Blue Gene/L RAS logs.

The paper categorizes system events hierarchically: ten high-level
categories keyed on the Facility attribute, refined into 219 low-level
event types using the Severity and Entry Data attributes, of which 69 are
fatal and 150 non-fatal (Table 3).  This module builds that catalog.

Names for the prominent types are taken from the paper's examples and the
public LogHub BGL corpus ("uncorrectable torus error", "communication
failure socket closed", ...); the remaining types are filled in with
realistic per-facility templates so the per-facility fatal / non-fatal
counts match Table 3 exactly.

The catalog also models the paper's "fake fatal" cleanup: a handful of
types logged at FATAL/FAILURE severity are nonetheless classified
non-fatal, mirroring the types the authors removed from the failure list
after consulting ANL and SDSC administrators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.raslog.events import FACILITIES, Facility, Severity

#: Per-facility (fatal, non-fatal) low-level type counts from Table 3.
TABLE3_COUNTS: dict[Facility, tuple[int, int]] = {
    Facility.APP: (10, 7),
    Facility.BGLMASTER: (2, 2),
    Facility.CMCS: (0, 4),
    Facility.DISCOVERY: (0, 24),
    Facility.HARDWARE: (1, 12),
    Facility.KERNEL: (46, 90),
    Facility.LINKCARD: (1, 0),
    Facility.MMCS: (0, 5),
    Facility.MONITOR: (9, 5),
    Facility.SERV_NET: (0, 1),
}

TOTAL_FATAL_TYPES = 69
TOTAL_NONFATAL_TYPES = 150


@dataclass(frozen=True, slots=True)
class EventType:
    """One low-level event type in the hierarchical categorization.

    ``code`` is the stable identifier used throughout the library (rule
    bodies, interning, churn tracking).  ``fatal`` is the *catalog-level*
    classification used for training and evaluation; ``severity`` is the
    level the logging facility stamps on records, and the two disagree for
    fake-fatal types (``severity.is_fatal_class and not fatal``).
    """

    code: str
    facility: Facility
    severity: Severity
    description: str
    fatal: bool
    fake_fatal: bool = False

    def __post_init__(self) -> None:
        if self.fatal and not self.severity.is_fatal_class:
            raise ValueError(
                f"fatal type {self.code} must carry FATAL/FAILURE severity"
            )
        if self.fake_fatal and self.fatal:
            raise ValueError(f"type {self.code} cannot be both fatal and fake-fatal")
        if self.fake_fatal and not self.severity.is_fatal_class:
            raise ValueError(
                f"fake-fatal type {self.code} must carry FATAL/FAILURE severity"
            )


# Hand-written seed descriptions: (description, severity) per facility.
_FATAL_SEEDS: dict[Facility, list[tuple[str, Severity]]] = {
    Facility.APP: [
        ("load program failure", Severity.FATAL),
        ("function call failure", Severity.FATAL),
        ("ciod communication failure socket closed", Severity.FAILURE),
        ("application segmentation fault signal 11", Severity.FATAL),
        ("ciod cannot read message prefix on control stream", Severity.FATAL),
        ("application bus error signal 7", Severity.FATAL),
        ("application floating point exception signal 8", Severity.FATAL),
        ("ciod failed to open stdin stream", Severity.FATAL),
        ("ciod duplicate tree packet received", Severity.FATAL),
        ("application illegal instruction signal 4", Severity.FATAL),
    ],
    Facility.BGLMASTER: [
        ("bglmaster segmentation failure", Severity.FATAL),
        ("bglmaster unexpected component termination", Severity.FAILURE),
    ],
    Facility.HARDWARE: [
        ("midplane power module failure", Severity.FATAL),
    ],
    Facility.KERNEL: [
        ("uncorrectable torus error", Severity.FATAL),
        ("uncorrectable error detected in edram bank", Severity.FATAL),
        ("kernel broadcast failure", Severity.FATAL),
        ("L3 cache failure uncorrectable ecc", Severity.FATAL),
        ("cpu failure machine check interrupt", Severity.FATAL),
        ("node map file error unable to load", Severity.FATAL),
        ("data TLB error interrupt fatal", Severity.FATAL),
        ("instruction storage interrupt fatal", Severity.FATAL),
        ("kernel panic unrecoverable state", Severity.FAILURE),
        ("tree receiver fifo reception error", Severity.FATAL),
        ("torus sender retransmission limit exceeded", Severity.FATAL),
        ("double-bit memory error not correctable", Severity.FATAL),
        ("rts assertion failed kernel halt", Severity.FAILURE),
        ("program interrupt fatal illegal operation", Severity.FATAL),
        ("lustre mount fatal i/o node", Severity.FATAL),
        ("fsFailure file system unavailable", Severity.FAILURE),
    ],
    Facility.LINKCARD: [
        ("linkcard failure power control lost", Severity.FAILURE),
    ],
    Facility.MONITOR: [
        ("node card temperature error shutdown", Severity.FATAL),
        ("fan speed failure airflow lost", Severity.FAILURE),
        ("power rail out of range shutdown", Severity.FATAL),
    ],
}

_NONFATAL_SEEDS: dict[Facility, list[tuple[str, Severity]]] = {
    Facility.APP: [
        ("ciod job started", Severity.INFO),
        ("ciod job exited normally", Severity.INFO),
        ("application warning slow collective", Severity.WARNING),
    ],
    Facility.BGLMASTER: [
        ("BGLMaster restart info", Severity.INFO),
        ("bglmaster component heartbeat warning", Severity.WARNING),
    ],
    Facility.CMCS: [
        ("CMCS command info", Severity.INFO),
        ("CMCS exit info", Severity.INFO),
        ("CMCS polling agent restarted", Severity.WARNING),
    ],
    Facility.DISCOVERY: [
        ("nodecard communication warning", Severity.WARNING),
        ("servicecard read error", Severity.ERROR),
        ("nodecard VPD read warning", Severity.WARNING),
        ("discovery scan started", Severity.INFO),
    ],
    Facility.HARDWARE: [
        ("midplane service warning", Severity.WARNING),
        ("clock card drift warning", Severity.WARNING),
    ],
    Facility.KERNEL: [
        ("instruction cache parity error corrected", Severity.INFO),
        ("ddr error single symbol corrected", Severity.WARNING),
        ("networkWarningInterrupt torus", Severity.WARNING),
        ("networkError retransmitted packets", Severity.ERROR),
        ("idoStartInfo packet exchange", Severity.INFO),
        ("bglStartInfo boot sequence", Severity.INFO),
        ("L3 ecc error single bit corrected", Severity.WARNING),
        ("correctable error detected in edram bank", Severity.WARNING),
        ("torus receiver input pipe warning", Severity.WARNING),
        ("tree packet checksum warning corrected", Severity.WARNING),
        ("write buffer flush severe delay", Severity.SEVERE),
        ("memory scrub cycle severe latency", Severity.SEVERE),
    ],
    Facility.MMCS: [
        ("control network MMCS error", Severity.ERROR),
        ("MMCS idoproxy communication warning", Severity.WARNING),
    ],
    Facility.MONITOR: [
        ("node card temperature warning", Severity.WARNING),
        ("fan speed below nominal warning", Severity.WARNING),
    ],
    Facility.SERV_NET: [
        ("system operation error service network", Severity.ERROR),
    ],
}

# Types logged at FATAL severity that administrators classified as benign
# ("fake fatals", Section 3.1).  They count toward the non-fatal totals.
_FAKE_FATAL_SEEDS: dict[Facility, list[tuple[str, Severity]]] = {
    Facility.APP: [
        ("ciod cleanup fatal message benign", Severity.FATAL),
    ],
    Facility.KERNEL: [
        ("rts shutdown fatal message during reboot", Severity.FATAL),
        ("diagnostic fatal injected by health check", Severity.FATAL),
    ],
    Facility.MONITOR: [
        ("monitor fatal sensor glitch transient", Severity.FATAL),
    ],
}

_FILLER_NONFATAL_SEVERITIES = (
    Severity.INFO,
    Severity.WARNING,
    Severity.ERROR,
    Severity.SEVERE,
)


def _filler_description(facility: Facility, fatal: bool, index: int) -> str:
    kind = "fatal condition" if fatal else "status condition"
    return f"{facility.value.lower()} {kind} class {index:03d}"


class EventCatalog:
    """Immutable collection of :class:`EventType` with fast lookups."""

    def __init__(self, types: list[EventType]) -> None:
        codes = [t.code for t in types]
        if len(set(codes)) != len(codes):
            dupes = sorted({c for c in codes if codes.count(c) > 1})
            raise ValueError(f"duplicate event-type codes: {dupes}")
        self._types: tuple[EventType, ...] = tuple(types)
        self._by_code: dict[str, EventType] = {t.code: t for t in types}
        self._index: dict[str, int] = {t.code: i for i, t in enumerate(types)}
        self._by_description: dict[tuple[Facility, str], EventType] = {
            (t.facility, t.description): t for t in types
        }
        #: codes of the fatal types: one set probe tells a known fatal
        #: code from a non-fatal or unknown one on the per-event paths
        self.fatal_codes: frozenset[str] = frozenset(
            t.code for t in types if t.fatal
        )

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[EventType]:
        return iter(self._types)

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def get(self, code: str) -> EventType:
        try:
            return self._by_code[code]
        except KeyError:
            raise KeyError(f"unknown event-type code {code!r}") from None

    def index(self, code: str) -> int:
        """Dense integer id of a type code, for interning in hot paths."""
        try:
            return self._index[code]
        except KeyError:
            raise KeyError(f"unknown event-type code {code!r}") from None

    def by_description(self, facility: Facility, description: str) -> EventType:
        try:
            return self._by_description[(facility, description)]
        except KeyError:
            raise KeyError(
                f"no {facility.value} type with description {description!r}"
            ) from None

    @property
    def types(self) -> tuple[EventType, ...]:
        return self._types

    def fatal_types(self) -> list[EventType]:
        return [t for t in self._types if t.fatal]

    def nonfatal_types(self) -> list[EventType]:
        return [t for t in self._types if not t.fatal]

    def fake_fatal_types(self) -> list[EventType]:
        return [t for t in self._types if t.fake_fatal]

    def types_for(self, facility: Facility, fatal: bool | None = None) -> list[EventType]:
        out = [t for t in self._types if t.facility is facility]
        if fatal is not None:
            out = [t for t in out if t.fatal == fatal]
        return out

    def is_fatal_code(self, code: str) -> bool:
        return self.get(code).fatal

    def counts_by_facility(self) -> dict[Facility, tuple[int, int]]:
        """(fatal, non-fatal) type counts per facility — Table 3."""
        counts: dict[Facility, tuple[int, int]] = {}
        for facility in FACILITIES:
            fatal = sum(
                1 for t in self._types if t.facility is facility and t.fatal
            )
            nonfatal = sum(
                1 for t in self._types if t.facility is facility and not t.fatal
            )
            counts[facility] = (fatal, nonfatal)
        return counts


def build_catalog(
    counts: dict[Facility, tuple[int, int]] | None = None,
    include_fake_fatals: bool = True,
) -> EventCatalog:
    """Build a catalog with the given per-facility (fatal, non-fatal) counts.

    With default arguments this reproduces the paper's Table 3 catalog:
    219 types, 69 fatal and 150 non-fatal, including the fake-fatal types
    folded into the non-fatal totals.
    """
    counts = dict(TABLE3_COUNTS if counts is None else counts)
    types: list[EventType] = []
    for facility in FACILITIES:
        n_fatal, n_nonfatal = counts.get(facility, (0, 0))
        if n_fatal < 0 or n_nonfatal < 0:
            raise ValueError(
                f"negative type count for {facility.value}: "
                f"({n_fatal}, {n_nonfatal})"
            )

        fatal_seeds = list(_FATAL_SEEDS.get(facility, ()))[:n_fatal]
        for i in range(n_fatal):
            if i < len(fatal_seeds):
                description, severity = fatal_seeds[i]
            else:
                description = _filler_description(facility, True, i)
                severity = Severity.FATAL if i % 3 else Severity.FAILURE
            types.append(
                EventType(
                    code=f"{facility.value}-F-{i:03d}",
                    facility=facility,
                    severity=severity,
                    description=description,
                    fatal=True,
                )
            )

        fake_seeds = (
            list(_FAKE_FATAL_SEEDS.get(facility, ())) if include_fake_fatals else []
        )
        # Fake fatals occupy the head of the non-fatal allocation.
        fake_seeds = fake_seeds[:n_nonfatal]
        nonfatal_seeds = list(_NONFATAL_SEEDS.get(facility, ()))
        for i in range(n_nonfatal):
            if i < len(fake_seeds):
                description, severity = fake_seeds[i]
                fake = True
            elif i - len(fake_seeds) < len(nonfatal_seeds):
                description, severity = nonfatal_seeds[i - len(fake_seeds)]
                fake = False
            else:
                description = _filler_description(facility, False, i)
                severity = _FILLER_NONFATAL_SEVERITIES[
                    i % len(_FILLER_NONFATAL_SEVERITIES)
                ]
                fake = False
            types.append(
                EventType(
                    code=f"{facility.value}-N-{i:03d}",
                    facility=facility,
                    severity=severity,
                    description=description,
                    fatal=False,
                    fake_fatal=fake,
                )
            )
    return EventCatalog(types)


_DEFAULT: EventCatalog | None = None


def default_catalog() -> EventCatalog:
    """The canonical Table 3 catalog (cached; catalogs are immutable)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = build_catalog()
    return _DEFAULT
