"""Blue Gene/L RAS event model.

Mirrors the eight-attribute record layout of the CMCS event repository
(Table 1 of the paper): record id, event type (recording mechanism), event
time, job id, location, entry data, facility and severity.  Severity levels
follow the Blue Gene ordering INFO < WARNING < SEVERE < ERROR < FATAL <
FAILURE; FATAL and FAILURE records are failure *candidates*, but whether a
record is treated as a true failure is decided by the event catalog
(:mod:`repro.raslog.catalog`), which knows about the "fake fatal" types the
paper removes after consulting system administrators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any


class Severity(enum.IntEnum):
    """Blue Gene RAS severity levels in increasing order of severity."""

    INFO = 0
    WARNING = 1
    SEVERE = 2
    ERROR = 3
    FATAL = 4
    FAILURE = 5

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}") from None

    @property
    def is_fatal_class(self) -> bool:
        """True for the FATAL/FAILURE severity classes (failure candidates)."""
        return self >= Severity.FATAL


class Facility(str, enum.Enum):
    """High-level event source, the Facility attribute of a RAS record."""

    APP = "APP"
    BGLMASTER = "BGLMASTER"
    CMCS = "CMCS"
    DISCOVERY = "DISCOVERY"
    HARDWARE = "HARDWARE"
    KERNEL = "KERNEL"
    LINKCARD = "LINKCARD"
    MMCS = "MMCS"
    MONITOR = "MONITOR"
    SERV_NET = "SERV_NET"

    @classmethod
    def parse(cls, text: str) -> "Facility":
        key = text.strip().upper().replace("-", "_").replace(" ", "_")
        try:
            return cls[key]
        except KeyError:
            raise ValueError(f"unknown facility {text!r}") from None


#: All facilities in Table 3 order.
FACILITIES: tuple[Facility, ...] = tuple(Facility)


@dataclass(frozen=True, slots=True)
class RASEvent:
    """One record of the RAS log (Table 1 of the paper).

    ``timestamp`` is seconds from the trace origin.  ``entry_data`` holds
    the short textual description; after categorization it is the low-level
    event-type code from the catalog, which is how the learners identify
    events.  ``location`` uses the Blue Gene naming convention
    (e.g. ``R02-M1-N0-C:J12-U11``); for synthetic logs a simplified
    ``R<rack>-M<midplane>-N<node>`` form is used.
    """

    record_id: int
    event_type: str
    timestamp: float
    job_id: int
    location: str
    entry_data: str
    facility: Facility
    severity: Severity

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp!r}")
        if self.record_id < 0:
            raise ValueError(f"negative record id {self.record_id!r}")

    @property
    def is_fatal_class(self) -> bool:
        """Severity-level fatality; catalog-level fatality may differ."""
        return self.severity.is_fatal_class

    def with_entry_data(self, entry_data: str) -> "RASEvent":
        """Copy of this event with ``entry_data`` replaced (categorization)."""
        # About half the cost of dataclasses.replace on the per-row
        # categorization path; __post_init__ still validates.
        return RASEvent(
            self.record_id,
            self.event_type,
            self.timestamp,
            self.job_id,
            self.location,
            entry_data,
            self.facility,
            self.severity,
        )

    def with_timestamp(self, timestamp: float) -> "RASEvent":
        return replace(self, timestamp=timestamp)

    def as_dict(self) -> dict[str, Any]:
        return {
            "record_id": self.record_id,
            "event_type": self.event_type,
            "timestamp": self.timestamp,
            "job_id": self.job_id,
            "location": self.location,
            "entry_data": self.entry_data,
            "facility": self.facility.value,
            "severity": self.severity.name,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RASEvent":
        """Inverse of :meth:`as_dict` (checkpoint round-trips)."""
        return cls(
            record_id=data["record_id"],
            event_type=data["event_type"],
            timestamp=data["timestamp"],
            job_id=data["job_id"],
            location=data["location"],
            entry_data=data["entry_data"],
            facility=Facility(data["facility"]),
            severity=Severity[data["severity"]],
        )
