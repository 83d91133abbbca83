"""Base-learner protocol.

A base learner turns a training :class:`~repro.raslog.store.EventLog` into
a list of :class:`~repro.learners.rules.Rule`.  The meta-learner treats
learners uniformly through this interface, which is what makes the
framework extensible ("other predictive methods can be easily
incorporated" — Section 4.1): implement ``train`` and register a factory.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.learners.rules import Rule
from repro.raslog.catalog import EventCatalog, default_catalog
from repro.raslog.store import EventLog


def precursor_spans(
    fatal: EventLog, nonfatal: EventLog, window: float
) -> tuple[list[int], list[int]]:
    """Per fatal event at ``t``, the bounds ``(lo, hi)`` of the non-fatal
    events inside ``[t - window, t)``, as two aligned lists."""
    times = fatal.timestamps
    nf_times = nonfatal.timestamps
    lo = np.searchsorted(nf_times, times - window, "left")
    hi = np.searchsorted(nf_times, times, "left")
    return lo.tolist(), hi.tolist()


class BaseLearner(abc.ABC):
    """Interface shared by all base predictive methods."""

    #: Short identifier used in rule provenance, ensemble ordering and
    #: experiment output ("association", "statistical", "distribution", ...).
    name: str = "base"

    def __init__(self, catalog: EventCatalog | None = None) -> None:
        self.catalog = catalog or default_catalog()

    @abc.abstractmethod
    def train(self, log: EventLog, window: float) -> list[Rule]:
        """Learn failure-pattern rules from a (categorized) training log.

        ``window`` is the rule-generation window ``Wp`` in seconds — the
        same duration later used as the prediction window.
        """

    # -- shared helpers ---------------------------------------------------

    def split_fatal(self, log: EventLog) -> tuple[EventLog, EventLog]:
        """(fatal, non-fatal) views of the log, split by the catalog's
        fatal codes in one pass."""
        return log.split_fatal(self.catalog)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
