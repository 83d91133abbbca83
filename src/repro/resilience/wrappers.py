"""Composable durability/delivery wrappers around a session core.

Each wrapper implements the same
:class:`~repro.core.session.StreamSession` protocol it wraps, so layers
stack by plain composition::

    core  = SessionCore(config, catalog)
    stack = JournalingSession(ReorderingSession(core, slack), journal)

* :class:`ReorderingSession` re-sequences out-of-order events through a
  bounded :class:`~repro.resilience.reorder.ReorderBuffer` and
  quarantines anything later than the slack, so the inner layer only
  ever sees an ordered stream;
* :class:`JournalingSession` appends every accepted input to an
  :class:`~repro.resilience.journal.EventJournal` *before* delegating,
  giving the stack write-ahead durability; replay sets ``suppress`` so
  re-fed records are not journaled twice.

Input *validation* (origin/order checks that must reject an event before
it is journaled) is the responsibility of whoever owns the stack — the
``OnlinePredictionSession`` facade — because a rejected event must never
reach the write-ahead log.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable

from repro import observe
from repro.raslog.events import RASEvent
from repro.resilience.journal import EventJournal
from repro.resilience.reorder import ReorderBuffer

if TYPE_CHECKING:
    from repro.alerts import FailureWarning
    from repro.core.session import StreamSession

#: How many quarantined (too-late) events are kept for inspection.
QUARANTINE_KEEP = 100


class ReorderingSession:
    """Bounded re-sequencing of late events in front of an ordered core.

    Events within ``slack`` seconds of the newest seen are buffered and
    released in time order; later ones are quarantined (counted, kept in
    :attr:`quarantined`, never raised).  :meth:`advance` forces out
    anything the observed clock has overtaken before delegating, and
    :meth:`flush` drains the buffer at end of stream.
    """

    def __init__(self, inner: "StreamSession", slack: float) -> None:
        if slack <= 0:
            raise ValueError(f"reorder slack must be positive, got {slack}")
        self.inner = inner
        self.buffer = ReorderBuffer(slack)
        #: most recent events dropped as later than the slack
        self.quarantined: deque[RASEvent] = deque(maxlen=QUARANTINE_KEEP)
        self.n_quarantined = 0

    def ingest(self, event: RASEvent) -> "list[FailureWarning]":
        return self.ingest_batch((event,))

    def ingest_batch(
        self, events: "Iterable[RASEvent]"
    ) -> "list[FailureWarning]":
        """Buffer the batch, then feed whatever it released in one call."""
        ready: list[RASEvent] = []
        for event in events:
            released, dropped = self.buffer.push(event)
            ready.extend(released)
            if dropped:
                self.n_quarantined += len(dropped)
                self.quarantined.extend(dropped)
                observe.counter("online.quarantined").inc(len(dropped))
        return self.inner.ingest_batch(ready)

    def advance(self, now: float) -> "list[FailureWarning]":
        # The clock overtaking a buffered event forces it out: the
        # deployment timer observed "now", so nothing before it may
        # still be pending.
        new = self.inner.ingest_batch(self.buffer.release_until(now))
        return new + self.inner.advance(now)

    def flush(self) -> "list[FailureWarning]":
        new = self.inner.ingest_batch(self.buffer.drain())
        return new + self.inner.flush()


class JournalingSession:
    """Write-ahead journaling in front of any session layer.

    Every input is appended to the journal *before* the inner layer may
    change state, so a crash mid-call is recovered by replaying the
    journal record.  During recovery the replayer sets :attr:`suppress`
    while re-feeding records through the stack, so replayed inputs are
    not appended a second time.
    """

    def __init__(self, inner: "StreamSession", journal: EventJournal) -> None:
        self.inner = inner
        self.journal = journal
        #: True while recovery replays records through this stack
        self.suppress = False

    def _append(self, record: dict) -> None:
        if not self.suppress:
            self.journal.append(record)

    def ingest(self, event: RASEvent) -> "list[FailureWarning]":
        self._append({"kind": "ingest", "event": event.as_dict()})
        return self.inner.ingest(event)

    def ingest_batch(self, events: "list[RASEvent]") -> "list[FailureWarning]":
        """Journal a whole batch with one group commit, then feed it.

        Write-ahead ordering is preserved batch-wise: every record is
        durable (one ``os.write`` + one group fsync via
        :meth:`~repro.resilience.journal.EventJournal.append_batch`)
        before the *first* event may change inner state, so recovery
        replays at least as much as was processed.
        """
        if not self.suppress:
            self.journal.append_batch(
                [{"kind": "ingest", "event": e.as_dict()} for e in events]
            )
        return self.inner.ingest_batch(events)

    def advance(self, now: float) -> "list[FailureWarning]":
        self._append({"kind": "advance", "now": now})
        return self.inner.advance(now)

    def flush(self) -> "list[FailureWarning]":
        self._append({"kind": "flush"})
        return self.inner.flush()


__all__ = ["JournalingSession", "QUARANTINE_KEEP", "ReorderingSession"]
