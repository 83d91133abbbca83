"""Online (streaming) operation of the dynamic meta-learning framework.

A deployment *streams* events as the CMCS reports them.
:class:`OnlinePredictionSession` is that mode: feed events one at a time
with :meth:`ingest`, receive warnings back, and retraining fires
automatically whenever the stream crosses a retraining boundary.  There
is one engine: the session is a :class:`~repro.core.session.SessionCore`
subclass, and the batch
:class:`~repro.core.framework.DynamicMetaLearningFramework` (which
replays a complete log) runs the same core, so a streamed trace produces
the same warnings as a batch run over the same events.

The subclass adds the production concerns in front of the core's
engine loop, in this order:

* **validation** — an event before the origin or (without reorder
  slack) out of time order raises ``ValueError`` before anything
  changes, so a rejected event never reaches the journal;
* **write-ahead journaling** (pass a
  :class:`~repro.resilience.EventJournal`) — every accepted input is
  appended before it may change state, so :meth:`recover` (checkpoint +
  journal replay past the checkpoint's recorded position) is
  crash-consistent;
* **reordering** (``config.reorder_slack > 0``) — a bounded
  :class:`~repro.resilience.ReorderBuffer` re-sequences out-of-order
  events within the slack and quarantines later ones.

With ``config.on_retrain_error="degrade"``, a crashing retraining is
recorded as a :class:`~repro.resilience.RetrainFailure` inside the core
and retried with capped exponential backoff while the previous rule set
keeps predicting.  :meth:`checkpoint` / :meth:`resume` round-trip the
full session state through a versioned JSON file, so a restarted process
continues byte-identically to one that never stopped.  A fleet of these
sessions is orchestrated by :class:`repro.service.PredictionService`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from repro import observe
from repro.alerts import FailureWarning
from repro.core.config import FrameworkConfig
from repro.core.knowledge import KnowledgeRepository
from repro.core.session import SessionCore, SessionSummary
from repro.core.tracking import ChurnHistory
from repro.raslog.catalog import EventCatalog
from repro.raslog.events import RASEvent
from repro.resilience import checkpoint as ckpt
from repro.resilience.journal import EventJournal, JournalCorruption
from repro.resilience.reorder import QUARANTINE_KEEP, ReorderBuffer

__all__ = [
    "OnlinePredictionSession",
    "QUARANTINE_KEEP",
    "SessionSummary",
    "check_events",
]


def check_events(
    events: Iterable[RASEvent], origin: float, last: float, ordered: bool
) -> None:
    """Raise ``ValueError`` if an event precedes ``origin`` or, when
    ``ordered``, precedes ``last`` or the event before it.

    The session's validation rule, as a function of its clock: a fresh
    session's clock is its origin, so a service checks a shard it has
    not created yet with ``last=origin``.
    """
    for event in events:
        t = event.timestamp
        if t < origin:
            raise ValueError(
                f"event at {t} precedes the session origin {origin}"
            )
        if ordered:
            if t < last:
                raise ValueError(
                    f"events must arrive in time order ({t} < {last})"
                )
            last = t


class OnlinePredictionSession(SessionCore):
    """Event-at-a-time interface to the prediction engine.

    ``origin`` anchors week arithmetic (events must not precede it).
    Predictions start once ``config.initial_train_weeks`` of data have
    streamed in; before that, :meth:`ingest` buffers silently.
    """

    def __init__(
        self,
        config: FrameworkConfig | None = None,
        catalog: EventCatalog | None = None,
        origin: float = 0.0,
        journal: EventJournal | None = None,
    ) -> None:
        super().__init__(config, catalog=catalog, origin=origin)
        #: total events offered to :meth:`ingest` (incl. buffered/dropped)
        self.n_ingested = 0
        slack = self.config.reorder_slack
        self._reorder_buffer = ReorderBuffer(slack) if slack > 0 else None
        #: most recent events dropped as later than ``reorder_slack``
        self.quarantined: deque[RASEvent] = deque(maxlen=QUARANTINE_KEEP)
        #: the attached write-ahead journal, if any
        self.journal = journal
        #: True while :meth:`_replay_journal` re-feeds journal records,
        #: so they are not appended a second time
        self._replaying = False

    @property
    def n_quarantined(self) -> int:
        """Events dropped as later than ``reorder_slack``."""
        buffer = self._reorder_buffer
        return 0 if buffer is None else buffer.n_quarantined

    def close(self) -> None:
        """A no-op: the session owns nothing to release (an attached
        journal belongs to its opener).  Kept with the ``with`` form for
        callers written against it."""

    def __enter__(self) -> "OnlinePredictionSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- streaming surface -------------------------------------------------

    def ingest(self, event: RASEvent) -> list[FailureWarning]:
        """Feed one event; returns any warnings it (or the timer) raised.

        A batch of one (:meth:`ingest_batch`).  With
        ``config.reorder_slack == 0`` (the default) events must arrive
        in time order and a regression raises ``ValueError``.  With a
        positive slack, out-of-order events within the slack are
        buffered and re-sequenced — the returned warnings then belong to
        whichever earlier events cleared the buffer — and events later
        than the slack are quarantined (counted, kept in
        :attr:`quarantined`, never raised).  Call :meth:`flush` at end of
        stream to drain the buffer.
        """
        return self.ingest_batch([event])

    def ingest_batch(self, events: list[RASEvent]) -> list[FailureWarning]:
        """Feed a batch of events; returns warnings in ingest order.

        With journaling enabled the whole batch is made durable by a
        single group commit (one write + one fsync) before the first
        event may change state, instead of one fsync per event — the
        dominant per-event cost under ``journal_fsync="always"``.

        Validation is atomic over the batch and happens before the
        journal: every event is checked against the origin and (without
        reorder slack) time order *before* any is journaled or
        processed, so a bad batch raises ``ValueError`` having changed
        nothing — there is no partially applied prefix to reason about
        on retry, and a rejected event is never journaled (replaying it
        would abort recovery with the same error).
        """
        if not events:
            return []
        self.validate(events)
        if self.journal is not None and not self._replaying:
            self.journal.append_batch(
                [{"kind": "ingest", "event": e.as_dict()} for e in events]
            )
        new = self._feed(events)
        self.n_ingested += len(events)
        return new

    def validate(self, events: Iterable[RASEvent]) -> None:
        """Raise ``ValueError`` if any event precedes the origin or
        (without reorder slack) breaks time order; changes nothing."""
        check_events(
            events, self.origin, self._last_time, self._reorder_buffer is None
        )

    def _feed(self, events: Iterable[RASEvent]) -> list[FailureWarning]:
        """Hand validated events to the engine loop, through the reorder
        buffer when there is one."""
        buffer = self._reorder_buffer
        if buffer is None:
            return super().ingest_batch(events)
        ready: list[RASEvent] = []
        for event in events:
            released, dropped = buffer.push(event)
            ready.extend(released)
            if dropped:
                self.quarantined.extend(dropped)
                observe.counter("online.quarantined").inc(len(dropped))
        return super().ingest_batch(ready)

    def _write_ahead(self, record: dict) -> None:
        if self.journal is not None and not self._replaying:
            self.journal.append(record)

    def flush(self) -> list[FailureWarning]:
        """Drain the reorder buffer (end of stream); returns new warnings.

        Without a reorder buffer there is nothing to drain, and nothing
        is journaled."""
        if self._reorder_buffer is None:
            return []
        self._write_ahead({"kind": "flush"})
        return super().ingest_batch(self._reorder_buffer.drain())

    def advance(self, now: float) -> list[FailureWarning]:
        """Move the session clock without an event (idle timer service)."""
        if now < self._last_time:
            raise ValueError(
                f"clock moved backwards: {now} < {self._last_time}"
            )
        self._write_ahead({"kind": "advance", "now": now})
        if self._reorder_buffer is None:
            return super().advance(now)
        # The clock overtaking a buffered event forces it out: the
        # deployment timer observed "now", so nothing before it may
        # still be pending.
        new = super().ingest_batch(self._reorder_buffer.release_until(now))
        return new + super().advance(now)

    def summary(self) -> SessionSummary:
        """Accuracy accounting over the prediction period.

        Failures that occurred before predictions started (during the
        initial training period) do not count toward recall.
        """
        return super().summary(n_quarantined=self.n_quarantined)

    # -- write-ahead journal -----------------------------------------------

    def _replay_journal(self, from_position: int) -> int:
        """Re-feed journal records past ``from_position``; returns count.

        Replay drives the *public* API (``ingest``/``advance``/``flush``)
        with journaling off, so the recovered session walks exactly the
        state transitions of the pre-crash one — reorder buffering,
        retraining, degraded-mode bookkeeping and all.
        """
        assert self.journal is not None
        self._replaying = True
        replayed = 0
        try:
            for _index, record in self.journal.replay(from_position):
                kind = record.get("kind")
                if kind == "ingest":
                    self.ingest(RASEvent.from_dict(record["event"]))
                elif kind == "advance":
                    self.advance(record["now"])
                elif kind == "flush":
                    self.flush()
                else:
                    raise JournalCorruption(
                        f"unknown journal record kind {kind!r}"
                    )
                replayed += 1
        finally:
            self._replaying = False
        if replayed:
            observe.counter("journal.replayed_events").inc(replayed)
        return replayed

    # -- checkpoint / resume -----------------------------------------------

    def checkpoint(self, path: str | Path) -> dict:
        """Serialize the session to ``path`` atomically; returns the payload.

        The file is versioned JSON (schema
        :data:`repro.resilience.CHECKPOINT_VERSION`) carrying the config
        digest, clock and origin, the event-history tail future
        retrainings need, fatal bookkeeping, the rule repository with
        provenance, predictor monitoring state, retrain schedule and
        degraded-mode bookkeeping, churn, accumulated warnings, and any
        reorder-buffer residue.  Written with temp-file + ``os.replace``
        so a crash mid-write never leaves a torn file.
        """
        lo = bisect_left(
            self._events,
            self.history_tail_start(),
            key=attrgetter("timestamp"),
        )
        journal = self.journal
        buffer = self._reorder_buffer
        payload = {
            "format": ckpt.CHECKPOINT_FORMAT,
            "version": ckpt.CHECKPOINT_VERSION,
            "config_digest": ckpt.config_digest(self.config),
            "config": ckpt.config_to_dict(self.config),
            "origin": self.origin,
            "last_time": self.last_time,
            "n_ingested": self.n_ingested,
            "history": {
                "dropped": self._history_dropped + lo,
                "events": [e.as_dict() for e in self._events[lo:]],
            },
            "fatal": {
                "times": list(self._fatal_times),
                "codes": list(self._fatal_codes),
            },
            "schedule": {
                "next_retrain_week": self._next_retrain_week,
                "pending_retrain_week": self._pending_retrain_week,
                "retrain_attempts": self._retrain_attempts,
                "retry_at": (
                    None if self._retrain_attempts == 0 else self._retry_at
                ),
                "degraded_since": self._degraded_since,
            },
            "repository": [
                ckpt.record_to_dict(r) for r in self.repository.records()
            ],
            "predictor": (
                None
                if self._predictor is None
                else self._predictor.state_snapshot()
            ),
            "retrains": [
                ckpt.retrain_event_to_dict(r) for r in self.retrains
            ],
            "retrain_failures": [
                ckpt.failure_to_dict(f) for f in self.retrain_failures
            ],
            "warnings": [ckpt.warning_to_dict(w) for w in self.warnings],
            # Write-ahead-log position this snapshot covers: recovery
            # replays journal records from here on.  None: the session
            # ran without a journal (checkpoint-only durability).
            "journal": (
                None if journal is None else {"position": journal.position}
            ),
            # Drift-detector + adaptive-policy state (format v3).  None:
            # fixed-cadence trigger, nothing to capture.
            "adapt": (
                None if self._adapt is None else self._adapt.snapshot()
            ),
            "reorder": (
                None
                if buffer is None
                else {
                    # -inf (no event seen yet) is not valid JSON; encode
                    # the sentinel as null, mirroring retry_at above.
                    "max_seen": (
                        None
                        if buffer.max_seen == float("-inf")
                        else buffer.max_seen
                    ),
                    "n_reordered": buffer.n_reordered,
                    "buffered": [e.as_dict() for e in buffer.pending()],
                    "n_quarantined": buffer.n_quarantined,
                    "quarantined_tail": [
                        e.as_dict() for e in self.quarantined
                    ],
                }
            ),
        }
        ckpt.atomic_write_json(path, payload)
        observe.counter("online.checkpoints").inc()
        if journal is not None:
            # Everything below the recorded position is now covered by
            # this checkpoint; whole segments beneath it can go.
            journal.compact(journal.position)
        return payload

    @classmethod
    def resume(
        cls,
        path: str | Path,
        config: FrameworkConfig | None = None,
        catalog: EventCatalog | None = None,
        journal: EventJournal | None = None,
    ) -> "OnlinePredictionSession":
        """Rebuild a session from a :meth:`checkpoint` file.

        ``config`` defaults to the one stored in the checkpoint; passing
        one explicitly asserts compatibility — a digest mismatch raises
        :class:`~repro.resilience.CheckpointError` rather than silently
        resuming under different semantics.  The resumed session
        continues byte-identically to one that never stopped (pinned by
        the crash-recovery equivalence tests).

        Passing ``journal`` makes the resume *crash-consistent*: after
        the snapshot is restored, journal records past the checkpoint's
        recorded position are replayed, reconstructing every input the
        crash would otherwise have lost (any torn final record was
        already truncated when the journal was opened).
        """
        payload = ckpt.read_checkpoint(path)
        if config is None:
            config = ckpt.config_from_dict(payload["config"])
        if ckpt.config_digest(config) != payload["config_digest"]:
            raise ckpt.CheckpointError(
                f"{path}: checkpoint was written under a different "
                f"configuration (digest mismatch)"
            )
        session = cls(config, catalog=catalog, origin=payload["origin"])
        session._last_time = payload["last_time"]
        session.n_ingested = payload["n_ingested"]
        session._history_dropped = payload["history"]["dropped"]
        session._events = [
            RASEvent.from_dict(d) for d in payload["history"]["events"]
        ]
        session._fatal_times = list(payload["fatal"]["times"])
        session._fatal_codes = list(payload["fatal"]["codes"])

        schedule = payload["schedule"]
        session._next_retrain_week = schedule["next_retrain_week"]
        session._pending_retrain_week = schedule["pending_retrain_week"]
        session._retrain_attempts = schedule["retrain_attempts"]
        session._retry_at = (
            float("-inf")
            if schedule["retry_at"] is None
            else schedule["retry_at"]
        )
        session._degraded_since = schedule["degraded_since"]

        session.repository = KnowledgeRepository(
            ckpt.record_from_dict(d) for d in payload["repository"]
        )
        if payload["predictor"] is not None:
            predictor = session.make_predictor()
            predictor.restore_state(payload["predictor"])
            session._predictor = predictor
        session.retrains = [
            ckpt.retrain_event_from_dict(d) for d in payload["retrains"]
        ]
        session.churn = ChurnHistory()
        for event in session.retrains:
            session.churn.append(event.churn)
        session.retrain_failures = [
            ckpt.failure_from_dict(d) for d in payload["retrain_failures"]
        ]
        session.warnings = [
            ckpt.warning_from_dict(d) for d in payload["warnings"]
        ]

        # v2 files predate the drift subsystem; their configs are always
        # fixed-cadence (the adaptive config fields change the digest),
        # so a missing/None field never drops adaptive state.
        adapt_state = payload.get("adapt")
        if session._adapt is not None and adapt_state is not None:
            session._adapt.restore(adapt_state)

        reorder = payload["reorder"]
        buffer = session._reorder_buffer
        if reorder is not None and buffer is not None:
            buffer.max_seen = (
                float("-inf")
                if reorder["max_seen"] is None
                else reorder["max_seen"]
            )
            for d in reorder["buffered"]:
                # Re-pushing in release order preserves tie-breaking; all
                # were inside the slack window, so none release or drop.
                buffer.push(RASEvent.from_dict(d))
            buffer.n_reordered = reorder["n_reordered"]
            buffer.n_quarantined = reorder["n_quarantined"]
            session.quarantined.extend(
                RASEvent.from_dict(d) for d in reorder["quarantined_tail"]
            )
        observe.counter("online.resumes").inc()
        if journal is not None:
            session.journal = journal
            recorded = payload.get("journal")
            # A v1 checkpoint (or one written journal-less) recorded no
            # position; replaying from 0 is only sound if the journal
            # really does start at this checkpoint's state, so demand an
            # explicit record when any journal records exist.
            if recorded is None and journal.position > 0:
                raise ckpt.CheckpointError(
                    f"{path}: checkpoint carries no journal position but "
                    f"the journal holds {journal.position} record(s); "
                    f"cannot align replay"
                )
            position = 0 if recorded is None else recorded["position"]
            if position > journal.position:
                # Power loss under a relaxed fsync policy: page-cached
                # appends below the checkpoint's position vanished.  The
                # snapshot still covers them — realign the journal and
                # continue (the loss window is the documented policy
                # trade-off).
                journal.reset_position(position)
            session._replay_journal(position)
        return session

    @classmethod
    def recover(
        cls,
        path: str | Path,
        journal: EventJournal,
        config: FrameworkConfig | None = None,
        catalog: EventCatalog | None = None,
        origin: float = 0.0,
    ) -> "OnlinePredictionSession":
        """Crash-consistent recovery: checkpoint (if any) + journal replay.

        The one-call recovery entry point behind ``repro recover``.  If
        ``path`` exists it is resumed with the journal replayed past its
        recorded position; if the crash happened before the first
        checkpoint was ever written, a fresh session (``config``,
        ``origin``) replays the whole journal instead.  Either way the
        recovered session has seen exactly the inputs the dead one
        accepted, minus a torn final record — which was never durable
        and will be re-delivered by the source.
        """
        if Path(path).exists():
            return cls.resume(path, config, catalog=catalog, journal=journal)
        session = cls(config, catalog=catalog, origin=origin, journal=journal)
        session._replay_journal(0)
        return session
