"""Online (streaming) operation of the dynamic meta-learning framework.

A deployment *streams* events as the CMCS reports them.
:class:`OnlinePredictionSession` is that mode: feed events one at a time
with :meth:`ingest`, receive warnings back, and retraining fires
automatically whenever the stream crosses a retraining boundary.  There
is one engine: the session and the batch
:class:`~repro.core.framework.DynamicMetaLearningFramework` (which
replays a complete log) both run the same
:class:`~repro.core.session.SessionCore`, so a streamed trace produces
the same warnings as a batch run over the same events.

Structurally the session is a *facade* over a layered stack
(:mod:`repro.core.session`): a pure :class:`~repro.core.session.SessionCore`
holds the prediction state machine, and the production concerns compose
around it as wrappers —

* :class:`~repro.resilience.wrappers.ReorderingSession` (enabled by
  ``config.reorder_slack > 0``) re-sequences out-of-order events within
  the slack through a bounded buffer and quarantines later ones;
* :class:`~repro.resilience.wrappers.JournalingSession` (enabled by
  passing a :class:`~repro.resilience.EventJournal`) appends every
  accepted input write-ahead, so :meth:`recover` (checkpoint + journal
  replay past the checkpoint's recorded position) is crash-consistent;
* with ``config.on_retrain_error="degrade"``, a crashing retraining is
  recorded as a :class:`~repro.resilience.RetrainFailure` inside the
  core and retried with capped exponential backoff while the previous
  rule set keeps predicting;
* :meth:`checkpoint` / :meth:`resume` round-trip the full stack state
  through a versioned JSON file, so a restarted process continues
  byte-identically to one that never stopped.

The facade owns input validation (a rejected event must never reach the
journal), the ``n_ingested`` ledger, and the checkpoint schema; a fleet
of these sessions is orchestrated by
:class:`repro.service.PredictionService`.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np

from repro import observe
from repro.alerts import FailureWarning
from repro.core.config import FrameworkConfig
from repro.core.knowledge import KnowledgeRepository
from repro.core.session import (
    RetrainEvent,
    SessionCore,
    SessionSummary,
    StreamSession,
)
from repro.core.tracking import ChurnHistory
from repro.parallel.executor import Executor
from repro.raslog.catalog import EventCatalog
from repro.raslog.events import RASEvent
from repro.resilience import checkpoint as ckpt
from repro.resilience.degrade import RetrainFailure
from repro.resilience.journal import EventJournal, JournalCorruption
from repro.resilience.wrappers import (
    QUARANTINE_KEEP,
    JournalingSession,
    ReorderingSession,
)

__all__ = [
    "OnlinePredictionSession",
    "QUARANTINE_KEEP",
    "SessionSummary",
]


class OnlinePredictionSession:
    """Event-at-a-time interface to the prediction engine.

    ``origin`` anchors week arithmetic (events must not precede it).
    Predictions start once ``config.initial_train_weeks`` of data have
    streamed in; before that, :meth:`ingest` buffers silently.
    """

    def __init__(
        self,
        config: FrameworkConfig | None = None,
        catalog: EventCatalog | None = None,
        executor: Executor | None = None,
        origin: float = 0.0,
        own_executor: bool = False,
        journal: EventJournal | None = None,
    ) -> None:
        self._executor = executor
        self._own_executor = own_executor and executor is not None
        self._core = SessionCore(
            config, catalog=catalog, executor=executor, origin=origin
        )
        #: total events offered to :meth:`ingest` (incl. buffered/dropped)
        self.n_ingested = 0

        self._reordering: ReorderingSession | None = (
            ReorderingSession(self._core, self._core.config.reorder_slack)
            if self._core.config.reorder_slack > 0
            else None
        )
        self._journaling: JournalingSession | None = None
        self._stack: StreamSession = self._reordering or self._core
        if journal is not None:
            self._journaling = JournalingSession(self._stack, journal)
            self._stack = self._journaling

    # -- layer access ------------------------------------------------------

    @property
    def core(self) -> SessionCore:
        """The pure prediction state machine under the wrappers."""
        return self._core

    @property
    def config(self) -> FrameworkConfig:
        return self._core.config

    @property
    def catalog(self) -> EventCatalog:
        return self._core.catalog

    @property
    def origin(self) -> float:
        return self._core.origin

    @property
    def repository(self) -> KnowledgeRepository:
        return self._core.repository

    @property
    def churn(self) -> ChurnHistory:
        return self._core.churn

    @property
    def retrains(self) -> list[RetrainEvent]:
        return self._core.retrains

    @property
    def warnings(self) -> list[FailureWarning]:
        return self._core.warnings

    @property
    def retrain_failures(self) -> list[RetrainFailure]:
        """Failed retraining attempts (degraded mode only)."""
        return self._core.retrain_failures

    @property
    def quarantined(self) -> deque[RASEvent]:
        """Most recent events dropped as later than ``reorder_slack``."""
        if self._reordering is None:
            return deque(maxlen=QUARANTINE_KEEP)
        return self._reordering.quarantined

    @property
    def n_quarantined(self) -> int:
        return 0 if self._reordering is None else self._reordering.n_quarantined

    @property
    def journal(self) -> EventJournal | None:
        """The attached write-ahead journal, if any."""
        return None if self._journaling is None else self._journaling.journal

    # -- bookkeeping -------------------------------------------------------

    @property
    def current_week(self) -> int:
        return self._core.current_week

    @property
    def degraded(self) -> bool:
        """Whether a retraining is currently owed after failures."""
        return self._core.degraded

    @property
    def adaptive(self) -> bool:
        """Whether retraining is drift-triggered rather than fixed-cadence."""
        return self._core.adaptive

    def drift_status(self) -> dict | None:
        """Drift-detector/policy state, or None with the fixed trigger."""
        return self._core.drift_status()

    def close(self) -> None:
        """Release the executor if this session owns it (idempotent)."""
        if self._own_executor:
            self._own_executor = False
            assert self._executor is not None
            self._executor.close()

    def __enter__(self) -> "OnlinePredictionSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- public API --------------------------------------------------------

    def ingest(self, event: RASEvent) -> list[FailureWarning]:
        """Feed one event; returns any warnings it (or the timer) raised.

        With ``config.reorder_slack == 0`` (the default) events must
        arrive in time order and a regression raises ``ValueError``.
        With a positive slack, out-of-order events within the slack are
        buffered and re-sequenced — the returned warnings then belong to
        whichever earlier events cleared the buffer — and events later
        than the slack are quarantined (counted, kept in
        :attr:`quarantined`, never raised).  Call :meth:`flush` at end of
        stream to drain the buffer.

        Validation happens *here*, before the stack: a rejected event is
        deliberately never journaled — replaying it would abort recovery
        with the same error.
        """
        self._validate([event])
        new = self._stack.ingest(event)
        self.n_ingested += 1
        return new

    def ingest_batch(self, events: list[RASEvent]) -> list[FailureWarning]:
        """Feed a batch of events; returns warnings in ingest order.

        Semantically equivalent to calling :meth:`ingest` per event,
        but with journaling enabled the whole batch is made durable by a
        single group commit (one write + one fsync) instead of one fsync
        per event — the dominant per-event cost under
        ``journal_fsync="always"``.

        Validation is atomic over the batch: every event is checked
        against the origin and (without reorder slack) time order
        *before* any is journaled or processed, so a bad batch raises
        ``ValueError`` having changed nothing — there is no partially
        applied prefix to reason about on retry.
        """
        if not events:
            return []
        self._validate(events)
        new = self._stack.ingest_batch(events)
        self.n_ingested += len(events)
        return new

    def _validate(self, events: list[RASEvent]) -> None:
        """Reject events before the origin or (without reorder slack) out
        of time order, before any of them reaches the stack."""
        last = self._core.last_time
        origin = self.origin
        for event in events:
            if event.timestamp < origin:
                raise ValueError(
                    f"event at {event.timestamp} precedes the session "
                    f"origin {origin}"
                )
            if self._reordering is None:
                if event.timestamp < last:
                    raise ValueError(
                        f"events must arrive in time order "
                        f"({event.timestamp} < {last})"
                    )
                last = event.timestamp

    def flush(self) -> list[FailureWarning]:
        """Drain the reorder buffer (end of stream); returns new warnings."""
        if self._reordering is None:
            return []
        return self._stack.flush()

    def advance(self, now: float) -> list[FailureWarning]:
        """Move the session clock without an event (idle timer service)."""
        if now < self._core.last_time:
            raise ValueError(
                f"clock moved backwards: {now} < {self._core.last_time}"
            )
        return self._stack.advance(now)

    def summary(self) -> SessionSummary:
        """Accuracy accounting over the prediction period.

        Failures that occurred before predictions started (during the
        initial training period) do not count toward recall.
        """
        return self._core.summary(n_quarantined=self.n_quarantined)

    # -- write-ahead journal -----------------------------------------------

    def _replay_journal(self, from_position: int) -> int:
        """Re-feed journal records past ``from_position``; returns count.

        Replay drives the *public* API (``ingest``/``advance``/``flush``)
        with journaling suppressed, so the recovered session walks
        exactly the state transitions of the pre-crash one — reorder
        buffering, retraining, degraded-mode bookkeeping and all.
        """
        assert self._journaling is not None
        journal = self._journaling.journal
        self._journaling.suppress = True
        replayed = 0
        try:
            for _index, record in journal.replay(from_position):
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
            self._journaling.suppress = False
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
        core = self._core
        tail_start = core.history_tail_start()
        times = np.fromiter(
            (e.timestamp for e in core._events),
            dtype=np.float64,
            count=len(core._events),
        )
        lo = int(np.searchsorted(times, tail_start, side="left"))
        journal = self.journal
        payload = {
            "format": ckpt.CHECKPOINT_FORMAT,
            "version": ckpt.CHECKPOINT_VERSION,
            "config_digest": ckpt.config_digest(core.config),
            "config": ckpt.config_to_dict(core.config),
            "origin": core.origin,
            "last_time": core.last_time,
            "n_ingested": self.n_ingested,
            "history": {
                "dropped": core._history_dropped + lo,
                "events": [e.as_dict() for e in core._events[lo:]],
            },
            "fatal": {
                "times": list(core._fatal_times),
                "codes": list(core._fatal_codes),
            },
            "schedule": {
                "next_retrain_week": core._next_retrain_week,
                "pending_retrain_week": core._pending_retrain_week,
                "retrain_attempts": core._retrain_attempts,
                "retry_at": (
                    None if core._retrain_attempts == 0 else core._retry_at
                ),
                "degraded_since": core._degraded_since,
            },
            "repository": [
                ckpt.record_to_dict(r) for r in core.repository.records()
            ],
            "predictor": (
                None
                if core._predictor is None
                else core._predictor.state_snapshot()
            ),
            "retrains": [
                ckpt.retrain_event_to_dict(r) for r in core.retrains
            ],
            "retrain_failures": [
                ckpt.failure_to_dict(f) for f in core.retrain_failures
            ],
            "warnings": [ckpt.warning_to_dict(w) for w in core.warnings],
            # Write-ahead-log position this snapshot covers: recovery
            # replays journal records from here on.  None: the session
            # ran without a journal (checkpoint-only durability).
            "journal": (
                None if journal is None else {"position": journal.position}
            ),
            # Drift-detector + adaptive-policy state (format v3).  None:
            # fixed-cadence trigger, nothing to capture.
            "adapt": (
                None if core._adapt is None else core._adapt.snapshot()
            ),
            "reorder": (
                None
                if self._reordering is None
                else {
                    # -inf (no event seen yet) is not valid JSON; encode
                    # the sentinel as null, mirroring retry_at above.
                    "max_seen": (
                        None
                        if self._reordering.buffer.max_seen == float("-inf")
                        else self._reordering.buffer.max_seen
                    ),
                    "n_reordered": self._reordering.buffer.n_reordered,
                    "buffered": [
                        e.as_dict() for e in self._reordering.buffer.pending()
                    ],
                    "n_quarantined": self._reordering.n_quarantined,
                    "quarantined_tail": [
                        e.as_dict() for e in self._reordering.quarantined
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
        executor: Executor | None = None,
        own_executor: bool = False,
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
        session = cls(
            config,
            catalog=catalog,
            executor=executor,
            origin=payload["origin"],
            own_executor=own_executor,
        )
        core = session._core
        core._last_time = payload["last_time"]
        session.n_ingested = payload["n_ingested"]
        core._history_dropped = payload["history"]["dropped"]
        core._events = [
            RASEvent.from_dict(d) for d in payload["history"]["events"]
        ]
        core._fatal_times = list(payload["fatal"]["times"])
        core._fatal_codes = list(payload["fatal"]["codes"])

        schedule = payload["schedule"]
        core._next_retrain_week = schedule["next_retrain_week"]
        core._pending_retrain_week = schedule["pending_retrain_week"]
        core._retrain_attempts = schedule["retrain_attempts"]
        core._retry_at = (
            float("-inf")
            if schedule["retry_at"] is None
            else schedule["retry_at"]
        )
        core._degraded_since = schedule["degraded_since"]

        core.repository = KnowledgeRepository(
            ckpt.record_from_dict(d) for d in payload["repository"]
        )
        if payload["predictor"] is not None:
            predictor = core.make_predictor()
            predictor.restore_state(payload["predictor"])
            core._predictor = predictor
        core.retrains = [
            ckpt.retrain_event_from_dict(d) for d in payload["retrains"]
        ]
        core.churn = ChurnHistory()
        for event in core.retrains:
            core.churn.append(event.churn)
        core.retrain_failures = [
            ckpt.failure_from_dict(d) for d in payload["retrain_failures"]
        ]
        core.warnings = [
            ckpt.warning_from_dict(d) for d in payload["warnings"]
        ]

        # v2 files predate the drift subsystem; their configs are always
        # fixed-cadence (the adaptive config fields change the digest),
        # so a missing/None field never drops adaptive state.
        adapt_state = payload.get("adapt")
        if core._adapt is not None and adapt_state is not None:
            core._adapt.restore(adapt_state)

        reorder = payload["reorder"]
        if reorder is not None and session._reordering is not None:
            buffer = session._reordering.buffer
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
            session._reordering.n_quarantined = reorder["n_quarantined"]
            session._reordering.quarantined.extend(
                RASEvent.from_dict(d) for d in reorder["quarantined_tail"]
            )
        observe.counter("online.resumes").inc()
        if journal is not None:
            session._journaling = JournalingSession(
                session._reordering or session._core, journal
            )
            session._stack = session._journaling
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
        executor: Executor | None = None,
        origin: float = 0.0,
        own_executor: bool = False,
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
            return cls.resume(
                path,
                config,
                catalog=catalog,
                executor=executor,
                own_executor=own_executor,
                journal=journal,
            )
        session = cls(
            config,
            catalog=catalog,
            executor=executor,
            origin=origin,
            own_executor=own_executor,
            journal=journal,
        )
        session._replay_journal(0)
        return session
