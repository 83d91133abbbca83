"""Online (streaming) operation of the dynamic meta-learning framework.

A deployment *streams* events as the CMCS reports them.
:class:`OnlinePredictionSession` is that mode: feed events with
:meth:`~OnlinePredictionSession.ingest` or
:meth:`~OnlinePredictionSession.ingest_batch`, receive warnings back,
and retraining fires automatically whenever the stream crosses a
retraining boundary.  It is the framework's one engine: the batch
:class:`~repro.core.framework.DynamicMetaLearningFramework` replays a
complete log through a session with no journal and no reorder slack, so
a streamed trace produces the same warnings as a batch run over the same
events.

A batch passes these stages in order:

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
  events within the slack and quarantines later ones;
* **the engine loop** — windowing, retrain scheduling (fixed cadence or
  drift-triggered) and the predictor feed, one event at a time.

With ``config.on_retrain_error="degrade"``, a crashing retraining is
recorded as a :class:`~repro.resilience.RetrainFailure` and retried with
capped exponential backoff while the previous rule set keeps predicting.
:meth:`checkpoint` / :meth:`resume` round-trip the full session state
through a versioned JSON file, so a restarted process continues
byte-identically to one that never stopped.  A fleet of these sessions
is orchestrated by :class:`repro.service.PredictionService`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro import observe
from repro.adapt import DriftMonitor
from repro.alerts import FailureWarning
from repro.core.config import FrameworkConfig
from repro.core.knowledge import KnowledgeRepository
from repro.core.meta import MetaLearner
from repro.core.predictor import Predictor
from repro.core.reviser import Reviser
from repro.core.session import RetrainEvent, SessionSummary, WindowTuner
from repro.core.tracking import ChurnHistory, diff_rule_sets
from repro.evaluation.matching import match_warnings
from repro.raslog.catalog import EventCatalog, default_catalog
from repro.raslog.events import RASEvent
from repro.raslog.store import EventLog
from repro.resilience import checkpoint as ckpt
from repro.resilience.degrade import RetrainFailure, backoff_delay
from repro.resilience.journal import EventJournal, JournalCorruption
from repro.resilience.reorder import QUARANTINE_KEEP, ReorderBuffer
from repro.utils.timeutil import WEEK_SECONDS

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


class OnlinePredictionSession:
    """Event-at-a-time interface to the prediction engine.

    ``origin`` anchors week arithmetic (events must not precede it).
    Predictions start once ``config.initial_train_weeks`` of data have
    streamed in; before that, :meth:`ingest` buffers silently.
    ``window_tuner``, if given, chooses the prediction window ``Wp`` at
    each retraining (see :class:`~repro.core.adaptive.AdaptiveWindowTuner`);
    a checkpoint does not record a tuned window, so :meth:`checkpoint`
    refuses a session that has one.
    """

    def __init__(
        self,
        config: FrameworkConfig | None = None,
        catalog: EventCatalog | None = None,
        origin: float = 0.0,
        journal: EventJournal | None = None,
        window_tuner: WindowTuner | None = None,
    ) -> None:
        self.config = config or FrameworkConfig()
        self.catalog = catalog or default_catalog()
        self.origin = float(origin)
        #: the attached write-ahead journal, if any
        self.journal = journal
        self._window_tuner = window_tuner
        #: the active prediction window ``Wp``; only a window tuner moves
        #: it away from ``config.prediction_window``
        self.prediction_window = self.config.prediction_window
        self.meta = MetaLearner(
            learners=self.config.learners,
            catalog=self.catalog,
            learner_params=self.config.learner_params,
        )
        self.reviser = Reviser(
            min_roc=self.config.min_roc,
            catalog=self.catalog,
            tick=self.config.tick,
            dist_horizon_cap=self.config.dist_horizon_cap,
        )
        self.repository = KnowledgeRepository()
        self.retrains: list[RetrainEvent] = []
        self.warnings: list[FailureWarning] = []
        #: failed retraining attempts (degraded mode only)
        self.retrain_failures: list[RetrainFailure] = []
        #: total events offered to :meth:`ingest` (incl. buffered/dropped)
        self.n_ingested = 0
        slack = self.config.reorder_slack
        self._reorder_buffer = ReorderBuffer(slack) if slack > 0 else None
        #: most recent events dropped as later than ``reorder_slack``
        self.quarantined: deque[RASEvent] = deque(maxlen=QUARANTINE_KEEP)
        #: True while :meth:`_replay_journal` re-feeds journal records,
        #: so they are not appended a second time
        self._replaying = False

        self._events: list[RASEvent] = []
        self._fatal_times: list[float] = []
        self._fatal_codes: list[str] = []
        self._last_time = self.origin
        self._predictor: Predictor | None = None
        #: week number of the next scheduled retraining boundary (with
        #: the adaptive trigger: the next weekly drift *evaluation*);
        #: None once a non-retraining policy has run its initial training
        self._next_retrain_week: int | None = self.config.initial_train_weeks
        #: week still owed a successful retraining (degraded mode)
        self._pending_retrain_week: int | None = None
        #: consecutive retrain failures since the last success
        self._retrain_attempts = 0
        #: stream time before which no retry may run
        self._retry_at = float("-inf")
        #: stream time at which the current degraded stretch began
        self._degraded_since: float | None = None
        #: events dropped from the head of ``_events`` by a tail resume
        self._history_dropped = 0
        #: drift detectors + adaptive retrain policy (None: fixed cadence)
        self._adapt: DriftMonitor | None = (
            DriftMonitor.from_config(self.config)
            if self.config.retrain_trigger == "adaptive"
            else None
        )
        #: registry ``online.events`` was looked up in (see _instruments)
        self._obs_registry: observe.MetricsRegistry | None = None

    def close(self) -> None:
        """A no-op: the session owns nothing to release (an attached
        journal belongs to its opener).  Kept with the ``with`` form for
        callers written against it."""

    def __enter__(self) -> "OnlinePredictionSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- bookkeeping -------------------------------------------------------

    @property
    def current_week(self) -> int:
        return int((self._last_time - self.origin) // WEEK_SECONDS)

    @property
    def started(self) -> bool:
        """Whether the initial training has happened yet."""
        return self._predictor is not None

    @property
    def degraded(self) -> bool:
        """Whether a retraining is currently owed after failures."""
        return self._pending_retrain_week is not None

    @property
    def last_time(self) -> float:
        """The stream clock: timestamp of the newest observed instant."""
        return self._last_time

    @property
    def adaptive(self) -> bool:
        """Whether retraining is drift-triggered rather than fixed-cadence."""
        return self._adapt is not None

    @property
    def n_quarantined(self) -> int:
        """Events dropped as later than ``reorder_slack``."""
        buffer = self._reorder_buffer
        return 0 if buffer is None else buffer.n_quarantined

    @property
    def churn(self) -> ChurnHistory:
        """Rule churn of every retraining so far (Figure 12)."""
        return ChurnHistory([r.churn for r in self.retrains])

    def drift_status(self) -> dict | None:
        """Drift-detector/policy state, or None with the fixed trigger."""
        return None if self._adapt is None else self._adapt.status()

    def history(self) -> EventLog:
        """Everything ingested so far, as an EventLog.

        A session restored from a tail checkpoint only retains the tail
        its future retrainings can reach; earlier events are summarized
        by counters (``summary().n_events`` stays exact).
        """
        return EventLog(self._events, origin=self.origin, _presorted=True)

    def _boundary_time(self, week: int) -> float:
        return self.origin + week * WEEK_SECONDS

    # -- retraining ---------------------------------------------------------

    def _retrain(self, week: int) -> None:
        cfg = self.config
        history = self.history()
        w0, w1 = cfg.policy.window(week)
        train_log = history.slice_weeks(w0, w1)

        with observe.span("online.retrain"):
            window = self.prediction_window
            if self._window_tuner is not None:
                window = self._window_tuner(week, train_log, self.meta, self.reviser)
            output = self.meta.train(train_log, window, week=week)
            candidates = output.records()
            candidate_keys = {r.key for r in candidates}

            if cfg.use_reviser:
                revision = self.reviser.revise(candidates, train_log, window)
                kept, removed_keys = revision.kept, revision.removed_keys
                revise_seconds = revision.seconds
            else:
                kept, removed_keys = candidates, set()
                revise_seconds = 0.0

            churn_record = diff_rule_sets(
                week, self.repository.keys(), candidate_keys, removed_keys
            )
            self.repository.replace_all(kept)
            self.retrains.append(
                RetrainEvent(
                    week=week,
                    train_span=(w0, w1),
                    n_candidates=len(candidates),
                    n_kept=len(kept),
                    churn=churn_record,
                    generation_seconds=output.seconds,
                    revise_seconds=revise_seconds,
                    learner_seconds=dict(output.learner_seconds),
                )
            )

            self.prediction_window = window
            self._predictor = self.make_predictor()
            # Re-prime the fresh predictor with the last Wp seconds of the
            # stream: the rule set changed but the system's recent past did
            # not, so precursors that arrived just before the boundary must
            # still be able to complete a rule.
            boundary = self._boundary_time(week)
            self._predictor.prime(
                history.between(boundary - window, boundary), now=boundary
            )

    def make_predictor(self) -> Predictor:
        """A fresh predictor over the current rule repository."""
        cfg = self.config
        return Predictor(
            self.repository.rules(),
            window=self.prediction_window,
            catalog=self.catalog,
            ensemble=cfg.ensemble,
            dist_horizon_cap=cfg.dist_horizon_cap,
            rule_weights=self.repository.precision_weights(),
        )

    def _schedule_after(self, week: int) -> None:
        if not self.config.policy.retrains:
            self._next_retrain_week = None
        elif self._adapt is not None:
            # Adaptive trigger: every week boundary is an *evaluation*;
            # whether it becomes a retraining is the policy's call.
            self._next_retrain_week = week + 1
        else:
            self._next_retrain_week = week + self.config.retrain_weeks

    def _attempt_retrain(self, week: int, now: float) -> None:
        """One retraining try; in degraded mode a failure is absorbed."""
        try:
            self._retrain(week)
        except Exception as exc:
            if self.config.on_retrain_error == "raise":
                raise
            self._retrain_attempts += 1
            self.retrain_failures.append(
                RetrainFailure(
                    week=week,
                    error=repr(exc),
                    error_type=type(exc).__name__,
                    attempt=self._retrain_attempts,
                    time=now,
                )
            )
            observe.counter("online.retrain_failures").inc()
            if self._degraded_since is None:
                self._degraded_since = now
            self._retry_at = now + backoff_delay(
                self._retrain_attempts,
                self.config.retrain_backoff_base,
                self.config.retrain_backoff_cap,
            )
        else:
            self._pending_retrain_week = None
            self._retrain_attempts = 0
            self._retry_at = float("-inf")
            if self._degraded_since is not None:
                observe.counter("online.degraded_seconds").inc(
                    max(0.0, now - self._degraded_since)
                )
                self._degraded_since = None
            if self._adapt is not None:
                self._adapt.retrained(week)

    def cross_boundaries(self, t: float) -> None:
        """Run any retrainings whose boundary the stream has crossed, and
        any backoff-elapsed retry owed from earlier failures.  Unlike
        :meth:`advance`, this neither moves the clock nor runs the timer."""
        while (
            self._next_retrain_week is not None
            and t >= self._boundary_time(self._next_retrain_week)
        ):
            week = self._next_retrain_week
            self._schedule_after(week)
            if self._adapt is not None:
                if self._pending_retrain_week is not None:
                    # Degraded: a retraining is already owed to the retry
                    # machinery.  A drift signal now must defer to it —
                    # never queue a second retraining for the same regime
                    # change.
                    self._adapt.evaluate(week, deferred=True)
                    continue
                decision = self._adapt.evaluate(week)
                if not decision.retrain:
                    continue
            # The newest crossed boundary supersedes an older owed week:
            # its training window is the current one.
            self._pending_retrain_week = week
            if t >= self._retry_at:
                self._attempt_retrain(week, t)
        if self._pending_retrain_week is not None and t >= self._retry_at:
            self._attempt_retrain(self._pending_retrain_week, t)

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

    def ingest_batch(self, events: Sequence[RASEvent]) -> list[FailureWarning]:
        """Feed a batch of events; returns warnings in ingest order.

        Validation is atomic over the batch and happens before the
        journal: every event is checked against the origin and (without
        reorder slack) time order *before* any is journaled or
        processed, so a bad batch raises ``ValueError`` having changed
        nothing — there is no partially applied prefix to reason about
        on retry, and a rejected event is never journaled (replaying it
        would abort recovery with the same error).

        With journaling enabled the whole batch is made durable by a
        single group commit (one write + one fsync) before the first
        event may change state, instead of one fsync per event — the
        dominant per-event cost under ``journal_fsync="always"``.
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
            return self._apply(events)
        ready: list[RASEvent] = []
        for event in events:
            released, dropped = buffer.push(event)
            ready.extend(released)
            if dropped:
                self.quarantined.extend(dropped)
                observe.counter("online.quarantined").inc(len(dropped))
        return self._apply(ready)

    def _due(self) -> float:
        """Stream time from which :meth:`cross_boundaries` has work:
        the next retraining boundary, or an owed retry's backoff end."""
        due = float("inf")
        if self._next_retrain_week is not None:
            due = self._boundary_time(self._next_retrain_week)
        if self._pending_retrain_week is not None:
            due = min(due, self._retry_at)
        return due

    def _apply(self, events: Iterable[RASEvent]) -> list[FailureWarning]:
        """The engine's one per-event loop over validated, in-order
        events; returns the warnings they raised, in order.

        Each event still goes through :meth:`Predictor.feed` and
        :meth:`DriftMonitor.observe_event` as real method calls, exactly
        as if fed alone: they are the per-event trace points a profiler
        or benchmark wraps, so they are not inlined into this loop.
        """
        first = len(self.warnings)
        tick = self.config.tick
        adapt, fatal = self._adapt, self.catalog.fatal_codes
        predictor = self._predictor
        due = self._due()
        n = 0
        try:
            for event in events:
                t = event.timestamp
                if t < self._last_time:
                    # Unreachable from the public surface: validation
                    # or the reorder buffer already ordered the events.
                    raise ValueError(
                        f"events must arrive in time order "
                        f"({t} < {self._last_time})"
                    )
                if t >= due:
                    self.cross_boundaries(t)
                    due = self._due()
                    predictor = self._predictor
                self._last_time = t
                self._events.append(event)
                n += 1
                code = event.entry_data
                if code in fatal:
                    self._fatal_times.append(t)
                    self._fatal_codes.append(code)
                if adapt is not None:
                    adapt.observe_event(code, t, event.location)
                if predictor is not None:
                    new = predictor.feed(event, tick=tick)
                    if new:
                        self.warnings.extend(new)
                        if adapt is not None:
                            adapt.observe_warnings(new)
        finally:
            if n:
                self._instruments().inc(n)
        return self.warnings[first:]

    def _instruments(self) -> observe.Counter:
        registry = observe.get_registry()
        if self._obs_registry is not registry:
            self._obs_registry = registry
            self._events_counter = registry.counter("online.events")
        return self._events_counter

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
        return self._apply(self._reorder_buffer.drain())

    def advance(self, now: float) -> list[FailureWarning]:
        """Move the session clock without an event (idle timer service)."""
        if now < self._last_time:
            raise ValueError(
                f"clock moved backwards: {now} < {self._last_time}"
            )
        self._write_ahead({"kind": "advance", "now": now})
        new: list[FailureWarning] = []
        if self._reorder_buffer is not None:
            # The clock overtaking a buffered event forces it out: the
            # deployment timer observed "now", so nothing before it may
            # still be pending.
            new = self._apply(self._reorder_buffer.release_until(now))
        self.cross_boundaries(now)
        self._last_time = now
        if self._predictor is None or self.config.tick is None:
            return new
        caught = self._predictor.catch_up(now, self.config.tick)
        self.warnings.extend(caught)
        if self._adapt is not None and caught:
            self._adapt.observe_warnings(caught)
        return new + caught

    # -- accounting ---------------------------------------------------------

    def summary(self) -> SessionSummary:
        """Accuracy accounting over the prediction period.

        Failures that occurred before predictions started (during the
        initial training period) do not count toward recall.
        """
        prediction_start = self._boundary_time(self.config.initial_train_weeks)
        times: list[float] = []
        codes: list[str] = []
        for t, c in zip(self._fatal_times, self._fatal_codes):
            if t >= prediction_start:
                times.append(t)
                codes.append(c)
        matching = match_warnings(
            self.warnings, np.asarray(times, dtype=np.float64), codes
        )
        return SessionSummary(
            n_events=self._history_dropped + len(self._events),
            n_fatal=len(times),
            n_warnings=len(self.warnings),
            matching=matching,
            retrains=list(self.retrains),
            retrain_failures=list(self.retrain_failures),
            n_quarantined=self.n_quarantined,
        )

    def history_tail_start(self) -> float:
        """Earliest event time any future retraining can reach.

        Sliding policies only look back ``length_weeks`` from the next
        owed retraining (minus one prediction window for predictor
        priming); growing and static policies need the full history.
        """
        wp = self.config.prediction_window
        owed = [
            w
            for w in (self._pending_retrain_week, self._next_retrain_week)
            if w is not None
        ]
        if not owed:
            return self._last_time - wp
        policy = self.config.policy
        if policy.kind != "sliding":
            return self.origin
        first = min(owed)
        w0 = max(0, first - policy.length_weeks)
        return min(self._boundary_time(w0), self._boundary_time(first) - wp)


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

        A session with a window tuner raises
        :class:`~repro.resilience.CheckpointError`: the file has no field
        for the tuned window, so a resumed session would predict with
        the configured one.
        """
        if self._window_tuner is not None:
            raise ckpt.CheckpointError(
                "a session with a window tuner cannot be checkpointed: "
                "the checkpoint does not record the tuned window"
            )
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
