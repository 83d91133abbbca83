"""Pure streaming session core: the prediction state machine, no I/O.

:class:`SessionCore` is the event-at-a-time heart of the online path —
windowing, retrain scheduling, degraded-mode bookkeeping, and the
predictor feed.  :meth:`SessionCore.ingest_batch` is the engine's one
per-event loop: the batch
:class:`~repro.core.framework.DynamicMetaLearningFramework` is a replay
driver feeding a log through a core, and the streaming
:class:`~repro.core.online.OnlinePredictionSession` is a subclass that
adds input validation, an optional reorder buffer and an optional
write-ahead journal in front of the same loop, so there is a single
engine.

The core itself performs no durable I/O: it owns no files, no journal,
no checkpoint format.  (It *does* record process-local metrics through
:mod:`repro.observe`, which touches no disk.)  Checkpoint serialization
lives with the ``OnlinePredictionSession`` subclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro import observe
from repro.adapt import DriftMonitor
from repro.alerts import FailureWarning
from repro.core.config import FrameworkConfig
from repro.core.knowledge import KnowledgeRepository
from repro.core.meta import MetaLearner
from repro.core.predictor import Predictor
from repro.core.reviser import Reviser
from repro.core.tracking import ChurnHistory, ChurnRecord, diff_rule_sets
from repro.evaluation.matching import MatchResult, match_warnings
from repro.raslog.catalog import EventCatalog, default_catalog
from repro.raslog.events import RASEvent
from repro.raslog.store import EventLog
from repro.resilience.degrade import RetrainFailure, backoff_delay
from repro.utils.timeutil import WEEK_SECONDS

#: Prediction-window hook: ``tuner(week, train_log, meta, reviser)``
#: returns the window ``Wp`` a retraining trains, revises and predicts with.
WindowTuner = Callable[[int, EventLog, MetaLearner, Reviser], float]


@dataclass
class RetrainEvent:
    """Telemetry of one retraining round."""

    week: int
    train_span: tuple[int, int]
    n_candidates: int
    n_kept: int
    churn: ChurnRecord
    generation_seconds: float
    revise_seconds: float
    #: per-learner training seconds
    learner_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class SessionSummary:
    """Accounting of a finished (or in-flight) session.

    ``precision``/``recall`` follow the paper's Section 5.1 formulas
    (true positives are correct *predictions*, false negatives are missed
    *failures*), matching
    :attr:`repro.core.framework.RunResult.overall`; the full
    :class:`MatchResult` is attached for coverage-based analysis.
    """

    n_events: int
    n_fatal: int
    n_warnings: int
    matching: MatchResult
    retrains: list[RetrainEvent] = field(default_factory=list)
    retrain_failures: list[RetrainFailure] = field(default_factory=list)
    n_quarantined: int = 0

    @property
    def precision(self) -> float:
        denom = self.matching.true_positives + self.matching.false_positives
        return self.matching.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.matching.true_positives + self.matching.false_negatives
        return self.matching.true_positives / denom if denom else 0.0


class SessionCore:
    """Ordered event-at-a-time prediction state machine.

    ``origin`` anchors week arithmetic (events must not precede it).
    Predictions start once ``config.initial_train_weeks`` of data have
    streamed in; before that, :meth:`ingest` buffers silently.  Events
    must arrive in time order — tolerance for disorder is the job of
    :class:`~repro.core.online.OnlinePredictionSession`'s reorder buffer.
    """

    def __init__(
        self,
        config: FrameworkConfig | None = None,
        catalog: EventCatalog | None = None,
        origin: float = 0.0,
        window_tuner: WindowTuner | None = None,
    ) -> None:
        self.config = config or FrameworkConfig()
        self.catalog = catalog or default_catalog()
        self.origin = float(origin)
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
        self.churn = ChurnHistory()
        self.retrains: list[RetrainEvent] = []
        self.warnings: list[FailureWarning] = []
        #: failed retraining attempts (degraded mode only)
        self.retrain_failures: list[RetrainFailure] = []

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

    def drift_status(self) -> dict | None:
        """Drift-detector/policy state, or None with the fixed trigger."""
        return None if self._adapt is None else self._adapt.status()

    def history(self) -> EventLog:
        """Everything ingested so far, as an EventLog.

        A core restored from a tail checkpoint only retains the tail its
        future retrainings can reach; earlier events are summarized by
        counters (``summary().n_events`` stays exact).
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
            self.churn.append(churn_record)
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
        """Feed one in-order event; returns any warnings it raised."""
        return self.ingest_batch((event,))

    def _due(self) -> float:
        """Stream time from which :meth:`cross_boundaries` has work:
        the next retraining boundary, or an owed retry's backoff end."""
        due = float("inf")
        if self._next_retrain_week is not None:
            due = self._boundary_time(self._next_retrain_week)
        if self._pending_retrain_week is not None:
            due = min(due, self._retry_at)
        return due

    def ingest_batch(self, events: Iterable[RASEvent]) -> list[FailureWarning]:
        """Feed in-order events; returns the warnings they raised, in order.

        This is the engine's one per-event loop; :meth:`ingest` is a
        batch of one.  Each event still goes through
        :meth:`Predictor.feed` and :meth:`DriftMonitor.observe_event`
        as real method calls, exactly as if fed alone: they are the
        per-event trace points a profiler or benchmark wraps, so they
        are not inlined into this loop.  An event before
        the origin or out of time order raises ``ValueError`` after the
        events ahead of it were applied (and counted in
        ``online.events``); validating a whole batch before any of it is
        applied is the job of
        :class:`~repro.core.online.OnlinePredictionSession`.
        """
        first = len(self.warnings)
        origin, tick = self.origin, self.config.tick
        adapt, fatal = self._adapt, self.catalog.fatal_codes
        predictor = self._predictor
        due = self._due()
        n = 0
        try:
            for event in events:
                t = event.timestamp
                if t < self._last_time:
                    if t < origin:
                        raise ValueError(
                            f"event at {t} precedes the session origin "
                            f"{origin}"
                        )
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

    def advance(self, now: float) -> list[FailureWarning]:
        """Move the session clock without an event (idle timer service)."""
        if now < self._last_time:
            raise ValueError(
                f"clock moved backwards: {now} < {self._last_time}"
            )
        self.cross_boundaries(now)
        self._last_time = now
        if self._predictor is None or self.config.tick is None:
            return []
        caught = self._predictor.catch_up(now, self.config.tick)
        self.warnings.extend(caught)
        if self._adapt is not None and caught:
            self._adapt.observe_warnings(caught)
        return caught

    # -- accounting ---------------------------------------------------------

    def summary(self, n_quarantined: int = 0) -> SessionSummary:
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
            n_quarantined=n_quarantined,
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


__all__ = ["RetrainEvent", "SessionCore", "SessionSummary"]
