"""Adaptive retrain policy: detectors in, retrain/skip decisions out.

:class:`AdaptiveRetrainPolicy` turns per-detector drift scores into a
weekly retrain/skip decision with the guard rails a production scheduler
needs:

* **hysteresis** — after a drift trigger the policy disarms until every
  score falls back below ``hysteresis`` × its threshold, so a detector
  hovering at its threshold cannot thrash the trainer;
* **cooldown** — no drift trigger within ``cooldown_weeks`` of the last
  successful retraining (fresh rules deserve a chance to re-baseline);
* **max interval** — a quiet stream still retrains at least every
  ``max_interval_weeks`` (the paper's ``WR`` as a safety net rather
  than a metronome).

:class:`DriftMonitor` bundles the three detectors with the policy
behind the narrow surface
:class:`~repro.core.online.OnlinePredictionSession` drives:
``observe_event`` / ``observe_warnings`` on the hot path, ``evaluate``
at week boundaries, ``retrained`` after a successful retraining,
``snapshot``/``restore`` for checkpoint v3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro import observe
from repro.adapt.detectors import (
    EventMixDetector,
    InterArrivalDetector,
    RuleHitRateDetector,
)
from repro.alerts import FailureWarning

#: Trigger causes that are not a detector name.
CAUSE_INITIAL = "initial"
CAUSE_MAX_INTERVAL = "max_interval"


@dataclass(frozen=True)
class DriftDecision:
    """One weekly evaluation outcome."""

    week: int
    retrain: bool
    #: which signal fired — a detector name, ``"initial"``,
    #: ``"max_interval"``, or None for a skipped week
    cause: str | None
    scores: dict[str, float] = field(default_factory=dict)
    #: True when the decision was never taken because a retraining is
    #: already owed (degraded mode defers, it never double-fires)
    deferred: bool = False


class AdaptiveRetrainPolicy:
    """Hysteresis + cooldown + max-interval over raw drift scores."""

    def __init__(
        self,
        thresholds: Mapping[str, float],
        cooldown_weeks: int = 2,
        max_interval_weeks: int = 8,
        hysteresis: float = 0.6,
    ) -> None:
        if not thresholds:
            raise ValueError("need at least one detector threshold")
        for name, value in thresholds.items():
            if not 0.0 < value <= 1.0:
                raise ValueError(
                    f"threshold for {name!r} must lie in (0, 1], got {value}"
                )
        if cooldown_weeks < 0:
            raise ValueError(
                f"cooldown_weeks must be >= 0, got {cooldown_weeks}"
            )
        if max_interval_weeks <= cooldown_weeks:
            raise ValueError(
                f"max_interval_weeks ({max_interval_weeks}) must exceed "
                f"cooldown_weeks ({cooldown_weeks})"
            )
        if not 0.0 < hysteresis <= 1.0:
            raise ValueError(
                f"hysteresis must lie in (0, 1], got {hysteresis}"
            )
        self.thresholds = dict(thresholds)
        self.cooldown_weeks = cooldown_weeks
        self.max_interval_weeks = max_interval_weeks
        self.hysteresis = hysteresis

        self._last_retrain_week: int | None = None
        self._armed = True
        self.n_skipped = 0
        self.n_deferred = 0
        #: (week, cause) of every triggered retraining decision
        self.trigger_log: list[tuple[int, str]] = []

    def decide(self, week: int, scores: Mapping[str, float]) -> DriftDecision:
        """One weekly retrain/skip decision; call once per boundary."""
        if self._last_retrain_week is None:
            # Nothing deployed yet: the first boundary is the initial
            # training, unconditionally.
            return self._trigger(week, CAUSE_INITIAL, scores)

        over = [
            name
            for name, threshold in self.thresholds.items()
            if scores.get(name, 0.0) >= threshold
        ]
        if not self._armed and not any(
            scores.get(name, 0.0) >= self.hysteresis * threshold
            for name, threshold in self.thresholds.items()
        ):
            self._armed = True

        since = week - self._last_retrain_week
        if since >= self.max_interval_weeks:
            return self._trigger(week, CAUSE_MAX_INTERVAL, scores)
        if since >= self.cooldown_weeks and self._armed and over:
            # Blame the detector furthest over its threshold.
            cause = max(
                over, key=lambda n: scores[n] / self.thresholds[n]
            )
            self._armed = False
            return self._trigger(week, cause, scores)
        self.n_skipped += 1
        return DriftDecision(
            week=week, retrain=False, cause=None, scores=dict(scores)
        )

    def _trigger(
        self, week: int, cause: str, scores: Mapping[str, float]
    ) -> DriftDecision:
        self.trigger_log.append((week, cause))
        return DriftDecision(
            week=week, retrain=True, cause=cause, scores=dict(scores)
        )

    def defer(self, week: int) -> DriftDecision:
        """A retraining is already owed; record the evaluation and wait."""
        self.n_deferred += 1
        return DriftDecision(
            week=week, retrain=False, cause=None, deferred=True
        )

    def retrained(self, week: int) -> None:
        """A retraining *succeeded*; cooldown and max-interval restart.

        Deliberately does *not* re-arm: a drift trigger stays disarmed
        until its scores recede below hysteresis x threshold (rebaselined
        detectors get there on the next evaluation of a healthy stream),
        so a detector that stays pinned cannot thrash the trainer.
        """
        self._last_retrain_week = week

    @property
    def last_retrain_week(self) -> int | None:
        return self._last_retrain_week

    def snapshot(self) -> dict[str, Any]:
        return {
            "last_retrain_week": self._last_retrain_week,
            "armed": self._armed,
            "n_skipped": self.n_skipped,
            "n_deferred": self.n_deferred,
            "trigger_log": [list(entry) for entry in self.trigger_log],
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        self._last_retrain_week = state["last_retrain_week"]
        self._armed = state["armed"]
        self.n_skipped = state["n_skipped"]
        self.n_deferred = state["n_deferred"]
        self.trigger_log = [
            (int(week), str(cause)) for week, cause in state["trigger_log"]
        ]


class DriftMonitor:
    """The three detectors plus the policy, as one crash-consistent unit."""

    def __init__(
        self,
        mix_threshold: float = 0.45,
        gap_threshold: float = 0.45,
        rule_threshold: float = 0.6,
        cooldown_weeks: int = 2,
        max_interval_weeks: int = 8,
        window_events: int = 256,
        hysteresis: float = 0.6,
    ) -> None:
        self.event_mix = EventMixDetector(window_events=window_events)
        self.interarrival = InterArrivalDetector(window_gaps=window_events)
        self.rule_hit_rate = RuleHitRateDetector()
        self.policy = AdaptiveRetrainPolicy(
            thresholds={
                self.event_mix.name: mix_threshold,
                self.interarrival.name: gap_threshold,
                self.rule_hit_rate.name: rule_threshold,
            },
            cooldown_weeks=cooldown_weeks,
            max_interval_weeks=max_interval_weeks,
            hysteresis=hysteresis,
        )
        self.n_evaluations = 0
        self._last_scores: dict[str, float] = {}

    @classmethod
    def from_config(cls, config) -> "DriftMonitor":
        """Build from a :class:`~repro.core.framework.FrameworkConfig`."""
        return cls(
            mix_threshold=config.adapt_mix_threshold,
            gap_threshold=config.adapt_gap_threshold,
            rule_threshold=config.adapt_rule_threshold,
            cooldown_weeks=config.adapt_cooldown_weeks,
            max_interval_weeks=config.adapt_max_interval_weeks,
            window_events=config.adapt_window_events,
            hysteresis=config.adapt_hysteresis,
        )

    # -- hot path ----------------------------------------------------------

    def observe_event(
        self, code: str, timestamp: float, location: str
    ) -> None:
        self.event_mix.observe(code, timestamp)
        self.interarrival.observe(timestamp, location)

    def observe_warnings(self, warnings: Iterable[FailureWarning]) -> None:
        for warning in warnings:
            self.rule_hit_rate.observe_warning(warning)

    # -- week boundary -----------------------------------------------------

    def evaluate(self, week: int, deferred: bool = False) -> DriftDecision:
        """Close the week and decide; ``deferred=True`` while degraded."""
        self.rule_hit_rate.fold_period()
        scores = {
            self.event_mix.name: self.event_mix.score(),
            self.interarrival.name: self.interarrival.score(),
            self.rule_hit_rate.name: self.rule_hit_rate.score(),
        }
        self._last_scores = scores
        self.n_evaluations += 1
        for name, score in scores.items():
            observe.gauge("adapt.score", detector=name).set(score)
        observe.counter("adapt.evaluations").inc()
        if deferred:
            decision = self.policy.defer(week)
            observe.counter("adapt.deferred").inc()
            return decision
        decision = self.policy.decide(week, scores)
        if decision.retrain:
            observe.counter("adapt.triggers", cause=decision.cause).inc()
        else:
            observe.counter("adapt.skipped_retrains").inc()
        return decision

    def retrained(self, week: int) -> None:
        """A retraining succeeded: today's stream is the new baseline."""
        self.policy.retrained(week)
        self.event_mix.rebaseline()
        self.interarrival.rebaseline()
        self.rule_hit_rate.rebaseline()

    # -- introspection -----------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Operator-facing drift state (``health`` / ``repro fleet status``)."""
        return {
            "scores": dict(self._last_scores),
            "thresholds": dict(self.policy.thresholds),
            "armed": self.policy._armed,
            "last_retrain_week": self.policy.last_retrain_week,
            "cooldown_weeks": self.policy.cooldown_weeks,
            "max_interval_weeks": self.policy.max_interval_weeks,
            "evaluations": self.n_evaluations,
            "skipped_retrains": self.policy.n_skipped,
            "deferred": self.policy.n_deferred,
            "triggers": [
                {"week": week, "cause": cause}
                for week, cause in self.policy.trigger_log
            ],
        }

    # -- durability --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {
            "event_mix": self.event_mix.snapshot(),
            "interarrival": self.interarrival.snapshot(),
            "rule_hit_rate": self.rule_hit_rate.snapshot(),
            "policy": self.policy.snapshot(),
            "n_evaluations": self.n_evaluations,
            "last_scores": dict(self._last_scores),
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        self.event_mix.restore(state["event_mix"])
        self.interarrival.restore(state["interarrival"])
        self.rule_hit_rate.restore(state["rule_hit_rate"])
        self.policy.restore(state["policy"])
        self.n_evaluations = state["n_evaluations"]
        self._last_scores = dict(state["last_scores"])


__all__ = [
    "AdaptiveRetrainPolicy",
    "CAUSE_INITIAL",
    "CAUSE_MAX_INTERVAL",
    "DriftDecision",
    "DriftMonitor",
]
