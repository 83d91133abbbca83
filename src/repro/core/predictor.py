"""Event-driven online predictor (Algorithm 2).

The predictor maintains three structures from the learned rules:

* ``F-List`` — for each fatal event type, the trigger sets that forecast it
  (one entry per association rule);
* ``E-List`` — for each event type, the fatal types it may participate in
  triggering (the inverted index of the F-List);
* the monitoring set ``E`` of events observed within the last prediction
  window ``Wp``.

On each event occurrence the predictor prunes the monitoring set, consults
the rule kinds in the mixture-of-experts order (association rules for
non-fatal events, statistical rules for fatal events, and the fitted
inter-arrival distribution as the fallback expert), and emits
:class:`FailureWarning` objects.

Because the distribution expert is *time*-triggered ("elapsed time since
the last failure exceeds the threshold") while the design is event-driven,
the predictor also accepts clock ticks (:meth:`Predictor.advance`): an
online deployment checks the clock periodically; replaying a log calls
``advance`` between events.  After firing, the distribution expert
re-arms every ``Wp`` seconds while no failure arrives — this reproduces
the paper's observation that the method "cannot pinpoint the occurrence
times of the failures, thereby giving many false alarms once the elapsed
time since the last failure is large enough".

**Per-rule window semantics.**  Count and statistical rules carry their
own mined ``window``; matching thresholds them over occurrences with
``now - t <= rule.window``, *not* over everything in the predictor-wide
``Wp`` monitoring set.  (Earlier versions counted the whole ``Wp`` deque,
so a rule with ``window < Wp`` over-counted and fired false warnings.)
Since the monitoring set only retains ``Wp`` seconds of history, the
effective counting window is ``min(rule.window, Wp)``.

**Matching indices.**  With the default ``indexing="compiled"`` the
F-List/E-List are precompiled into flat hash-joined per-code candidate
lists: each event code maps directly to the association rules it can
complete (with the *residual* antecedent precomputed) and matching
checks an incrementally maintained occurrence count per code instead of
rebuilding a set from the whole monitoring deque; count rules consult a
per-code timestamp deque instead of scanning the full window.
``indexing="scan"`` keeps the original per-event scans (same warnings,
slower) so the speedup stays measurable on one harness
(``repro bench --topic predictor_feed``).

**Hot path.**  Each event pays only for the work it can trigger.
:meth:`Predictor.feed` enters :meth:`Predictor.catch_up` only when the
distribution timer could fire before the event: the floor of
``_next_timer_fire`` (the last failure plus the smallest fitted quantile,
the re-arm time and the clock, computed with the smallest quantile taken
once at construction) lies before the event's timestamp.
:meth:`Predictor.observe` consults each expert only when its
precondition holds: the association expert when the event's code is in
the E-List (the compiled candidates are keyed by the same codes), the
count expert when a count rule watches the code, the statistical expert
on a failure when statistical rules exist, and the distribution expert
when a failure has been seen, its re-arm time has passed and the time
since that failure reaches the smallest fitted quantile (the same
``now - last_fatal_time`` each rule compares, so no rule the gate skips
could have fired).  The experts themselves assume their precondition.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro import observe
from repro.alerts import FailureWarning
from repro.learners.rules import (
    ANY_FAILURE,
    AssociationRule,
    CountRule,
    DistributionRule,
    Rule,
    RuleKey,
    StatisticalRule,
)
from repro.raslog.catalog import EventCatalog, default_catalog
from repro.raslog.events import RASEvent
from repro.raslog.store import EventLog

#: Ensemble policies: ``experts`` is the paper's mixture-of-experts order
#: (later experts consulted only when earlier ones stay silent);
#: ``union`` fires every matching rule (used for ablation and by the
#: reviser to score rules individually in one pass); ``weighted`` fires
#: every matching rule whose training-set precision weight clears
#: ``weight_threshold`` — an alternative combination scheme from the
#: paper's future-work list.
ENSEMBLE_POLICIES = ("experts", "union", "weighted")

#: Matching-index implementations: ``compiled`` (precompiled per-code
#: candidate lists + incremental occurrence tracking, the default) and
#: ``scan`` (the original per-event deque scans, kept so the benchmark
#: harness can measure the index speedup on identical output).
INDEXING_MODES = ("compiled", "scan")


@dataclass
class PredictorState:
    """Mutable runtime state, exposed for inspection and tests."""

    clock: float = 0.0
    last_fatal_time: float | None = None
    #: recent events (time, code) within the prediction window
    monitoring: deque = field(default_factory=deque)
    #: recent fatal times within the prediction window
    recent_fatals: deque = field(default_factory=deque)
    #: per-rule refractory bookkeeping: rule key -> last firing time
    last_fired: dict = field(default_factory=dict)
    #: next time the distribution expert may fire (None = armed on cross)
    dist_next_allowed: float = 0.0


class Predictor:
    """Online matcher of learned rules against an event stream."""

    def __init__(
        self,
        rules: Iterable[Rule],
        window: float,
        catalog: EventCatalog | None = None,
        ensemble: str = "experts",
        refractory: float | None = None,
        dist_horizon_cap: float = 43200.0,
        rule_weights: "dict[RuleKey, float] | None" = None,
        weight_threshold: float = 0.5,
        indexing: str = "compiled",
    ) -> None:
        if window <= 0:
            raise ValueError(f"prediction window must be positive, got {window}")
        if ensemble not in ENSEMBLE_POLICIES:
            raise ValueError(
                f"ensemble must be one of {ENSEMBLE_POLICIES}, got {ensemble!r}"
            )
        if indexing not in INDEXING_MODES:
            raise ValueError(
                f"indexing must be one of {INDEXING_MODES}, got {indexing!r}"
            )
        if dist_horizon_cap <= 0:
            raise ValueError(
                f"dist_horizon_cap must be positive, got {dist_horizon_cap}"
            )
        self.window = float(window)
        #: Upper bound on the distribution expert's warning horizon — the
        #: fitted quantile can reach many hours, beyond which a warning is
        #: not actionable for proactive fault tolerance.
        self.dist_horizon_cap = float(dist_horizon_cap)
        if not 0.0 <= weight_threshold <= 1.0:
            raise ValueError(
                f"weight_threshold must lie in [0, 1], got {weight_threshold}"
            )
        self.catalog = catalog or default_catalog()
        self.ensemble = ensemble
        #: per-rule confidence weights for the ``weighted`` policy (e.g.
        #: training-set precision from the reviser); unknown rules weigh 0.5
        self.rule_weights = dict(rule_weights or {})
        self.weight_threshold = float(weight_threshold)
        #: suppress re-firing of one rule within this many seconds; default
        #: is the prediction window (one warning per rule per window).
        self.refractory = float(window if refractory is None else refractory)

        self.association_rules: list[AssociationRule] = []
        self.statistical_rules: list[StatisticalRule] = []
        self.distribution_rules: list[DistributionRule] = []
        self.count_rules: dict[str, list[CountRule]] = {}
        for rule in rules:
            if isinstance(rule, AssociationRule):
                self.association_rules.append(rule)
            elif isinstance(rule, StatisticalRule):
                self.statistical_rules.append(rule)
            elif isinstance(rule, DistributionRule):
                self.distribution_rules.append(rule)
            elif isinstance(rule, CountRule):
                self.count_rules.setdefault(rule.code, []).append(rule)
            else:
                raise TypeError(f"unsupported rule type {type(rule).__name__}")
        self.statistical_rules.sort(key=lambda r: r.k)
        #: the distribution timer cannot fire before the last failure plus
        #: this (infinite without distribution rules); rules are fixed
        #: after construction, so it is taken once
        self._min_quantile = min(
            (r.quantile_time for r in self.distribution_rules),
            default=float("inf"),
        )

        # F-List / E-List of Algorithm 2.
        self.f_list: dict[str, list[AssociationRule]] = {}
        self.e_list: dict[str, set[str]] = {}
        for rule in self.association_rules:
            self.f_list.setdefault(rule.consequent, []).append(rule)
            for item in rule.antecedent:
                self.e_list.setdefault(item, set()).add(rule.consequent)

        self.indexing = indexing
        self._compiled = indexing == "compiled"
        if self._compiled:
            self._compile_indices()

        self.state = PredictorState()
        self._refractory_sweep_at = float("-inf")
        self._rebuild_tracking()

        # Instrument handles are cached per registry so the per-event
        # hot path pays one identity check, not a registry lookup.
        self._obs_registry = None
        self._feed_histogram = None
        self._warning_counter = None

    # -- compiled matching indices -------------------------------------------

    def _compile_indices(self) -> None:
        """Flatten the F-List/E-List into per-code hash-join candidates.

        For every event code that can participate in an association rule,
        precompute the rules it may complete — in exactly the order the
        scan path visits them (consequents sorted, then F-List insertion
        order) so both index modes emit identical warning sequences — and
        pair each with its *residual* antecedent (the other items whose
        presence in the monitoring window must be checked).
        """
        self._assoc_candidates: dict[
            str, tuple[tuple[AssociationRule, tuple[str, ...]], ...]
        ] = {}
        for code, consequents in self.e_list.items():
            candidates = []
            for fatal_code in sorted(consequents):
                for rule in self.f_list[fatal_code]:
                    if code in rule.antecedent:
                        others = tuple(
                            item for item in sorted(rule.antecedent)
                            if item != code
                        )
                        candidates.append((rule, others))
            self._assoc_candidates[code] = tuple(candidates)
        #: codes whose in-window occurrence count matters for hash joins
        self._acount_codes = frozenset(self.e_list)

    def _rebuild_tracking(self) -> None:
        """(Re)derive incremental occurrence tracking from ``state``.

        Called on construction, after :meth:`prime` and after
        :meth:`restore_state`; the tracked structures are pure functions
        of the monitoring deque, so they are never checkpointed.
        :meth:`observe` and :meth:`_prune` maintain them inline for each
        appended and expired event.
        """
        if not self._compiled:
            return
        #: per-code occurrence count inside the monitoring window
        self._acounts: dict[str, int] = {}
        #: per-count-rule-code timestamps inside the monitoring window
        self._ctimes: dict[str, deque] = {c: deque() for c in self.count_rules}
        acount_codes, acounts, ctimes = (
            self._acount_codes, self._acounts, self._ctimes
        )
        for t, code in self.state.monitoring:
            if code in acount_codes:
                acounts[code] = acounts.get(code, 0) + 1
            times = ctimes.get(code)
            if times is not None:
                times.append(t)

    # -- internals ----------------------------------------------------------

    def _instruments(self):
        registry = observe.get_registry()
        if self._obs_registry is not registry:
            self._obs_registry = registry
            self._feed_histogram = registry.histogram("predictor.feed")
            self._warning_counter = registry.counter("predictor.warnings")
        return self._feed_histogram, self._warning_counter

    def _prune(self, now: float) -> None:
        """Expire what ``now`` left behind: monitored events and recent
        failures older than the window (with their compiled tracking),
        and, when the amortized sweep is due, stale refractory stamps."""
        horizon = now - self.window
        monitoring = self.state.monitoring
        if self._compiled:
            acount_codes, acounts, ctimes = (
                self._acount_codes, self._acounts, self._ctimes
            )
            while monitoring and monitoring[0][0] < horizon:
                _, code = monitoring.popleft()
                if code in acount_codes:
                    remaining = acounts[code] - 1
                    if remaining:
                        acounts[code] = remaining
                    else:
                        del acounts[code]
                times = ctimes.get(code)
                if times is not None:
                    times.popleft()
        else:
            while monitoring and monitoring[0][0] < horizon:
                monitoring.popleft()
        fatals = self.state.recent_fatals
        while fatals and fatals[0] < horizon:
            fatals.popleft()
        # Amortized sweep of per-rule refractory stamps: an entry older
        # than the refractory can never suppress again, so dropping it is
        # invisible to matching — but without the sweep ``last_fired``
        # grows one entry per retired rule key over week-scale streams.
        last_fired = self.state.last_fired
        if last_fired and now >= self._refractory_sweep_at:
            cutoff = now - self.refractory
            stale = [key for key, t in last_fired.items() if t <= cutoff]
            for key in stale:
                del last_fired[key]
            self._refractory_sweep_at = now + self.refractory

    def _fire(
        self, now: float, predicted: str, rule_key: RuleKey, learner: str
    ) -> FailureWarning | None:
        last = self.state.last_fired.get(rule_key)
        if last is not None and now - last < self.refractory:
            return None
        self.state.last_fired[rule_key] = now
        return FailureWarning(
            time=now,
            predicted=predicted,
            window=self.window,
            rule_key=rule_key,
            learner=learner,
        )

    def _match_association(self, event: RASEvent) -> list[FailureWarning]:
        """Association expert; the event's code must be in the E-List."""
        if not self._compiled:
            return self._match_association_scan(event)
        candidates = self._assoc_candidates[event.entry_data]
        # Hash join: the triggering code keys straight into the rules it
        # can complete; the residual antecedent is checked against the
        # incrementally maintained per-code occurrence counts.  (The
        # triggering event itself belongs to the monitoring set E —
        # Algorithm 2 appends before matching — which the residual
        # encodes by construction.)
        counts = self._acounts
        warnings: list[FailureWarning] = []
        for rule, others in candidates:
            for item in others:
                if not counts.get(item):
                    break
            else:
                w = self._fire(
                    event.timestamp, rule.consequent, rule.key, "association"
                )
                if w is not None:
                    warnings.append(w)
        return warnings

    def _match_association_scan(self, event: RASEvent) -> list[FailureWarning]:
        code = event.entry_data
        possible = self.e_list[code]
        recent_codes = {c for _, c in self.state.monitoring}
        recent_codes.add(code)
        warnings: list[FailureWarning] = []
        for fatal_code in sorted(possible):
            for rule in self.f_list[fatal_code]:
                if code in rule.antecedent and rule.antecedent <= recent_codes:
                    w = self._fire(
                        event.timestamp, fatal_code, rule.key, "association"
                    )
                    if w is not None:
                        warnings.append(w)
        return warnings

    def _match_count(self, event: RASEvent) -> list[FailureWarning]:
        """Count expert; a count rule must watch the event's code."""
        code = event.entry_data
        candidates = self.count_rules[code]
        now = event.timestamp
        warnings: list[FailureWarning] = []
        if self._compiled:
            times = self._ctimes[code]
            for rule in candidates:
                cutoff = now - rule.window
                occurrences = 1  # the triggering event
                for t in reversed(times):
                    if t < cutoff:
                        break
                    occurrences += 1
                if occurrences >= rule.count:
                    w = self._fire(now, rule.consequent, rule.key, "count")
                    if w is not None:
                        warnings.append(w)
        else:
            for rule in candidates:
                cutoff = now - rule.window
                occurrences = 1 + sum(
                    1
                    for t, c in self.state.monitoring
                    if c == code and t >= cutoff
                )
                if occurrences >= rule.count:
                    w = self._fire(now, rule.consequent, rule.key, "count")
                    if w is not None:
                        warnings.append(w)
        return warnings

    def _match_statistical(self, event: RASEvent) -> list[FailureWarning]:
        """Statistical expert, on a failure; statistical rules must exist."""
        fatals = self.state.recent_fatals
        now = event.timestamp
        # Most-specific expert: the largest k whose own window holds a
        # burst of at least k failures (the deque is time-ordered, so
        # counting walks back from the newest and stops early).
        best: StatisticalRule | None = None
        for rule in self.statistical_rules:
            if len(fatals) < rule.k:
                continue
            cutoff = now - rule.window
            count = 0
            for t in reversed(fatals):
                if t < cutoff:
                    break
                count += 1
                if count >= rule.k:
                    best = rule
                    break
        if best is None:
            return []
        w = self._fire(now, ANY_FAILURE, best.key, "statistical")
        return [w] if w is not None else []

    def _distribution_due(self, now: float) -> bool:
        """Whether the distribution expert can fire at ``now``: a failure
        has been seen, its re-arm time has passed, and the time since the
        failure reaches the smallest fitted quantile (never, without
        distribution rules)."""
        state = self.state
        last_fatal = state.last_fatal_time
        return (
            last_fatal is not None
            and now >= state.dist_next_allowed
            and now - last_fatal >= self._min_quantile
        )

    def _check_distribution(self, now: float) -> list[FailureWarning]:
        """Distribution expert; :meth:`_distribution_due` must hold."""
        last_fatal = self.state.last_fatal_time
        warnings: list[FailureWarning] = []
        horizon = self.window
        for rule in self.distribution_rules:
            if now - last_fatal >= rule.quantile_time:
                # The distribution expert forecasts at its own, fitted
                # resolution: the paper notes it "cannot pinpoint the
                # occurrence times of the failures", so its warning
                # horizon is the learned quantile (capped to keep the
                # warning actionable) rather than Wp.
                rule_horizon = max(
                    self.window, min(rule.quantile_time, self.dist_horizon_cap)
                )
                horizon = max(horizon, rule_horizon)
                w = FailureWarning(
                    time=now,
                    predicted=ANY_FAILURE,
                    window=rule_horizon,
                    rule_key=rule.key,
                    learner="distribution",
                )
                warnings.append(w)
        if warnings:
            # Re-arm one horizon later so a long failure-free stretch
            # yields a bounded train of warnings rather than one per tick.
            self.state.dist_next_allowed = now + horizon
        return warnings

    # -- public API -------------------------------------------------------------

    def prime(
        self, events: Iterable[RASEvent], now: float | None = None
    ) -> None:
        """Seed the sliding window from history without emitting warnings.

        A freshly constructed predictor that takes over mid-stream (after
        a retraining swaps the rule set) starts with an empty monitoring
        set, so precursors that arrived just before the handover could no
        longer complete a rule.  Priming replays the last ``window``
        seconds of already-observed events into the predictor's state —
        monitoring set, recent-fatal burst window, and the elapsed-time
        expert's anchor — exactly as :meth:`observe` would have built it,
        but silently: those events already had their chance to fire under
        the previous rule set.

        ``now`` optionally advances the clock to the handover instant
        afterwards (events beyond it are rejected, like :meth:`observe`).
        """
        state = self.state
        try:
            for event in events:
                t = event.timestamp
                if t < state.clock:
                    raise ValueError(
                        f"priming events must arrive in time order: "
                        f"{t} < {state.clock}"
                    )
                state.clock = t
                code = event.entry_data
                if code in self.catalog.fatal_codes:
                    state.recent_fatals.append(t)
                    state.last_fatal_time = t
                    state.dist_next_allowed = t
                state.monitoring.append((t, code))
        finally:
            self._rebuild_tracking()
        if now is not None:
            if now < state.clock:
                raise ValueError(
                    f"clock moved backwards: {now} < {state.clock}"
                )
            state.clock = now
        self._prune(state.clock)

    def advance(self, now: float) -> list[FailureWarning]:
        """Move the clock forward without an event (periodic timer check)."""
        if now < self.state.clock:
            raise ValueError(
                f"clock moved backwards: {now} < {self.state.clock}"
            )
        self.state.clock = now
        self._prune(now)
        if self._distribution_due(now):
            return self._check_distribution(now)
        return []

    def observe(self, event: RASEvent) -> list[FailureWarning]:
        """Feed one event (Algorithm 2's per-occurrence step)."""
        now = event.timestamp
        state = self.state
        if now < state.clock:
            raise ValueError(
                f"events must arrive in time order: {now} < {state.clock}"
            )
        state.clock = now
        self._prune(now)

        code = event.entry_data
        warnings: list[FailureWarning] = []

        if code in self.catalog.fatal_codes:
            state.recent_fatals.append(now)
            if self.statistical_rules:
                warnings = self._match_statistical(event)
            # A failure resets the elapsed-time expert.
            state.last_fatal_time = now
            state.dist_next_allowed = now
        else:
            if code in self.e_list:
                warnings = self._match_association(event)
            if code in self.count_rules:
                warnings.extend(self._match_count(event))

        state.monitoring.append((now, code))
        if self._compiled:
            if code in self._acount_codes:
                acounts = self._acounts
                acounts[code] = acounts.get(code, 0) + 1
            times = self._ctimes.get(code)
            if times is not None:
                times.append(now)

        # experts: the distribution expert is the fallback when the
        # others stayed silent; union/weighted: every expert speaks.
        if (
            not warnings or self.ensemble != "experts"
        ) and self._distribution_due(now):
            warnings.extend(self._check_distribution(now))
        if self.ensemble == "weighted":
            warnings = [
                w
                for w in warnings
                if self.rule_weights.get(w.rule_key, 0.5) >= self.weight_threshold
            ]
        return warnings

    def _timer_floor(self) -> float:
        """Earliest instant the distribution timer could fire, before
        alignment to the tick grid: the smallest fitted quantile crossed,
        the re-arm delay expired, and not before the clock.  Infinite
        without distribution rules or before the first failure."""
        state = self.state
        if state.last_fatal_time is None:
            return float("inf")
        return max(
            state.last_fatal_time + self._min_quantile,
            state.dist_next_allowed,
            state.clock,
        )

    def _next_timer_fire(self, tick: float) -> float | None:
        """Earliest future time the distribution expert could fire.

        Used by :func:`replay` to simulate a periodic timer without
        stepping through every empty tick: the next interesting instant is
        when the smallest fitted quantile is crossed (or the re-arm delay
        expires), rounded up to the tick grid.
        """
        t = self._timer_floor()
        if t == float("inf"):
            return None
        # Align to the timer grid (a live deployment only looks at the
        # clock every ``tick`` seconds).
        grid = -(-t // tick) * tick  # ceil to multiple of tick
        return max(grid, t)

    def feed(
        self, event: RASEvent, tick: float | None = 60.0
    ) -> list[FailureWarning]:
        """Catch the deployment timer up to the event, then observe it.

        This is the unit step of both offline replay and online streaming:
        any timer firings due between the previous clock position and the
        event are emitted first, exactly as a live timer would have done.
        """
        if tick is not None and tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        t0 = time.perf_counter()
        # Most events arrive before the timer could fire: skip the loop.
        if tick is not None and self._timer_floor() < event.timestamp:
            warnings = self.catch_up(event.timestamp, tick)
            warnings.extend(self.observe(event))
        else:
            warnings = self.observe(event)
        feed_histogram, warning_counter = self._instruments()
        feed_histogram.observe(time.perf_counter() - t0)
        if warnings:
            warning_counter.inc(len(warnings))
        return warnings

    def catch_up(self, until: float, tick: float) -> list[FailureWarning]:
        """Emit all timer firings strictly before ``until``."""
        warnings: list[FailureWarning] = []
        checked: float | None = None
        while True:
            t = self._next_timer_fire(tick)
            if t is None:
                break
            # The timer never re-examines an instant: if the previous
            # check fired nothing (e.g. the fitted quantile lost to
            # rounding in ``_next_timer_fire``), the next opportunity is
            # one tick later — otherwise a degenerate fit whose quantile
            # sits within one ulp of the grid can loop forever.
            if checked is not None and t <= checked:
                t = checked + tick
            if t >= until:
                break
            warnings.extend(self.advance(t))
            checked = t
        return warnings

    def replay(
        self, log: EventLog, tick: float | None = 60.0
    ) -> list[FailureWarning]:
        """Run the predictor over a whole log, with simulated clock ticks.

        ``tick`` is the period of the deployment timer that services the
        time-triggered distribution expert between events; ``None``
        disables the timer (purely event-driven replay).
        """
        if tick is not None and tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        warnings: list[FailureWarning] = []
        for event in log:
            warnings.extend(self.feed(event, tick))
        return warnings

    @property
    def n_rules(self) -> int:
        return (
            len(self.association_rules)
            + len(self.statistical_rules)
            + len(self.distribution_rules)
            + sum(len(v) for v in self.count_rules.values())
        )

    # -- monitoring-state persistence ---------------------------------------

    def state_snapshot(self) -> dict:
        """JSON-ready copy of the full monitoring state.

        Captures everything :class:`PredictorState` carries — the sliding
        monitoring set, the recent-fatal burst window, per-rule refractory
        anchors and the time-triggered expert's clock and re-arm time — so
        a predictor rebuilt from the same rules and fed the same stream
        tail after :meth:`restore_state` emits byte-identical warnings.
        """
        from repro.core.serialization import key_to_json

        s = self.state
        return {
            "clock": s.clock,
            "last_fatal_time": s.last_fatal_time,
            "monitoring": [[t, code] for t, code in s.monitoring],
            "recent_fatals": list(s.recent_fatals),
            "last_fired": [
                [key_to_json(key), t] for key, t in s.last_fired.items()
            ],
            "dist_next_allowed": s.dist_next_allowed,
        }

    def restore_state(self, snapshot: dict) -> None:
        """Install a state captured by :meth:`state_snapshot`."""
        from repro.core.serialization import key_from_json

        self.state = PredictorState(
            clock=snapshot["clock"],
            last_fatal_time=snapshot["last_fatal_time"],
            monitoring=deque((t, code) for t, code in snapshot["monitoring"]),
            recent_fatals=deque(snapshot["recent_fatals"]),
            last_fired={
                key_from_json(key): t for key, t in snapshot["last_fired"]
            },
            dist_next_allowed=snapshot["dist_next_allowed"],
        )
        self._refractory_sweep_at = float("-inf")
        self._rebuild_tracking()
