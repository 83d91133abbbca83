"""The reviser (Algorithm 1).

Because the base learners deliberately use permissive parameters (low
support/confidence, low probability thresholds) to catch rare failure
patterns, some learned rules are bad.  The reviser scores the candidate
rules against the training set, computes per-rule confusion counts, and
keeps a rule only when its distance from the ROC-space origin,
``sqrt(m1² + m2²)`` with ``m1 = TP/(TP+FP)`` and ``m2 = TP/(TP+FN)``,
exceeds ``MinROC`` (0.7 in the paper).

Each rule is scored as if it ran alone in a union-mode
:class:`~repro.core.predictor.Predictor` over the training log, but
mostly from the log's columns rather than one ``observe`` call per
event:

* an association rule fires where an event of a non-fatal antecedent
  code finds every other antecedent code at an earlier row no more than
  the window before it (one ``searchsorted`` over each code's rows per
  antecedent pair, shared by the rules that hold the pair); a count
  rule fires where its code's own rows reach the count.  The
  predictor's refractory test then thins each rule key's firings;
* statistical and distribution rules share state (the largest ``k``,
  one re-arm time and the clock tick), so a predictor built from just
  those rules replays only the failures and the events at which its
  timer could fire, jumping over the rest.

Every firing is then matched against the training failures by
:func:`~repro.evaluation.matching.score_firings`.
``tests/oracles.py`` keeps the single union-mode replay this replaced,
and the tests check that both give the same scores.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro import observe
from repro.alerts import FailureWarning
from repro.core.knowledge import RuleRecord
from repro.core.predictor import Predictor
from repro.evaluation.matching import RuleScore, score_firings, score_rules
from repro.learners.rules import (
    AssociationRule,
    CountRule,
    DistributionRule,
    Rule,
    RuleKey,
)
from repro.raslog.catalog import EventCatalog, default_catalog
from repro.raslog.events import RASEvent
from repro.raslog.store import EventLog

DEFAULT_MIN_ROC = 0.7


@dataclass
class RevisionResult:
    """Kept and discarded rules, with their training-set scores."""

    kept: list[RuleRecord] = field(default_factory=list)
    removed: list[RuleRecord] = field(default_factory=list)
    scores: dict[RuleKey, RuleScore] = field(default_factory=dict)
    #: wall-clock seconds of the revision round
    seconds: float = 0.0

    @property
    def removed_keys(self) -> set[RuleKey]:
        return {r.key for r in self.removed}


class Reviser:
    """ROC-filter over candidate rules (Algorithm 1)."""

    def __init__(
        self,
        min_roc: float = DEFAULT_MIN_ROC,
        catalog: EventCatalog | None = None,
        tick: float | None = 60.0,
        dist_horizon_cap: float = 43200.0,
    ) -> None:
        if not 0.0 <= min_roc <= 2.0**0.5:
            raise ValueError(
                f"min_roc must lie in [0, sqrt(2)], got {min_roc}"
            )
        self.min_roc = min_roc
        self.catalog = catalog or default_catalog()
        self.tick = tick
        self.dist_horizon_cap = dist_horizon_cap

    def score(
        self, records: list[RuleRecord], training_log: EventLog, window: float
    ) -> dict[RuleKey, RuleScore]:
        """Per-rule confusion counts over the training log."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        columns = _Columns(training_log, self.catalog, float(window))
        firings: dict[RuleKey, tuple[str, list[np.ndarray]]] = {}
        timed: list[Rule] = []
        by_antecedent: dict[frozenset[str], np.ndarray] = {}
        for record in records:
            rule = record.rule
            if isinstance(rule, AssociationRule):
                times = by_antecedent.get(rule.antecedent)
                if times is None:
                    times = columns.completions(rule.antecedent)
                    by_antecedent[rule.antecedent] = times
            elif isinstance(rule, CountRule):
                times = columns.counts(rule)
            else:
                timed.append(rule)
                continue
            firings.setdefault(rule.key, (rule.predicted, []))[1].append(times)
        # Rules that share a key share the predictor's refractory stamp.
        rules = []
        for predicted, parts in firings.values():
            times = _refractory(parts, columns.window)
            rules.append((predicted, times, times + columns.window))
        failures = (columns.fatal_times, columns.fatal_codes)
        scores = dict(zip(firings, score_firings(rules, *failures)))
        if timed:
            warnings = self._timer_warnings(timed, training_log, columns)
            scores.update(score_rules(warnings, *failures))
        # Rules that never fired on the training data get a zero score —
        # they cannot demonstrate effectiveness, so Algorithm 1 drops them.
        return {r.key: scores.get(r.key, RuleScore()) for r in records}

    def _timer_warnings(
        self, rules: list[Rule], log: EventLog, columns: _Columns
    ) -> list[FailureWarning]:
        """The warnings of the statistical and distribution ``rules`` in a
        union-mode predictor of their own, replayed over the failures and
        the events at which its timer could fire."""
        predictor = Predictor(
            rules,
            window=columns.window,
            catalog=self.catalog,
            ensemble="union",
            dist_horizon_cap=self.dist_horizon_cap,
        )
        quantile = min(
            (r.quantile_time for r in rules if isinstance(r, DistributionRule)),
            default=math.inf,
        )
        return predictor.replay(
            _due_events(predictor, quantile, log, columns), tick=self.tick
        )

    def revise(
        self, records: list[RuleRecord], training_log: EventLog, window: float
    ) -> RevisionResult:
        """Apply Algorithm 1 to the candidate records."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        with observe.span("reviser.revise") as sp:
            scores = self.score(records, training_log, window)
            result = RevisionResult(scores=scores)
            for record in records:
                s = scores[record.key]
                scored = record.with_scores(tp=s.tp, fp=s.fp, fn=s.fn, roc=s.roc)
                if s.roc > self.min_roc:
                    result.kept.append(scored)
                else:
                    result.removed.append(scored)
        result.seconds = sp.seconds
        observe.counter("reviser.kept").inc(len(result.kept))
        observe.counter("reviser.removed").inc(len(result.removed))
        return result


_EMPTY = np.zeros(0, dtype=np.float64)


class _Columns:
    """A training log as columns, for one scoring window: the times, the
    failures, and per code the ascending rows and times of its events."""

    def __init__(self, log: EventLog, catalog: EventCatalog, window: float):
        ids, table = log.codes()
        self.times = log.timestamps
        self.window = window
        fatal = catalog.fatal_codes
        is_fatal = np.fromiter(map(fatal.__contains__, table), bool, len(table))
        fatal_rows = np.flatnonzero(is_fatal[ids])
        self.fatal_rows = fatal_rows.tolist()
        self.fatal_times = self.times[fatal_rows]
        self.fatal_codes = [table[c] for c in ids[fatal_rows].tolist()]
        self.fatal = {code for code, f in zip(table, is_fatal) if f}
        order = np.argsort(ids, kind="stable")
        ends = np.cumsum(np.bincount(ids, minlength=len(table))).tolist()
        self.rows: dict[str, np.ndarray] = {}
        start = 0
        for code, end in zip(table, ends):
            if end > start:
                self.rows[code] = order[start:end]
            start = end
        self._times: dict[str, np.ndarray] = {}
        self._horizons: dict[str, np.ndarray] = {}
        self._present: dict[tuple[str, str], np.ndarray] = {}

    def times_of(self, code: str) -> np.ndarray:
        times = self._times.get(code)
        if times is None:
            times = self._times[code] = self.times[self.rows[code]]
        return times

    def horizons_of(self, code: str) -> np.ndarray:
        """Per event of ``code``: the oldest time the predictor's monitoring
        set still holds when it arrives (``t - window``, as ``_prune``
        computes it)."""
        horizons = self._horizons.get(code)
        if horizons is None:
            horizons = self._horizons[code] = self.times_of(code) - self.window
        return horizons

    def present(self, code: str, other: str) -> np.ndarray:
        """Per event of ``code``: whether an event of ``other`` sits at an
        earlier row within the window."""
        mask = self._present.get((code, other))
        if mask is None:
            prior = self.rows[other]
            # The last earlier row of ``other`` (the two codes' rows are
            # disjoint, so the side does not matter); -1 when none.
            last = np.searchsorted(prior, self.rows[code]) - 1
            mask = (last >= 0) & (
                self.times[prior[last]] >= self.horizons_of(code)
            )
            self._present[(code, other)] = mask
        return mask

    def completions(self, antecedent: frozenset[str]) -> np.ndarray:
        """Ascending times at which the association expert completes
        ``antecedent``: events of its non-fatal codes (a failure takes the
        statistical branch) whose other codes are all present."""
        if not all(code in self.rows for code in antecedent):
            return _EMPTY
        parts = []
        for code in antecedent:
            if code in self.fatal:
                continue
            ok = None
            for other in antecedent:
                if other != code:
                    mask = self.present(code, other)
                    ok = mask if ok is None else ok & mask
            times = self.times_of(code)
            parts.append(times if ok is None else times[ok])
        if len(parts) == 1:
            return parts[0]
        return np.sort(np.concatenate(parts)) if parts else _EMPTY

    def counts(self, rule: CountRule) -> np.ndarray:
        """Ascending times at which the count expert sees ``rule.count``
        events of its code within both the rule's window and the
        predictor's (a failure code never reaches the count expert)."""
        code = rule.code
        if code in self.fatal or code not in self.rows:
            return _EMPTY
        times = self.times_of(code)
        cutoff = np.maximum(self.horizons_of(code), times - rule.window)
        earlier = np.arange(len(times)) - np.searchsorted(times, cutoff)
        return times[earlier + 1 >= rule.count]


def _refractory(parts: list[np.ndarray], refractory: float) -> np.ndarray:
    """The candidate firings of one rule key, ``parts`` each ascending,
    that pass the predictor's refractory test: a candidate fires when
    nothing has fired yet or ``t - last >= refractory``.

    When every gap passes the test, every candidate fires; otherwise one
    step per firing: a bisection finds the next candidate past the
    refractory, then steps to the test's exact boundary.
    """
    times = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
    if len(times) < 2 or (np.diff(times) >= refractory).all():
        return times
    candidates = times.tolist()
    n = len(candidates)
    kept = []
    i = 0
    while i < n:
        last = candidates[i]
        kept.append(last)
        j = bisect_left(candidates, last + refractory, i + 1)
        while j > i + 1 and candidates[j - 1] - last >= refractory:
            j -= 1
        while j < n and candidates[j] - last < refractory:
            j += 1
        i = j
    return np.array(kept, dtype=np.float64)


def _due_events(
    predictor: Predictor, quantile: float, log: EventLog, columns: _Columns
) -> Iterator[RASEvent]:
    """The events of ``log`` a replay of ``predictor`` (statistical and
    distribution rules only, the smallest fitted ``quantile``) cannot
    skip: every failure, and the events at or past the instant the
    distribution timer could fire.  Between those, an event only moves
    the clock.  Drawn lazily, as the replay's state moves that instant.
    """
    times = columns.times.tolist()
    fatal_rows = columns.fatal_rows
    n = len(times)
    row = 0
    while row < n:
        f = bisect_left(fatal_rows, row)
        due = fatal_rows[f] if f < len(fatal_rows) else n
        floor = predictor._timer_floor()
        if floor != math.inf:
            # ``_distribution_due`` compares ``now - last_fatal`` with the
            # quantile, which can round up to it a few ulps before
            # ``last_fatal + quantile`` does.
            last_fatal = predictor.state.last_fatal_time
            slack = 2.0 * (math.ulp(last_fatal + quantile) + math.ulp(quantile))
            due = min(due, bisect_left(times, floor - slack, row))
        if due >= n:
            return
        yield log.event(due)
        row = due + 1
