"""Per-rule window semantics and scan/compiled index equivalence.

Regression tests for two families of behavior:

* count and statistical rules carry their *own* mined ``window`` — the
  matcher must threshold occurrences by ``now - t <= rule.window``, not
  by whatever happens to remain in the Wp-bounded deques (the old code
  counted the whole deque, firing rules whose burst was long over);
* the predictor's compiled hash-joined matching indices are invisible —
  warning-for-warning identical to :class:`ScanPredictor`, which matches
  by scanning the monitoring set as Algorithm 2 states it, including
  across snapshot/restore.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import Predictor
from repro.learners.rules import (
    ANY_FAILURE,
    AssociationRule,
    CountRule,
    StatisticalRule,
)
from repro.raslog.events import Severity
from tests.conftest import make_event
from tests.core.test_predictor_gates import CATALOG, rule_sets, streams

FATAL = "KERNEL-F-000"
FATAL2 = "KERNEL-F-001"
W1, W2, W3 = "KERNEL-N-002", "KERNEL-N-003", "KERNEL-N-004"



class ScanPredictor(Predictor):
    """Reference matcher: Algorithm 2's per-event scans of the
    monitoring set, in place of the compiled per-code indices."""

    def _match_association(self, event):
        code = event.entry_data
        recent_codes = {c for _, c in self.state.monitoring}
        recent_codes.add(code)
        warnings = []
        for fatal_code in sorted(self.e_list[code]):
            for rule in self.f_list[fatal_code]:
                if code in rule.antecedent and rule.antecedent <= recent_codes:
                    w = self._fire(
                        event.timestamp, fatal_code, rule.key, "association"
                    )
                    if w is not None:
                        warnings.append(w)
        return warnings

    def _match_count(self, event):
        code = event.entry_data
        now = event.timestamp
        warnings = []
        for rule in self.count_rules[code]:
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


MATCHERS = pytest.mark.parametrize(
    "matcher", [ScanPredictor, Predictor], ids=["scan", "compiled"]
)


def assoc(antecedent, consequent=FATAL):
    return AssociationRule(
        antecedent=frozenset(antecedent),
        consequent=consequent,
        support=0.1,
        confidence=0.9,
    )


def stat(k, window=300.0):
    return StatisticalRule(k=k, window=window, probability=0.9)


def count_rule(code=W1, count=3, window=60.0, consequent=FATAL):
    return CountRule(
        code=code,
        count=count,
        window=window,
        consequent=consequent,
        support=0.1,
        confidence=0.9,
    )


def fatal_event(t, code=FATAL):
    return make_event(t, code, severity=Severity.FATAL)


def warn_event(t, code=W1):
    return make_event(t, code, severity=Severity.WARNING)


@MATCHERS
class TestCountRuleWindow:
    """A count rule's own window bounds its counting, not Wp."""

    def test_spread_occurrences_do_not_fire(self, catalog, matcher):
        # 3 occurrences inside Wp=300 but never 3 inside the rule's 60 s.
        p = matcher([count_rule(count=3, window=60.0)], 300.0, catalog)
        warnings = []
        for t in (0.0, 100.0, 200.0):
            warnings += p.observe(warn_event(t))
        assert warnings == []

    def test_burst_within_rule_window_fires(self, catalog, matcher):
        p = matcher([count_rule(count=3, window=60.0)], 300.0, catalog)
        warnings = []
        for t in (0.0, 20.0, 40.0):
            warnings += p.observe(warn_event(t))
        assert [w.predicted for w in warnings] == [FATAL]
        assert warnings[0].time == 40.0

    def test_stale_head_then_fresh_burst(self, catalog, matcher):
        # An old occurrence still inside Wp must not pad the rule count.
        p = matcher([count_rule(count=3, window=60.0)], 300.0, catalog)
        warnings = []
        for t in (0.0, 250.0, 270.0):
            warnings += p.observe(warn_event(t))
        assert warnings == []
        # ... but completing the burst inside the rule window fires.
        warnings += p.observe(warn_event(290.0))
        assert [w.predicted for w in warnings] == [FATAL]


@MATCHERS
class TestStatisticalRuleWindow:
    def test_spread_failures_do_not_fire(self, catalog, matcher):
        # 2 fatals inside Wp=300 but 200 s apart: a k=2/60 s rule stays
        # silent (the old matcher counted the whole recent_fatals deque).
        p = matcher([stat(2, window=60.0)], 300.0, catalog)
        warnings = []
        for t in (0.0, 200.0):
            warnings += p.observe(fatal_event(t))
        assert warnings == []

    def test_burst_within_rule_window_fires(self, catalog, matcher):
        p = matcher([stat(2, window=60.0)], 300.0, catalog)
        warnings = []
        for t in (0.0, 30.0):
            warnings += p.observe(fatal_event(t))
        assert [w.predicted for w in warnings] == [ANY_FAILURE]

    def test_most_specific_k_wins(self, catalog, matcher):
        # Both k=2/300s and k=3/60s hold: the larger satisfied k is the
        # expert that fires.
        p = matcher(
            [stat(2, window=300.0), stat(3, window=60.0)],
            300.0,
            catalog,
            refractory=0.0,
        )
        warnings = []
        for t in (0.0, 20.0, 40.0):
            warnings += p.observe(fatal_event(t))
        assert warnings[-1].rule_key == ("stat", 3, 60.0)


RULES = [
    assoc({W1, W2}),
    assoc({W1}, consequent=FATAL2),
    assoc({W2, W3}, consequent=FATAL2),
    stat(2, window=80.0),
    stat(3, window=300.0),
    count_rule(code=W3, count=3, window=120.0),
]


def _random_stream(seed, n=400):
    rng = random.Random(seed)
    codes = [W1, W2, W3, "KERNEL-N-005", FATAL, FATAL2]
    weights = [5, 4, 6, 8, 2, 1]
    t = 0.0
    events = []
    for _ in range(n):
        t += rng.choice((1.0, 5.0, 30.0, 200.0))
        code = rng.choices(codes, weights)[0]
        severity = (
            Severity.FATAL if code in (FATAL, FATAL2) else Severity.WARNING
        )
        events.append(make_event(t, code, severity=severity))
    return events


class TestScanCompiledEquivalence:
    """The compiled indices must be warning-for-warning invisible."""

    @pytest.mark.parametrize("seed", range(5))
    def test_identical_warning_stream(self, catalog, seed):
        scan = ScanPredictor(RULES, 300.0, catalog)
        compiled = Predictor(RULES, 300.0, catalog)
        for event in _random_stream(seed):
            assert compiled.observe(event) == scan.observe(event)

    def test_equivalence_across_snapshot_restore(self, catalog):
        scan = ScanPredictor(RULES, 300.0, catalog)
        compiled = Predictor(RULES, 300.0, catalog)
        stream = _random_stream(99)
        for event in stream[:200]:
            assert compiled.observe(event) == scan.observe(event)
        # Restore a fresh compiled predictor mid-stream: the derived
        # tracking (occurrence counts, per-code deques) must be rebuilt
        # from the snapshot, not lost.
        resumed = Predictor(RULES, 300.0, catalog)
        resumed.restore_state(compiled.state_snapshot())
        for event in stream[200:]:
            assert resumed.observe(event) == scan.observe(event)

    @settings(max_examples=200, deadline=None)
    @given(
        rule_sets(),
        streams(),
        st.sampled_from(["experts", "union", "weighted"]),
        st.sampled_from([None, 60.0]),
    )
    def test_random_rules_and_streams(self, rules, events, ensemble, tick):
        kwargs = dict(window=300.0, catalog=CATALOG, ensemble=ensemble)
        scan = ScanPredictor(rules, **kwargs)
        compiled = Predictor(rules, **kwargs)
        for event in events:
            assert compiled.feed(event, tick) == scan.feed(event, tick)
            assert compiled.state_snapshot() == scan.state_snapshot()


class TestLastFiredBounded:
    def test_stale_refractory_stamps_pruned(self, catalog):
        p = Predictor([assoc({W1})], 300.0, catalog)
        p.observe(warn_event(0.0))
        assert len(p.state.last_fired) == 1
        # Quiet stretch far past the refractory: the amortized sweep in
        # _prune must drop the stamp (it can never suppress again).
        p.observe(warn_event(10_000.0, code=W2))
        p.observe(warn_event(20_000.0, code=W2))
        assert len(p.state.last_fired) <= 1
        p.observe(warn_event(30_000.0, code=W2))
        assert FATAL not in {k[1] for k in p.state.last_fired}

    def test_bounded_over_many_fires(self, catalog):
        # One firing rule re-triggered over simulated weeks: the map
        # holds the live stamp, not one entry per firing.
        p = Predictor([assoc({W1})], 300.0, catalog)
        for day in range(100):
            p.observe(warn_event(day * 86_400.0))
        assert len(p.state.last_fired) == 1
