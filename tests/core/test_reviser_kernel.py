"""The reviser's columnar scoring against the union-mode replay it
replaced (:func:`tests.oracles.reviser_score`).

Random rule sets of all four kinds — with duplicate keys, antecedents
that hold failure codes or codes the stream never shows, count rules
that share a key across windows — over random streams with equal
timestamps, gaps of exactly the window, and empty logs: every rule must
get the oracle's score.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knowledge import RuleRecord
from repro.core.reviser import Reviser
from repro.evaluation.matching import RuleScore
from repro.learners.rules import (
    AssociationRule,
    CountRule,
    DistributionRule,
    StatisticalRule,
)
from repro.raslog.events import Severity
from repro.raslog.store import EventLog, RowColumns
from tests import oracles
from tests.conftest import make_event
from tests.core.test_predictor_gates import (
    CATALOG,
    FATAL,
    NONFATAL,
    WINDOW,
    rule_sets,
    streams,
)

#: a catalog code that the streams never show
UNSEEN = CATALOG.nonfatal_types()[5].code


@st.composite
def scored_rule_sets(draw):
    rules = draw(rule_sets())
    codes = NONFATAL + FATAL + [UNSEEN]
    for _ in range(draw(st.integers(0, 3))):
        consequent = draw(st.sampled_from(FATAL))
        others = [c for c in codes if c != consequent]
        antecedent = draw(st.sets(st.sampled_from(others), min_size=1, max_size=3))
        rules.append(
            AssociationRule(
                antecedent=frozenset(antecedent),
                consequent=consequent,
                support=0.1,
                confidence=0.9,
            )
        )
    for _ in range(draw(st.integers(0, 2))):
        consequent = draw(st.sampled_from(FATAL))
        code = draw(st.sampled_from([c for c in codes if c != consequent]))
        for window in draw(st.sets(st.sampled_from([100.0, 300.0, 900.0]), min_size=1)):
            # One key, several windows: the rules share a refractory stamp.
            rules.append(
                CountRule(
                    code=code,
                    count=2,
                    window=window,
                    consequent=consequent,
                    support=0.1,
                    confidence=0.5,
                )
            )
    if draw(st.booleans()):
        rules.append(StatisticalRule(k=2, window=300.0, probability=0.9))
    if rules:
        # Duplicates of drawn rules, each keyed like its original.
        rules.extend(draw(st.lists(st.sampled_from(rules), max_size=3)))
    return draw(st.permutations(rules))


@st.composite
def grid_streams(draw):
    """Events on a 100 s grid, so that precursors exactly one window old
    and candidates exactly one refractory apart are common."""
    gaps = draw(st.lists(st.sampled_from([0.0, 100.0, 200.0, WINDOW]), max_size=40))
    t = 0.0
    events = []
    for i, gap in enumerate(gaps):
        t += gap
        code = draw(st.sampled_from(NONFATAL + FATAL))
        severity = Severity.FATAL if code in FATAL else Severity.INFO
        events.append(make_event(t, code, severity=severity, record_id=i))
    return events


def _record(rule) -> RuleRecord:
    return RuleRecord(rule=rule, learner=rule.kind, trained_at_week=0)


class TestKernelMatchesReplay:
    @settings(max_examples=400, deadline=None)
    @given(
        scored_rule_sets(),
        st.one_of(grid_streams(), streams()),
        st.sampled_from([None, 60.0]),
        st.booleans(),
    )
    def test_same_scores(self, rules, events, tick, columnar):
        log = EventLog(events, _presorted=True)
        if columnar:
            log = EventLog.from_columns(RowColumns.of_events(events), origin=0.0)
        records = [_record(rule) for rule in rules]
        reviser = Reviser(catalog=CATALOG, tick=tick)
        got = reviser.score(records, log, WINDOW)
        want = oracles.reviser_score(reviser, records, log, WINDOW)
        assert got == want
        assert list(got) == list(dict.fromkeys(r.key for r in records))

    def test_edges(self):
        """Firings exactly one window apart pass the refractory test; a
        precursor exactly one window old still completes a rule; a failure
        code in the antecedent completes it but never triggers it."""
        a, b = NONFATAL[:2]
        f, g = FATAL
        events = [
            make_event(0.0, a),
            make_event(300.0, b),  # a is exactly WINDOW old: fires
            make_event(300.0, g, record_id=1),
            make_event(600.0, b),  # a at 0 expired: nothing
            make_event(600.0, a),  # b at the same instant, an earlier row
            make_event(700.0, f),
            make_event(800.0, a),  # g expired
        ]
        rules = [
            AssociationRule(frozenset({a, b}), f, 0.1, 0.9),
            AssociationRule(frozenset({a, g}), f, 0.1, 0.9),
            AssociationRule(frozenset({UNSEEN}), f, 0.1, 0.9),
        ]
        records = [_record(rule) for rule in rules]
        reviser = Reviser(catalog=CATALOG)
        log = EventLog(events, _presorted=True)
        got = reviser.score(records, log, WINDOW)
        assert got == oracles.reviser_score(reviser, records, log, WINDOW)
        # {a, b} fires at 300 and 600 and sees the failure at 700 once.
        assert (got[rules[0].key].tp, got[rules[0].key].fp) == (1, 1)
        # {a, g} fires only on a (at 600, g 300 s old; at 800 g is gone).
        assert (got[rules[1].key].tp, got[rules[1].key].fp) == (1, 0)
        assert got[rules[2].key] == RuleScore()

    def test_distribution_due_before_its_rounded_floor(self):
        """``now - last_fatal >= quantile`` can hold an ulp before
        ``last_fatal + quantile``: 364.09999999999997 - 64.1 >= 300, while
        64.1 + 300 rounds to 364.1.  The event there must still be fed."""
        rule = DistributionRule("weibull", (1.0, 1000.0), 0.6, 300.0)
        events = [
            make_event(64.1, FATAL[0], record_id=0),
            make_event(364.09999999999997, NONFATAL[0], record_id=1),
            make_event(400.0, FATAL[0], record_id=2),
        ]
        log = EventLog(events, _presorted=True)
        for tick in (None, 60.0):
            reviser = Reviser(catalog=CATALOG, tick=tick)
            got = reviser.score([_record(rule)], log, WINDOW)
            assert got == oracles.reviser_score(
                reviser, [_record(rule)], log, WINDOW
            )
            assert got[rule.key].tp == 1
