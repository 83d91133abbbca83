"""Oracle for the predictor's hot-path gates.

:class:`Predictor` skips work an event cannot trigger: ``feed`` enters
``catch_up`` only when the distribution timer could fire before the
event, and ``observe`` consults each expert only when its precondition
holds.  :class:`UngatedPredictor` keeps the ungated step — every event
runs the timer loop and every expert, and each expert answers ``[]``
when it has nothing to do — as a reference.  Random rule sets over
random streams must give identical warnings and an identical
``state_snapshot()`` after every event, also across ``restore_state``.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import Predictor
from repro.learners.rules import (
    AssociationRule,
    CountRule,
    DistributionRule,
    StatisticalRule,
)
from repro.raslog.catalog import default_catalog
from repro.raslog.events import Severity
from tests.conftest import make_event

CATALOG = default_catalog()
# A small alphabet, so that codes repeat within a window.
NONFATAL = [t.code for t in CATALOG.nonfatal_types()[:3]]
FATAL = [t.code for t in CATALOG.fatal_types()[:2]]
WINDOW = 300.0
#: gaps and quantiles on and just off the tick grid, the window and the
#: refractory periods, so that events land right at a gate's boundary
EDGES = [0.0, 1.0, 59.0, 60.0, 61.0, 100.0, 299.0, 300.0, 301.0, 900.0, 1000.0]


class UngatedPredictor(Predictor):
    """The predictor's per-event step without any gate: a reference."""

    def _rebuild_tracking(self) -> None:
        self._refractory_sweep_at = float("-inf")
        if not self._compiled:
            return
        self._acounts = {}
        self._ctimes = {c: deque() for c in self.count_rules}
        for t, code in self.state.monitoring:
            self._track_append(t, code)

    def _track_append(self, t: float, code: str) -> None:
        if code in self._acount_codes:
            self._acounts[code] = self._acounts.get(code, 0) + 1
        times = self._ctimes.get(code)
        if times is not None:
            times.append(t)

    def _match_association(self, event):
        if event.entry_data not in self.e_list:
            return []
        return super()._match_association(event)

    def _match_count(self, event):
        if not self.count_rules.get(event.entry_data):
            return []
        return super()._match_count(event)

    def _check_distribution(self, now):
        if not self.distribution_rules:
            return []
        if self.state.last_fatal_time is None:
            return []
        if now < self.state.dist_next_allowed:
            return []
        return super()._check_distribution(now)

    def prime(self, events, now=None):
        state = self.state
        for event in events:
            t = event.timestamp
            if t < state.clock:
                raise ValueError("priming events must arrive in time order")
            state.clock = t
            code = event.entry_data
            if code in self.catalog.fatal_codes:
                state.recent_fatals.append(t)
                state.last_fatal_time = t
                state.dist_next_allowed = t
            state.monitoring.append((t, code))
            if self._compiled:
                self._track_append(t, code)
        if now is not None:
            if now < state.clock:
                raise ValueError("clock moved backwards")
            state.clock = now
        self._prune(state.clock)

    def advance(self, now):
        if now < self.state.clock:
            raise ValueError("clock moved backwards")
        self.state.clock = now
        self._prune(now)
        return self._check_distribution(now)

    def observe(self, event):
        now = event.timestamp
        if now < self.state.clock:
            raise ValueError("events must arrive in time order")
        self.state.clock = now
        self._prune(now)
        code = event.entry_data
        warnings = []
        if code in self.catalog.fatal_codes:
            self.state.recent_fatals.append(now)
            warnings.extend(self._match_statistical(event))
            self.state.last_fatal_time = now
            self.state.dist_next_allowed = now
        else:
            warnings.extend(self._match_association(event))
            warnings.extend(self._match_count(event))
        self.state.monitoring.append((now, code))
        if self._compiled:
            self._track_append(now, code)
        if self.ensemble == "experts":
            if not warnings:
                warnings.extend(self._check_distribution(now))
        else:
            warnings.extend(self._check_distribution(now))
        if self.ensemble == "weighted":
            warnings = [
                w
                for w in warnings
                if self.rule_weights.get(w.rule_key, 0.5) >= self.weight_threshold
            ]
        return warnings

    def _next_timer_fire(self, tick):
        if not self.distribution_rules or self.state.last_fatal_time is None:
            return None
        earliest_cross = self.state.last_fatal_time + min(
            r.quantile_time for r in self.distribution_rules
        )
        t = max(earliest_cross, self.state.dist_next_allowed, self.state.clock)
        grid = -(-t // tick) * tick
        return max(grid, t)

    def feed(self, event, tick=60.0):
        warnings = []
        if tick is not None:
            warnings.extend(self.catch_up(event.timestamp, tick))
        warnings.extend(self.observe(event))
        return warnings

    def catch_up(self, until, tick):
        warnings = []
        checked = None
        while True:
            t = self._next_timer_fire(tick)
            if t is None:
                break
            if checked is not None and t <= checked:
                t = checked + tick
            if t >= until:
                break
            warnings.extend(self.advance(t))
            checked = t
        return warnings


@st.composite
def rule_sets(draw):
    rules = []
    for _ in range(draw(st.integers(0, 4))):
        antecedent = draw(st.sets(st.sampled_from(NONFATAL), min_size=1, max_size=3))
        rules.append(
            AssociationRule(
                antecedent=frozenset(antecedent),
                consequent=draw(st.sampled_from(FATAL)),
                support=0.1,
                confidence=0.9,
            )
        )
    for k in draw(st.sets(st.integers(2, 4), max_size=2)):
        rules.append(
            StatisticalRule(
                k=k,
                window=draw(st.sampled_from([100.0, 300.0, 900.0])),
                probability=0.9,
            )
        )
    quantiles = st.one_of(st.sampled_from(EDGES[3:]), st.floats(50.0, 4000.0))
    for q in draw(st.sets(quantiles, max_size=2)):
        rules.append(
            DistributionRule(
                distribution="weibull",
                params=(1.0, 1000.0),
                threshold=0.6,
                quantile_time=q,
            )
        )
    for code in draw(st.sets(st.sampled_from(NONFATAL), max_size=2)):
        rules.append(
            CountRule(
                code=code,
                count=draw(st.integers(2, 4)),
                window=draw(st.sampled_from([100.0, 300.0, 900.0])),
                consequent=draw(st.sampled_from(FATAL)),
                support=0.1,
                confidence=0.5,
            )
        )
    return rules


@st.composite
def streams(draw):
    """Events whose gaps cross the window, the refractory sweep and the
    fitted quantiles: bursts, window-sized steps and long silences."""
    gaps = draw(
        st.lists(
            st.one_of(
                st.sampled_from(EDGES),
                st.floats(0.0, 30.0),
                st.floats(30.0, 2 * WINDOW),
                st.floats(2 * WINDOW, 6000.0),
            ),
            min_size=10,
            max_size=80,
        )
    )
    t = 0.0
    events = []
    for i, gap in enumerate(gaps):
        t += gap
        code = draw(st.sampled_from(NONFATAL + FATAL))
        severity = Severity.FATAL if code in FATAL else Severity.INFO
        events.append(make_event(t, code, severity=severity, record_id=i))
    return events


def _pair(rules, ensemble, indexing, refractory):
    weights = {r.key: (i % 3) / 2 for i, r in enumerate(rules)}
    kwargs = dict(
        window=WINDOW,
        catalog=CATALOG,
        ensemble=ensemble,
        refractory=refractory,
        rule_weights=weights,
        indexing=indexing,
    )
    return Predictor(rules, **kwargs), UngatedPredictor(rules, **kwargs)


def _feed_both(gated, ungated, events, tick):
    for event in events:
        assert gated.feed(event, tick) == ungated.feed(event, tick)
        assert gated.state_snapshot() == ungated.state_snapshot()


class TestGatesMatchUngated:
    @settings(max_examples=300, deadline=None)
    @given(
        rule_sets(),
        streams(),
        st.sampled_from(["experts", "union", "weighted"]),
        st.sampled_from([None, 60.0]),
        st.sampled_from(["compiled", "scan"]),
        st.sampled_from([None, 100.0, 900.0]),
        st.integers(0, 60),
        st.integers(0, 60),
        st.booleans(),
    )
    def test_same_warnings_and_state(
        self, rules, events, ensemble, tick, indexing, refractory, primed,
        cut, fresh,
    ):
        gated, ungated = _pair(rules, ensemble, indexing, refractory)
        head, events = events[:primed], events[primed:]
        gated.prime(head)
        ungated.prime(head)
        assert gated.state_snapshot() == ungated.state_snapshot()
        _feed_both(gated, ungated, events[:cut], tick)

        # Restore the snapshot into a fresh predictor of each kind, or
        # back into the ones that took it.
        snapshot = gated.state_snapshot()
        if fresh:
            gated, ungated = _pair(rules, ensemble, indexing, refractory)
        gated.restore_state(snapshot)
        ungated.restore_state(snapshot)
        _feed_both(gated, ungated, events[cut:], tick)

        if tick is not None:
            end = (events[-1].timestamp if events else 0.0) + 10_000.0
            assert gated.catch_up(end, tick) == ungated.catch_up(end, tick)
            assert gated.state_snapshot() == ungated.state_snapshot()

    def test_restore_rearms_refractory_sweep(self):
        """A predictor restored in place sweeps stale refractory stamps
        on its next event, like a fresh one: the sweep's schedule is not
        part of the snapshot."""
        rule = AssociationRule(
            antecedent=frozenset({NONFATAL[0]}),
            consequent=FATAL[0],
            support=0.1,
            confidence=0.9,
        )
        gated, ungated = _pair([rule], "experts", "compiled", 100.0)
        head = [make_event(0.0, NONFATAL[0]), make_event(50.0, NONFATAL[0])]
        _feed_both(gated, ungated, head, None)
        snapshot = gated.state_snapshot()
        assert snapshot["last_fired"]
        gated.restore_state(snapshot)
        ungated.restore_state(snapshot)
        _feed_both(gated, ungated, [make_event(120.0, NONFATAL[1])], None)
        assert gated.state_snapshot()["last_fired"] == []

    def test_reference_is_ungated(self):
        """The oracle really takes the ungated path: a predictor without
        rules still reaches every expert on every event."""
        ungated = UngatedPredictor([], WINDOW, CATALOG)
        calls = []
        ungated._check_distribution = lambda now: calls.append(now) or []
        ungated.feed(make_event(10.0, NONFATAL[0]))
        assert calls == [10.0]
