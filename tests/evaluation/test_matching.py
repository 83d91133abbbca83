"""Unit and property tests for warning/failure matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alerts import FailureWarning
from repro.evaluation.matching import (
    extract_failures,
    match_warnings,
    score_rules,
)
from repro.learners.rules import ANY_FAILURE
from repro.raslog.events import Severity
from tests import oracles
from tests.conftest import make_log


def warning(t, predicted=ANY_FAILURE, window=300.0, key=("k",), learner="x"):
    return FailureWarning(
        time=t, predicted=predicted, window=window, rule_key=key, learner=learner
    )


class TestMatchWarnings:
    def test_hit_inside_window(self):
        result = match_warnings([warning(100.0)], np.array([250.0]))
        assert result.true_positives == 1
        assert result.covered_failures == 1
        assert result.precision == 1.0 and result.recall == 1.0

    def test_miss_outside_window(self):
        result = match_warnings([warning(100.0)], np.array([500.0]))
        assert result.true_positives == 0
        assert result.false_positives == 1
        assert result.false_negatives == 1

    def test_boundaries(self):
        # (t, t + Wp]: a failure exactly at the warning time doesn't count,
        # one exactly at the deadline does
        at_time = match_warnings([warning(100.0)], np.array([100.0]))
        assert at_time.true_positives == 0
        at_deadline = match_warnings([warning(100.0)], np.array([400.0]))
        assert at_deadline.true_positives == 1

    def test_typed_warning_needs_matching_code(self):
        times = np.array([200.0])
        hit = match_warnings(
            [warning(100.0, predicted="F1")], times, fatal_codes=["F1"]
        )
        miss = match_warnings(
            [warning(100.0, predicted="F1")], times, fatal_codes=["F2"]
        )
        assert hit.true_positives == 1
        assert miss.true_positives == 0
        assert miss.covered_failures == 0

    def test_untyped_matching_without_codes(self):
        result = match_warnings([warning(100.0, predicted="F1")], np.array([200.0]))
        assert result.true_positives == 1  # no codes -> any failure matches

    def test_one_warning_covers_multiple_failures(self):
        result = match_warnings([warning(100.0)], np.array([150.0, 200.0, 250.0]))
        assert result.true_positives == 1
        assert result.covered_failures == 3
        assert result.recall == 1.0

    def test_multiple_warnings_one_failure(self):
        result = match_warnings(
            [warning(100.0), warning(150.0)], np.array([200.0])
        )
        assert result.true_positives == 2
        assert result.precision == 1.0
        assert result.covered_failures == 1

    def test_unsorted_fatal_times_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            match_warnings([], np.array([5.0, 1.0]))

    def test_code_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            match_warnings([], np.array([1.0]), fatal_codes=[])

    def test_empty_everything(self):
        result = match_warnings([], np.array([]))
        assert result.precision == 0.0
        assert result.recall == 0.0

    def test_per_warning_window_respected(self):
        short = warning(100.0, window=50.0)
        long = warning(100.0, window=5000.0, key=("k2",))
        result = match_warnings([short, long], np.array([1000.0]))
        assert list(result.matched) == [False, True]


class TestExtractFailures:
    def test_extracts_fatal_codes(self, catalog):
        log = make_log(
            [
                (1.0, "KERNEL-F-000", {"severity": Severity.FATAL}),
                (2.0, "KERNEL-N-000", {"severity": Severity.INFO}),
                (3.0, "KERNEL-F-001", {"severity": Severity.FATAL}),
            ]
        )
        times, codes = extract_failures(log, catalog)
        assert list(times) == [1.0, 3.0]
        assert codes == ["KERNEL-F-000", "KERNEL-F-001"]


class TestScoreRules:
    def test_groups_by_rule_key(self):
        warnings = [
            warning(100.0, key=("good",)),
            warning(600.0, key=("good",)),
            warning(5000.0, key=("bad",)),
        ]
        times = np.array([200.0, 700.0])
        codes = ["KERNEL-F-000", "KERNEL-F-000"]
        scores = score_rules(warnings, times, codes)
        assert scores[("good",)].tp == 2
        assert scores[("good",)].fp == 0
        assert scores[("good",)].fn == 0
        assert scores[("bad",)].tp == 0
        assert scores[("bad",)].fp == 1
        assert scores[("bad",)].fn == 2  # covered none of the two failures

    def test_typed_rule_targets_only_its_type(self):
        warnings = [warning(100.0, predicted="KERNEL-F-000", key=("t",))]
        times = np.array([200.0, 10_000.0, 20_000.0])
        codes = ["KERNEL-F-000", "KERNEL-F-001", "KERNEL-F-000"]
        scores = score_rules(warnings, times, codes)
        s = scores[("t",)]
        assert s.tp == 1
        assert s.covered == 1
        assert s.fn == 1  # the other F-000 at t=20000; F-001 not a target

    def test_m1_m2_roc(self):
        warnings = [warning(100.0, key=("r",)), warning(5000.0, key=("r",))]
        times = np.array([200.0, 20_000.0])
        codes = ["KERNEL-F-000"] * 2
        s = score_rules(warnings, times, codes)[("r",)]
        assert s.m1 == pytest.approx(0.5)  # 1 of 2 warnings matched
        assert s.m2 == pytest.approx(0.5)  # covered 1 of 2 failures
        assert s.roc == pytest.approx(np.hypot(0.5, 0.5))


@st.composite
def warning_batches(draw):
    n_w = draw(st.integers(min_value=0, max_value=20))
    n_f = draw(st.integers(min_value=0, max_value=20))
    warnings = [
        warning(
            draw(st.floats(min_value=0, max_value=1e5, allow_nan=False)),
            window=draw(st.floats(min_value=1.0, max_value=1e4)),
            key=(draw(st.integers(0, 3)),),
        )
        for _ in range(n_w)
    ]
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0, max_value=1e5, allow_nan=False),
                min_size=n_f,
                max_size=n_f,
            )
        )
    )
    return warnings, np.asarray(times)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(warning_batches())
    def test_confusion_counts_consistent(self, batch):
        warnings, times = batch
        result = match_warnings(warnings, times)
        assert result.true_positives + result.false_positives == len(warnings)
        assert result.covered_failures + result.false_negatives == len(times)
        assert 0.0 <= result.precision <= 1.0
        assert 0.0 <= result.recall <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(warning_batches())
    def test_matched_warning_implies_covered_failure(self, batch):
        warnings, times = batch
        result = match_warnings(warnings, times)
        for i, w in enumerate(warnings):
            if result.matched[i]:
                inside = (times > w.time) & (times <= w.deadline)
                assert result.covered[inside].all()


#: Fatal types of the oracle inputs; "F9" is predicted but never fails.
_CODES = ("F1", "F2", "F3")


@st.composite
def failure_records(draw):
    """Sorted fatal times on an integer grid (ties and empty runs
    included) with their codes."""
    times = sorted(draw(st.lists(st.integers(0, 60), max_size=20)))
    codes = [draw(st.sampled_from(_CODES)) for _ in times]
    return np.array(times, dtype=np.float64), codes


@st.composite
def warning_streams(draw):
    """Typed and ``ANY_FAILURE`` warnings on the same grid, so that warning
    times and deadlines land on fatal times.  A rule key fixes the
    prediction, as it does for a real rule."""
    out = []
    for _ in range(draw(st.integers(0, 30))):
        predicted = draw(st.sampled_from((*_CODES, "F9", ANY_FAILURE)))
        out.append(
            warning(
                float(draw(st.integers(0, 60))),
                predicted=predicted,
                window=float(draw(st.sampled_from((1, 2, 5, 10)))),
                key=(predicted, draw(st.integers(0, 2))),
            )
        )
    return out


def _assert_same_match(got, want):
    np.testing.assert_array_equal(got.matched, want.matched)
    np.testing.assert_array_equal(got.covered, want.covered)
    assert got.matched.dtype == want.matched.dtype == bool
    assert got.covered.dtype == want.covered.dtype == bool
    assert (got.n_warnings, got.n_fatal) == (want.n_warnings, want.n_fatal)


class TestAgainstOracle:
    """The vectorized matcher against the per-warning loops it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(warning_streams(), failure_records())
    def test_match_warnings(self, warnings, record):
        times, codes = record
        _assert_same_match(
            match_warnings(warnings, times, codes),
            oracles.match_warnings(warnings, times, codes),
        )
        _assert_same_match(
            match_warnings(warnings, times),
            oracles.match_warnings(warnings, times),
        )

    @settings(max_examples=200, deadline=None)
    @given(warning_streams(), failure_records())
    def test_score_rules(self, warnings, record):
        times, codes = record
        got = score_rules(warnings, times, codes)
        want = oracles.score_rules(warnings, times, codes)
        assert list(got) == list(want)
        assert got == want

    def test_boundaries_and_no_failures(self):
        times = np.array([10.0, 10.0, 20.0])
        codes = ["F1", "F2", "F1"]
        warnings = [
            warning(10.0, "F1", window=10.0, key=("a",)),  # deadline on 20
            warning(0.0, "F2", window=10.0, key=("b",)),  # deadline on 10
            warning(10.0, ANY_FAILURE, window=5.0, key=("c",)),  # starts on 10
            warning(5.0, "F9", window=20.0, key=("d",)),
        ]
        for t, c in ((times, codes), (times[:0], [])):
            _assert_same_match(
                match_warnings(warnings, t, c),
                oracles.match_warnings(warnings, t, c),
            )
            assert score_rules(warnings, t, c) == oracles.score_rules(
                warnings, t, c
            )
        result = match_warnings(warnings, times, codes)
        assert result.matched.tolist() == [True, True, False, False]
        assert result.covered.tolist() == [False, True, True]
