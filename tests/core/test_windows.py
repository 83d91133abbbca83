"""Unit tests for training-window policies (Figure 9)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.windows import (
    TrainingPolicy,
    dynamic_months,
    dynamic_whole,
    static_initial,
)


class TestPolicies:
    def test_growing_uses_all_history(self):
        policy = dynamic_whole()
        assert policy.window(32) == (0, 32)
        assert policy.retrains

    def test_sliding_six_months(self):
        policy = dynamic_months(6)
        assert policy.length_weeks == 26  # 6 * 30 / 7 rounded
        assert policy.window(32) == (6, 32)
        assert policy.retrains

    def test_sliding_three_months(self):
        policy = dynamic_months(3)
        assert policy.length_weeks == 13
        assert policy.window(32) == (19, 32)

    def test_sliding_clamps_at_zero(self):
        assert dynamic_months(6).window(10) == (0, 10)

    def test_static_fixed_window(self):
        policy = static_initial(6)
        assert not policy.retrains
        assert policy.window(10) == (0, 10)
        assert policy.window(26) == (0, 26)
        assert policy.window(100) == (0, 26)

    def test_paper_example_week32_six_months(self):
        # "in the 32nd week, the data in the previous 26 weeks is used"
        assert dynamic_months(6).window(32) == (32 - 26, 32)


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            TrainingPolicy(kind="random")

    def test_bad_length(self):
        with pytest.raises(ValueError, match="length_weeks"):
            TrainingPolicy(kind="sliding", length_weeks=0)

    def test_bad_months(self):
        with pytest.raises(ValueError):
            dynamic_months(0)
        with pytest.raises(ValueError):
            static_initial(-1)

    def test_negative_week(self):
        with pytest.raises(ValueError, match="current_week"):
            dynamic_whole().window(-1)


class TestProperties:
    @given(
        st.sampled_from(["growing", "sliding", "static"]),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=500),
    )
    def test_window_always_valid(self, kind, length, week):
        policy = TrainingPolicy(kind=kind, length_weeks=length)
        start, end = policy.window(week)
        assert 0 <= start <= end <= week

    @given(st.integers(min_value=1, max_value=24), st.integers(min_value=30, max_value=300))
    def test_sliding_window_has_fixed_length(self, months, week):
        policy = dynamic_months(months)
        start, end = policy.window(week)
        if week >= policy.length_weeks:
            assert end - start == policy.length_weeks
        else:
            assert start == 0
