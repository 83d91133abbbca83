"""Unit and property tests for the EventLog store."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.raslog.events import Facility, Severity
from repro.raslog.store import EventLog
from repro.utils.timeutil import WEEK_SECONDS
from tests.conftest import make_event, make_log


class TestConstruction:
    def test_empty(self):
        log = EventLog()
        assert len(log) == 0
        assert log.span == (0.0, 0.0)
        assert log.n_weeks == 0

    def test_sorts_by_timestamp(self):
        log = make_log([(5.0, "b"), (1.0, "a"), (3.0, "c")])
        assert [e.timestamp for e in log] == [1.0, 3.0, 5.0]

    def test_stable_sort_preserves_ties(self):
        log = make_log([(1.0, "first"), (1.0, "second")])
        assert [e.entry_data for e in log] == ["first", "second"]

    def test_timestamps_read_only(self):
        log = make_log([(1.0, "a")])
        with pytest.raises(ValueError):
            log.timestamps[0] = 99.0

    def test_repr(self):
        assert "n=0" in repr(EventLog())
        assert "n=2" in repr(make_log([(1.0, "a"), (2.0, "b")]))


class TestIndexing:
    def test_getitem_int(self):
        log = make_log([(1.0, "a"), (2.0, "b")])
        assert log[0].entry_data == "a"
        assert log[-1].entry_data == "b"

    def test_getitem_slice_returns_log(self):
        log = make_log([(1.0, "a"), (2.0, "b"), (3.0, "c")])
        sub = log[1:]
        assert isinstance(sub, EventLog)
        assert len(sub) == 2
        assert sub[0].entry_data == "b"

    def test_stepped_slice_rejected(self):
        log = make_log([(1.0, "a"), (2.0, "b"), (3.0, "c")])
        with pytest.raises(ValueError, match="contiguous"):
            log[::2]

    def test_slice_shares_origin(self):
        log = make_log([(1.0, "a"), (2.0, "b")], origin=0.5)
        assert log[1:].origin == 0.5


class TestWindows:
    def test_between_half_open(self):
        log = make_log([(1.0, "a"), (2.0, "b"), (3.0, "c")])
        sub = log.between(1.0, 3.0)
        assert [e.entry_data for e in sub] == ["a", "b"]

    def test_between_empty_interval_rejected(self):
        log = make_log([(1.0, "a")])
        with pytest.raises(ValueError, match="empty interval"):
            log.between(3.0, 1.0)

    def test_window_before(self):
        log = make_log([(1.0, "a"), (5.0, "b"), (9.0, "c")])
        sub = log.window_before(9.0, 5.0)
        assert [e.entry_data for e in sub] == ["b"]

    def test_window_before_negative_width(self):
        with pytest.raises(ValueError, match="negative"):
            make_log([(1.0, "a")]).window_before(5.0, -1.0)

    def test_week_slicing(self):
        log = make_log(
            [(10.0, "w0"), (WEEK_SECONDS + 10.0, "w1"), (2 * WEEK_SECONDS + 10.0, "w2")]
        )
        assert [e.entry_data for e in log.week(1)] == ["w1"]
        assert [e.entry_data for e in log.slice_weeks(0, 2)] == ["w0", "w1"]

    def test_slice_weeks_empty_range_rejected(self):
        with pytest.raises(ValueError):
            make_log([(1.0, "a")]).slice_weeks(3, 2)

    def test_week_respects_origin(self):
        log = make_log([(WEEK_SECONDS + 5.0, "x")], origin=WEEK_SECONDS)
        assert len(log.week(0)) == 1
        assert log.n_weeks == 1


class TestFiltering:
    def test_filter_predicate(self):
        log = make_log([(1.0, "a"), (2.0, "b")])
        assert len(log.filter(lambda e: e.entry_data == "a")) == 1

    def test_select_codes(self):
        log = make_log([(1.0, "a"), (2.0, "b"), (3.0, "a")])
        assert len(log.select_codes({"a"})) == 2

    def test_fatal_nonfatal_partition(self, catalog):
        log = make_log(
            [
                (1.0, "KERNEL-F-000", {"severity": Severity.FATAL}),
                (2.0, "KERNEL-N-000", {"severity": Severity.INFO}),
                (3.0, "unknown-code", {}),
            ]
        )
        fatal = log.fatal(catalog)
        nonfatal = log.nonfatal(catalog)
        assert [e.entry_data for e in fatal] == ["KERNEL-F-000"]
        assert len(nonfatal) == 2
        assert len(fatal) + len(nonfatal) == len(log)

    def test_split_fatal_matches_fatal_and_nonfatal(self, catalog):
        log = make_log(
            [
                (1.0, "KERNEL-F-000", {"severity": Severity.FATAL}),
                (2.0, "not-a-code", {}),
                (3.0, "KERNEL-N-000", {"severity": Severity.INFO}),
                (4.0, "KERNEL-F-000", {"severity": Severity.FATAL}),
            ],
            origin=-5.0,
        )
        fatal, nonfatal = log.split_fatal(catalog)
        for got, want in ((fatal, log.fatal(catalog)), (nonfatal, log.nonfatal(catalog))):
            assert got.events == want.events
            assert got.origin == log.origin
            np.testing.assert_array_equal(got.timestamps, want.timestamps)
            assert not got.timestamps.flags.writeable
        # unknown codes count as non-fatal
        assert [e.entry_data for e in nonfatal] == ["not-a-code", "KERNEL-N-000"]
        assert fatal.timestamps.tolist() == [1.0, 4.0]


class TestAggregation:
    def test_counts_by_facility(self):
        log = make_log(
            [
                (1.0, "a", {"facility": Facility.APP}),
                (2.0, "b", {"facility": Facility.APP}),
                (3.0, "c", {"facility": Facility.KERNEL}),
            ]
        )
        counts = log.counts_by_facility()
        assert counts[Facility.APP] == 2
        assert counts[Facility.KERNEL] == 1

    def test_counts_by_code(self):
        log = make_log([(1.0, "a"), (2.0, "a"), (3.0, "b")])
        assert log.counts_by_code() == {"a": 2, "b": 1}

    def test_daily_counts(self):
        log = make_log([(10.0, "a"), (20.0, "b"), (86400.0 + 5, "c")])
        daily = log.daily_counts()
        assert list(daily) == [2, 1]

    def test_daily_counts_empty(self):
        assert len(EventLog().daily_counts()) == 0

    def test_daily_counts_event_before_origin_rejected(self):
        log = make_log([(10.0, "a")], origin=100.0)
        with pytest.raises(ValueError, match="before its origin"):
            log.daily_counts()

    def test_interarrivals(self):
        log = make_log([(1.0, "a"), (4.0, "b"), (9.0, "c")])
        assert list(log.interarrivals()) == [3.0, 5.0]

    def test_interarrivals_short(self):
        assert len(make_log([(1.0, "a")]).interarrivals()) == 0


class TestConcat:
    def test_merges_sorted(self):
        a = make_log([(1.0, "a"), (5.0, "c")])
        b = make_log([(3.0, "b")])
        merged = EventLog.concat([a, b])
        assert [e.entry_data for e in merged] == ["a", "b", "c"]

    def test_empty_input(self):
        assert len(EventLog.concat([])) == 0

    def test_origin_override(self):
        a = make_log([(1.0, "a")], origin=0.0)
        assert EventLog.concat([a], origin=42.0).origin == 42.0


@st.composite
def times_lists(draw):
    return draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
            min_size=0,
            max_size=60,
        )
    )


class TestProperties:
    @given(times_lists())
    def test_always_sorted(self, times):
        log = make_log([(t, f"e{i}") for i, t in enumerate(times)])
        ts = log.timestamps
        assert np.all(np.diff(ts) >= 0)

    @given(times_lists())
    def test_order_is_a_stable_sort_by_time(self, times):
        events = [make_event(t, f"e{i}") for i, t in enumerate(times)]
        log = EventLog(events)
        assert list(log) == sorted(events, key=lambda e: e.timestamp)
        assert log.timestamps.tolist() == sorted(times)

    @given(times_lists(), st.floats(min_value=0, max_value=1e7), st.floats(min_value=0, max_value=1e7))
    def test_between_returns_exactly_range(self, times, a, b):
        lo, hi = min(a, b), max(a, b)
        log = make_log([(t, f"e{i}") for i, t in enumerate(times)])
        sub = log.between(lo, hi)
        assert all(lo <= e.timestamp < hi for e in sub)
        assert len(sub) == sum(1 for t in times if lo <= t < hi)

    @given(times_lists())
    def test_week_partition_covers_log(self, times):
        log = make_log([(t, f"e{i}") for i, t in enumerate(times)])
        total = sum(len(log.week(w)) for w in range(log.n_weeks))
        assert total == len(log)
