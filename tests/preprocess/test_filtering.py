"""Unit and property tests for temporal/spatial compression."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from repro.preprocess.filtering import (
    FilterStats,
    _group_ids,
    compress,
    deduplicate_exact,
    spatial_compress,
    temporal_compress,
)
from tests.conftest import make_log


class TestTemporalCompression:
    def test_coalesces_repeats_at_one_location(self):
        log = make_log(
            [
                (0.0, "a", {"location": "L1", "job_id": 1}),
                (10.0, "a", {"location": "L1", "job_id": 1}),
                (20.0, "a", {"location": "L1", "job_id": 1}),
            ]
        )
        out, stats = temporal_compress(log, 30.0)
        assert len(out) == 1
        assert out[0].timestamp == 0.0  # earliest kept
        assert stats.n_input == 3 and stats.n_output == 1

    def test_chain_tupling_extends_past_threshold(self):
        # gaps of 20 s chain together even though the first and last are
        # 40 s apart (Hansen-Siewiorek tupling)
        log = make_log(
            [
                (0.0, "a", {"location": "L1"}),
                (20.0, "a", {"location": "L1"}),
                (40.0, "a", {"location": "L1"}),
            ]
        )
        out, _ = temporal_compress(log, 25.0)
        assert len(out) == 1

    def test_gap_beyond_threshold_splits(self):
        log = make_log(
            [(0.0, "a", {"location": "L1"}), (100.0, "a", {"location": "L1"})]
        )
        out, _ = temporal_compress(log, 50.0)
        assert len(out) == 2

    def test_different_locations_not_merged(self):
        log = make_log(
            [(0.0, "a", {"location": "L1"}), (1.0, "a", {"location": "L2"})]
        )
        out, _ = temporal_compress(log, 300.0)
        assert len(out) == 2

    def test_different_jobs_not_merged(self):
        log = make_log(
            [(0.0, "a", {"job_id": 1}), (1.0, "a", {"job_id": 2})]
        )
        out, _ = temporal_compress(log, 300.0)
        assert len(out) == 2

    def test_different_codes_not_merged(self):
        log = make_log([(0.0, "a"), (1.0, "b")])
        out, _ = temporal_compress(log, 300.0)
        assert len(out) == 2

    def test_zero_threshold_is_identity(self):
        log = make_log([(0.0, "a"), (0.0, "a")])
        out, stats = temporal_compress(log, 0.0)
        assert len(out) == 2
        assert stats.compression_rate == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            temporal_compress(make_log([(0.0, "a")]), -1.0)


class TestSpatialCompression:
    def test_merges_across_locations(self):
        log = make_log(
            [
                (0.0, "a", {"location": "L1", "job_id": 1}),
                (5.0, "a", {"location": "L2", "job_id": 1}),
                (9.0, "a", {"location": "L3", "job_id": 1}),
            ]
        )
        out, _ = spatial_compress(log, 30.0)
        assert len(out) == 1
        assert out[0].location == "L1"

    def test_different_jobs_kept(self):
        log = make_log(
            [
                (0.0, "a", {"location": "L1", "job_id": 1}),
                (1.0, "a", {"location": "L2", "job_id": 2}),
            ]
        )
        out, _ = spatial_compress(log, 30.0)
        assert len(out) == 2

    def test_far_apart_kept(self):
        log = make_log(
            [
                (0.0, "a", {"location": "L1"}),
                (1000.0, "a", {"location": "L2"}),
            ]
        )
        out, _ = spatial_compress(log, 30.0)
        assert len(out) == 2


class TestFullCompression:
    def test_temporal_then_spatial(self):
        # 2 locations × 3 repeats of the same logical event
        specs = []
        for loc in ("L1", "L2"):
            for k in range(3):
                specs.append((k * 10.0, "a", {"location": loc, "job_id": 7}))
        log = make_log(specs)
        out, stats = compress(log, 60.0)
        assert len(out) == 1
        assert stats.n_input == 6
        assert stats.compression_rate == pytest.approx(5 / 6)

    def test_stats_by_facility(self):
        from repro.raslog.events import Facility

        log = make_log(
            [
                (0.0, "a", {"facility": Facility.APP}),
                (1.0, "a", {"facility": Facility.APP}),
            ]
        )
        _, stats = compress(log, 10.0)
        assert stats.by_facility[Facility.APP] == (2, 1)

    def test_empty_log(self):
        from repro.raslog.store import EventLog

        out, stats = compress(EventLog(), 300.0)
        assert len(out) == 0
        assert stats.compression_rate == 0.0

    def test_recovers_synthetic_logical_count(self, small_trace, catalog):
        """The filter at the paper's threshold approximately undoes the
        generator's duplication."""
        from repro.preprocess.categorizer import Categorizer

        categorized = Categorizer(small_trace.catalog).categorize(small_trace.raw)
        out, stats = compress(categorized, 300.0)
        n_clean = len(small_trace.clean)
        assert stats.compression_rate > 0.9
        assert 0.75 * n_clean <= len(out) <= 1.05 * n_clean


class TestDeduplicateExact:
    def test_removes_identical_rows(self):
        log = make_log([(1.0, "a"), (1.0, "a"), (1.0, "b")])
        assert len(deduplicate_exact(log)) == 2

    def test_keeps_distinct_locations(self):
        log = make_log(
            [(1.0, "a", {"location": "L1"}), (1.0, "a", {"location": "L2"})]
        )
        assert len(deduplicate_exact(log)) == 2


@st.composite
def duplicate_streams(draw):
    """Random logical events with random duplication."""
    n_logical = draw(st.integers(min_value=1, max_value=12))
    specs = []
    for i in range(n_logical):
        base = draw(st.floats(min_value=0, max_value=1e5, allow_nan=False))
        n_dup = draw(st.integers(min_value=1, max_value=5))
        for d in range(n_dup):
            offset = draw(st.floats(min_value=0, max_value=50.0, allow_nan=False))
            specs.append((base + offset, f"code{i}", {"job_id": i, "location": "L1"}))
    return specs


class TestProperties:
    @given(duplicate_streams(), st.floats(min_value=0.0, max_value=500.0))
    def test_output_never_larger(self, specs, threshold):
        log = make_log(specs)
        out, stats = compress(log, threshold)
        assert len(out) <= len(log)
        assert stats.n_output == len(out)

    @given(duplicate_streams())
    def test_monotone_in_threshold(self, specs):
        log = make_log(specs)
        sizes = [len(compress(log, t)[0]) for t in (0.0, 10.0, 60.0, 300.0)]
        assert sizes == sorted(sizes, reverse=True)

    @given(duplicate_streams(), st.floats(min_value=0.0, max_value=500.0))
    def test_idempotent(self, specs, threshold):
        log = make_log(specs)
        once, _ = compress(log, threshold)
        twice, _ = compress(once, threshold)
        assert len(once) == len(twice)

    @given(duplicate_streams(), st.floats(min_value=1.0, max_value=500.0))
    def test_kept_events_subset_of_input(self, specs, threshold):
        log = make_log(specs)
        out, _ = compress(log, threshold)
        input_ids = {e.record_id for e in log}
        assert {e.record_id for e in out} <= input_ids


class TestVectorizedEquivalence:
    """The vectorized filter must match a direct per-group reference."""

    @staticmethod
    def _reference_coalesce(log, threshold, key_fn):
        # The pre-vectorization algorithm, kept as a correctness oracle:
        # group indices per key, chain-tuple each group independently.
        from collections import defaultdict

        from repro.raslog.store import EventLog

        if threshold == 0 or len(log) == 0:
            return log
        groups = defaultdict(list)
        for i, event in enumerate(log):
            groups[key_fn(event)].append(i)
        kept_idx = set()
        for indices in groups.values():
            last = None
            for i in indices:
                t = log.timestamps[i]
                if last is None or t - last > threshold:
                    kept_idx.add(i)
                last = t
        return EventLog(
            tuple(e for i, e in enumerate(log.events) if i in kept_idx),
            origin=log.origin,
            _presorted=True,
        )

    @given(duplicate_streams(), st.floats(min_value=0.0, max_value=500.0))
    def test_temporal_matches_reference(self, specs, threshold):
        log = make_log(specs)
        expected = self._reference_coalesce(
            log, threshold, lambda e: (e.location, e.job_id, e.entry_data)
        )
        out, _ = temporal_compress(log, threshold)
        assert out.events == expected.events

    @given(duplicate_streams(), st.floats(min_value=0.0, max_value=500.0))
    def test_spatial_matches_reference(self, specs, threshold):
        log = make_log(specs)
        expected = self._reference_coalesce(
            log, threshold, lambda e: (e.job_id, e.entry_data)
        )
        out, _ = spatial_compress(log, threshold)
        assert out.events == expected.events

    @given(duplicate_streams())
    def test_dedup_matches_first_seen_wins(self, specs):
        log = make_log(specs)
        seen, expected = set(), []
        for e in log:
            sig = (e.timestamp, e.location, e.job_id, e.entry_data)
            if sig not in seen:
                seen.add(sig)
                expected.append(e)
        assert deduplicate_exact(log).events == tuple(expected)


class TestGroupIds:
    def test_rows_share_an_id_iff_equal_in_every_column(self):
        a = np.array([0, 0, 1, 1, 0, 2], dtype=np.int64)
        b = np.array([3, 3, 3, 0, 1, 3], dtype=np.int64)
        gid = _group_ids((a, 3), (b, 4))
        pairs = list(zip(a.tolist(), b.tolist()))
        for i in range(len(a)):
            for j in range(len(a)):
                assert (gid[i] == gid[j]) == (pairs[i] == pairs[j])

    def test_large_cardinalities_do_not_overflow(self):
        # 2**40 ** 3 overflows int64: the fold must re-compress first.
        big = 2**40
        cols = [
            np.array([big - 1, 0, big - 1, 5], dtype=np.int64),
            np.array([big - 1, big - 1, big - 1, 5], dtype=np.int64),
            np.array([big - 1, big - 1, big - 2, 5], dtype=np.int64),
        ]
        gid = _group_ids(*((c, big) for c in cols))
        rows = list(zip(*(c.tolist() for c in cols)))
        assert len(set(gid.tolist())) == len(set(rows)) == 4
        assert gid.min() >= 0


class TestAdaptersOnParsedLog:
    """On a log parsed from a file, the adapters work on its columns and
    build no raw event, and give what they give on the eager log."""

    @pytest.mark.parametrize("threshold", [0.0, 300.0])
    def test_same_result_without_building_events(
        self, small_trace, tmp_path, threshold
    ):
        from unittest import mock

        from repro.raslog.parser import dump_log, load_log
        from repro.raslog.store import EventLog, RowColumns

        path = tmp_path / "raw.log"
        dump_log(small_trace.raw, path)
        eager = load_log(path)
        eager = EventLog(eager.events, origin=eager.origin)
        lazy = load_log(path)
        with mock.patch.object(RowColumns, "events", side_effect=AssertionError):
            deduped = deduplicate_exact(lazy)
            out, stats = compress(deduped, threshold)
        want_deduped = deduplicate_exact(eager)
        want, want_stats = compress(want_deduped, threshold)
        assert len(deduped) < len(lazy)
        assert deduped.events == want_deduped.events
        assert out.events == want.events
        assert out.timestamps.tolist() == want.timestamps.tolist()
        assert stats == want_stats
