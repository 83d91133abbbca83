"""Integration tests for the preprocessing pipeline."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observe
from repro.preprocess.categorizer import CategorizationReport
from repro.preprocess.filtering import FilterStats, compress, deduplicate_exact
from repro.preprocess.pipeline import DEFAULT_THRESHOLD, PreprocessingPipeline
from repro.raslog.catalog import default_catalog
from repro.raslog.events import Facility, Severity
from repro.raslog.store import EventLog
from tests.conftest import make_event, make_log


class TestPipeline:
    def test_default_threshold_is_papers(self):
        assert DEFAULT_THRESHOLD == 300.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError, match="non-negative"):
            PreprocessingPipeline(threshold=-5.0)

    def test_end_to_end_on_synthetic_raw(self, small_trace):
        pipe = PreprocessingPipeline(small_trace.catalog)
        result = pipe.run(small_trace.raw)
        assert result.categorization.match_rate == 1.0
        assert result.compression_rate > 0.9
        # output is categorized: every entry_data is a catalog code
        assert all(e.entry_data in pipe.catalog for e in result.clean)

    def test_recovers_fatal_stream(self, small_trace):
        pipe = PreprocessingPipeline(small_trace.catalog)
        result = pipe.run(small_trace.raw)
        fatal = result.clean.fatal(pipe.catalog)
        # close to ground truth (storm members at one job/location coalesce)
        assert 0.6 * small_trace.n_fatal <= len(fatal) <= small_trace.n_fatal

    def test_demotes_fake_fatals(self, small_trace):
        pipe = PreprocessingPipeline(small_trace.catalog)
        result = pipe.run(small_trace.raw)
        assert result.categorization.demoted_fatals > 0
        fatal_codes = {e.entry_data for e in result.clean.fatal(pipe.catalog)}
        fake_codes = {t.code for t in pipe.catalog.fake_fatal_types()}
        assert not (fatal_codes & fake_codes)

    def test_exact_duplicate_removal_toggle(self):
        log = make_log(
            [
                (1.0, "KERNEL-N-000", {"severity": Severity.INFO}),
                (1.0, "KERNEL-N-000", {"severity": Severity.INFO}),
            ]
        )
        with_dedup = PreprocessingPipeline(threshold=0.0).run(log)
        without = PreprocessingPipeline(
            threshold=0.0, drop_exact_duplicates=False
        ).run(log)
        assert len(with_dedup.clean) == 1
        assert len(without.clean) == 2

    def test_unknown_policy_forwarded(self):
        log = make_log([(1.0, "mystery event")])
        skip = PreprocessingPipeline(unknown="skip").run(log)
        keep = PreprocessingPipeline(unknown="keep").run(log)
        assert len(skip.clean) == 0
        assert len(keep.clean) == 1


# -- columnar pass vs the composition of the public functions ------------

_CATALOG = default_catalog()
_FAKE = _CATALOG.fake_fatal_types()[0]
_FATAL = next(t for t in _CATALOG if t.fatal)
_BENIGN = next(t for t in _CATALOG if not t.fatal and not t.fake_fatal)
_OTHER_FACILITY = next(f for f in Facility if f is not _BENIGN.facility)

#: (message, facility): matched types, a fake fatal, an already-
#: categorized code, one description under its own and a wrong facility,
#: and an unknown message.
_MESSAGES = [
    (_BENIGN.description, _BENIGN.facility),
    (_BENIGN.description, _OTHER_FACILITY),
    (_FATAL.description, _FATAL.facility),
    (_FAKE.description, _FAKE.facility),
    (_FAKE.code, _FAKE.facility),
    ("mystery event", Facility.KERNEL),
]


@st.composite
def raw_logs(draw):
    """Small raw logs with same-second duplicates and per-instance hex
    and counter tails, over a few jobs and locations."""
    n = draw(st.integers(min_value=0, max_value=40))
    events = []
    for i in range(n):
        if events and draw(st.integers(0, 4)) == 0:
            # An exact duplicate of the row before, in the same second.
            events.append(replace(events[-1], record_id=i))
            continue
        text, facility = draw(st.sampled_from(_MESSAGES))
        tail = draw(
            st.one_of(
                st.just(""),
                st.integers(0, 0xFFFF).map(lambda v: f" 0x{v:04x}"),
                st.integers(0, 999).map(lambda v: f" {v}"),
            )
        )
        events.append(
            make_event(
                float(draw(st.integers(0, 2000))),
                text + tail,
                facility=facility,
                severity=draw(
                    st.sampled_from([Severity.INFO, Severity.FATAL, Severity.FAILURE])
                ),
                location=draw(st.sampled_from(["L1", "L2", "L3"])),
                job_id=draw(st.sampled_from([1, 2])),
                record_id=i,
            )
        )
    return EventLog(events, origin=draw(st.sampled_from([0.0, 7.0])))


def _composed(pipe, raw):
    """categorize → deduplicate_exact → compress, as separate passes."""
    report = CategorizationReport()
    log = pipe.categorizer.categorize(raw, report)
    if pipe.drop_exact_duplicates:
        log = deduplicate_exact(log)
    clean, _ = compress(log, pipe.threshold)
    return clean, report, FilterStats.from_logs(pipe.threshold, raw, clean)


def _assert_run_matches_composition(raw, unknown, dedup, threshold):
    pipe = PreprocessingPipeline(
        threshold=threshold, unknown=unknown, drop_exact_duplicates=dedup
    )
    try:
        clean, report, stats = _composed(pipe, raw)
    except ValueError as expected:
        with pytest.raises(ValueError) as got:
            pipe.run(raw)
        assert str(got.value) == str(expected)
        return
    result = pipe.run(raw)
    assert result.clean.events == clean.events
    assert result.clean.timestamps.tolist() == clean.timestamps.tolist()
    assert result.clean.origin == clean.origin == raw.origin
    got = result.categorization
    assert got.matched == report.matched
    assert got.unmatched == report.unmatched
    assert got.demoted_fatals == report.demoted_fatals
    assert got.unmatched_by_facility == report.unmatched_by_facility
    assert result.filtering.n_input == stats.n_input == len(raw)
    assert result.filtering.n_output == stats.n_output
    assert result.filtering.by_facility == stats.by_facility


class TestColumnarEquivalence:
    """``run`` is one columnar pass; it must equal the composition of the
    public functions, event for event and count for count."""

    @settings(max_examples=150, deadline=None)
    @given(
        raw_logs(),
        st.sampled_from(["skip", "keep", "error"]),
        st.booleans(),
        st.sampled_from([0.0, 300.0]),
    )
    def test_run_equals_composition(self, raw, unknown, dedup, threshold):
        _assert_run_matches_composition(raw, unknown, dedup, threshold)

    @pytest.mark.parametrize("unknown", ["skip", "keep", "error"])
    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("threshold", [0.0, 300.0])
    @pytest.mark.parametrize(
        "specs",
        [
            [],
            [(5.0, _BENIGN.description, {"facility": _BENIGN.facility})],
            [(5.0, "mystery event")],
        ],
        ids=["empty", "one-matched-row", "one-unknown-row"],
    )
    def test_tiny_logs(self, specs, unknown, dedup, threshold):
        _assert_run_matches_composition(
            make_log(specs, origin=1.0), unknown, dedup, threshold
        )

    def test_synthetic_raw_trace(self, small_trace):
        _assert_run_matches_composition(small_trace.raw, "skip", True, 300.0)

    def test_records_stage_spans(self, small_trace):
        with observe.use_registry(observe.MetricsRegistry()) as registry:
            PreprocessingPipeline(small_trace.catalog).run(small_trace.raw)
        for name in ("run", "categorize", "columns", "dedup", "compress"):
            assert f"preprocess.{name}" in registry
