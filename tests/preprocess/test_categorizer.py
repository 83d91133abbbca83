"""Unit tests for event categorization."""

import pytest

from repro.preprocess.categorizer import (
    CategorizationReport,
    Categorizer,
    normalize_description,
)
from repro.preprocess.pipeline import PreprocessingPipeline
from repro.raslog.events import Facility, Severity
from repro.raslog.store import EventLog
from tests.conftest import make_event, make_log


class TestNormalizeDescription:
    def test_case_and_whitespace(self):
        assert normalize_description("  Foo   BAR ") == "foo bar"

    def test_strips_numeric_tail(self):
        assert normalize_description("ddr error at 12345") == "ddr error at"
        assert normalize_description("error code 0x0badf00d") == "error code"

    def test_strips_bracketed_tail(self):
        assert normalize_description("cache error [bank 3]") == "cache error"

    def test_plain_text_unchanged(self):
        assert (
            normalize_description("uncorrectable torus error")
            == "uncorrectable torus error"
        )


class TestClassify:
    def test_by_description(self, catalog):
        cat = Categorizer(catalog)
        e = make_event(
            1.0, "uncorrectable torus error", facility=Facility.KERNEL,
            severity=Severity.FATAL,
        )
        t = cat.classify(e)
        assert t is not None and t.fatal

    def test_by_description_with_detail_suffix(self, catalog):
        cat = Categorizer(catalog)
        e = make_event(
            1.0, "Uncorrectable Torus Error 42", facility=Facility.KERNEL,
            severity=Severity.FATAL,
        )
        assert cat.classify(e) is not None

    def test_every_type_description_maps_to_its_own_code(self, catalog):
        """Catalog types may differ only in a numeric tail ("... class
        007"); each type's own description must still find that type."""
        cat = Categorizer(catalog)
        for t in catalog:
            event = make_event(1.0, t.description, facility=t.facility)
            assert cat.classify(event) is t, t.description

    def test_filler_type_with_detail_tail_keeps_its_code(self, catalog):
        """Filler types share their fully stripped form, so a detail tail
        is stripped one at a time and each form looked up as written."""
        cat = Categorizer(catalog)
        for text in (
            "kernel fatal condition class 016 [node 3]",
            "kernel fatal condition class 016 42",
            "Kernel Fatal Condition Class 016 0x1f",
        ):
            event = make_event(1.0, text, facility=Facility.KERNEL)
            etype = cat.classify(event)
            assert etype is not None and etype.code == "KERNEL-F-016", text

    def test_codes_pass_through(self, catalog):
        cat = Categorizer(catalog)
        e = make_event(1.0, "KERNEL-F-000", severity=Severity.FATAL)
        assert cat.classify(e).code == "KERNEL-F-000"

    def test_wrong_facility_no_match(self, catalog):
        cat = Categorizer(catalog)
        e = make_event(1.0, "uncorrectable torus error", facility=Facility.APP)
        assert cat.classify(e) is None

    def test_is_fatal_unknown_event(self, catalog):
        cat = Categorizer(catalog)
        assert not cat.is_fatal(make_event(1.0, "mystery"))


class TestCategorize:
    def test_rewrites_to_codes(self, catalog):
        cat = Categorizer(catalog)
        log = make_log(
            [(1.0, "uncorrectable torus error", {"severity": Severity.FATAL})]
        )
        out = cat.categorize(log)
        assert out[0].entry_data.startswith("KERNEL-F-")

    def test_skip_policy_drops_unknown(self, catalog):
        cat = Categorizer(catalog, unknown="skip")
        log = make_log([(1.0, "mystery"), (2.0, "KERNEL-N-000")])
        report = CategorizationReport()
        out = cat.categorize(log, report)
        assert len(out) == 1
        assert report.matched == 1
        assert report.unmatched == 1
        assert report.unmatched_by_facility[Facility.KERNEL] == 1
        assert report.match_rate == pytest.approx(0.5)

    def test_keep_policy_passes_unknown(self, catalog):
        cat = Categorizer(catalog, unknown="keep")
        log = make_log([(1.0, "mystery")])
        out = cat.categorize(log)
        assert len(out) == 1
        assert out[0].entry_data == "mystery"

    def test_error_policy_raises(self, catalog):
        cat = Categorizer(catalog, unknown="error")
        log = make_log([(1.0, "mystery")])
        with pytest.raises(ValueError, match="uncategorizable"):
            cat.categorize(log)

    def test_invalid_policy(self, catalog):
        with pytest.raises(ValueError, match="skip/error/keep"):
            Categorizer(catalog, unknown="whatever")

    def test_idempotent_on_categorized_log(self, catalog):
        cat = Categorizer(catalog)
        log = make_log([(1.0, "KERNEL-N-005")])
        once = cat.categorize(log)
        twice = cat.categorize(once)
        assert [e.entry_data for e in once] == [e.entry_data for e in twice]

    def test_preserves_order_and_origin(self, catalog):
        cat = Categorizer(catalog)
        log = make_log([(1.0, "KERNEL-N-000"), (2.0, "KERNEL-N-001")], origin=0.5)
        out = cat.categorize(log)
        assert out.origin == 0.5
        assert list(out.timestamps) == [1.0, 2.0]


class TestFakeFatalRemoval:
    def test_demoted_fatals_counted(self, catalog):
        fake = catalog.fake_fatal_types()[0]
        cat = Categorizer(catalog)
        log = make_log(
            [
                (
                    1.0,
                    fake.description,
                    {"facility": fake.facility, "severity": fake.severity},
                )
            ]
        )
        report = CategorizationReport()
        out = cat.categorize(log, report)
        assert report.demoted_fatals == 1
        assert not cat.is_fatal(out[0])

    @pytest.mark.parametrize(
        "severities",
        [
            (Severity.INFO, Severity.FATAL, Severity.INFO, Severity.FAILURE),
            (Severity.FATAL, Severity.INFO, Severity.WARNING, Severity.FATAL),
        ],
    )
    def test_demotion_follows_each_rows_severity(self, catalog, severities):
        # One message logged at several severities: only its fatal-class
        # rows are demotions, whichever severity is seen first.
        fake = catalog.fake_fatal_types()[0]
        log = make_log(
            [
                (float(i), fake.description, {"facility": fake.facility, "severity": s})
                for i, s in enumerate(severities)
            ]
        )
        report = CategorizationReport()
        Categorizer(catalog).categorize(log, report)
        assert report.matched == 4
        assert report.demoted_fatals == 2

    def test_fatal_codes_exclude_fakes(self, catalog):
        cat = Categorizer(catalog)
        fatal_codes = cat.fatal_codes()
        assert len(fatal_codes) == 69
        for fake in catalog.fake_fatal_types():
            assert fake.code not in fatal_codes

    def test_synthetic_raw_log_fully_categorized(self, small_trace):
        cat = Categorizer(small_trace.catalog)
        report = CategorizationReport()
        sample = small_trace.raw[:2000]
        cat.categorize(sample, report)
        assert report.unmatched == 0
        assert report.match_rate == 1.0

    def test_raw_trace_yields_the_generated_code_set(self, small_trace):
        """Preprocessing a seeded raw trace recovers every event type of
        the generator's clean log, and no other."""
        clean = PreprocessingPipeline(small_trace.catalog).run(
            small_trace.raw
        ).clean
        assert {e.entry_data for e in clean} == {
            e.entry_data for e in small_trace.clean
        }


def _per_row(cat, log):
    """Reference categorization: classify every row, no memo."""
    out, report = [], CategorizationReport()
    for event in log:
        etype = cat.classify(event)
        if etype is None:
            if cat.unknown == "error":
                raise ValueError(
                    f"uncategorizable event: facility={event.facility.value} "
                    f"entry_data={event.entry_data!r}"
                )
            report.add(0, 0, {event.facility: 1})
            if cat.unknown == "keep":
                out.append(event)
            continue
        report.matched += 1
        if event.severity.is_fatal_class and not etype.fatal:
            report.demoted_fatals += 1
        out.append(event.with_entry_data(etype.code))
    return out, report


class TestMemoEquivalence:
    """Classifying each distinct message once gives exactly the per-row
    result, row for row and count for count."""

    @pytest.fixture(scope="class")
    def raw(self, small_trace):
        """Raw rows with repeats, plus injected unknown descriptions, a
        known description under its own and a wrong facility, fake
        fatals, detail-suffixed variants and already-categorized codes,
        each repeated; and rows whose per-instance tails (hex address,
        bracketed detail, counter) make every one a distinct message."""
        catalog = small_trace.catalog
        fake = catalog.fake_fatal_types()[0]
        injected = [
            ("mystery event", Facility.KERNEL, Severity.INFO),
            ("mystery event", Facility.APP, Severity.ERROR),
            ("uncorrectable torus error", Facility.APP, Severity.FATAL),
            ("uncorrectable torus error", Facility.KERNEL, Severity.FATAL),
            ("another unknown 0x1f", Facility.MMCS, Severity.FATAL),
            (fake.description, fake.facility, Severity.FATAL),
            (fake.description.upper() + " 42", fake.facility, Severity.FAILURE),
            (fake.code, fake.facility, Severity.FATAL),
            ("KERNEL-N-000", Facility.KERNEL, Severity.INFO),
        ]
        events = list(small_trace.raw[:3000])
        rows = []
        for i, event in enumerate(events):
            rows.append(event)
            if i % 97 == 0:
                text, facility, severity = injected[(i // 97) % len(injected)]
                rows.append(
                    make_event(
                        event.timestamp, text, facility=facility,
                        severity=severity, record_id=event.record_id,
                    )
                )
            if i % 53 == 0:
                tails = (f" 0x{i:04x}", f" [{i}]", f" {i}")
                text = event.entry_data + tails[(i // 53) % len(tails)]
                if i % 3 == 0:
                    text = f"mystery event {i}"
                rows.append(
                    make_event(
                        event.timestamp, text, facility=event.facility,
                        severity=event.severity, record_id=event.record_id,
                    )
                )
        return EventLog(rows, origin=small_trace.raw.origin)

    def test_input_has_repeats_and_unknowns(self, raw):
        keys = [(e.facility, e.entry_data) for e in raw]
        assert len(set(keys)) < len(keys) // 10
        assert sum(e.entry_data == "mystery event" for e in raw) > 2
        assert sum(keys.count(k) == 1 for k in set(keys)) > 40

    @pytest.mark.parametrize("unknown", ["skip", "keep"])
    def test_same_events_and_report(self, catalog, raw, unknown):
        cat = Categorizer(catalog, unknown=unknown)
        report = CategorizationReport()
        out = cat.categorize(raw, report)
        expected, expected_report = _per_row(cat, raw)
        assert list(out) == expected
        assert report == expected_report
        assert report.unmatched > 0 and report.demoted_fatals > 0
        assert out.origin == raw.origin

    def test_error_policy_raises_on_first_unknown_row(self, catalog, raw):
        cat = Categorizer(catalog, unknown="error")
        with pytest.raises(ValueError) as expected:
            _per_row(cat, raw)
        with pytest.raises(ValueError) as got:
            cat.categorize(raw, CategorizationReport())
        assert str(got.value) == str(expected.value)
        first = next(e for e in raw if cat.classify(e) is None)
        assert repr(first.entry_data) in str(got.value)
