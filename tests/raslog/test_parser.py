"""Unit tests for the LogHub BGL parser/writer."""

import io

import pytest

from repro.raslog.events import Facility, Severity
from repro.raslog.parser import (
    ParseError,
    ParseReport,
    dump_log,
    format_line,
    iter_lines,
    load_log,
    parse_line,
)
from tests.conftest import make_log

GOOD_LINE = (
    "- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 "
    "R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected"
)
ALERT_LINE = (
    "KERNDTLB 1117838573 2005.06.03 R23-M0-NE-C:J05-U01 2005-06-03-15.42.53.276129 "
    "R23-M0-NE-C:J05-U01 RAS KERNEL FATAL data TLB error interrupt"
)


class TestParseLine:
    def test_basic_fields(self):
        e = parse_line(GOOD_LINE, line_no=7)
        assert e.timestamp == 1117838570.0
        assert e.location == "R02-M1-N0-C:J12-U11"
        assert e.facility is Facility.KERNEL
        assert e.severity is Severity.INFO
        assert e.entry_data == "instruction cache parity error corrected"
        assert e.record_id == 7
        assert e.event_type == "RAS"

    def test_alert_label_kept_in_event_type(self):
        e = parse_line(ALERT_LINE)
        assert e.event_type == "RAS:KERNDTLB"
        assert e.severity is Severity.FATAL

    def test_too_few_fields(self):
        with pytest.raises(ParseError, match="at least 9 fields"):
            parse_line("- 123 oops")

    def test_bad_epoch(self):
        bad = GOOD_LINE.replace("1117838570", "notanumber")
        with pytest.raises(ParseError, match="bad epoch"):
            parse_line(bad)

    def test_unknown_facility(self):
        bad = GOOD_LINE.replace(" KERNEL ", " QUANTUM ")
        with pytest.raises(ParseError, match="unknown facility"):
            parse_line(bad)

    def test_unknown_severity(self):
        bad = GOOD_LINE.replace(" INFO ", " MEH ")
        with pytest.raises(ParseError, match="unknown severity"):
            parse_line(bad)

    def test_empty_message_allowed(self):
        short = " ".join(GOOD_LINE.split()[:9])
        e = parse_line(short)
        assert e.entry_data == ""


class TestTokenLookup:
    """The canonical-spelling tables agree with Facility.parse and
    Severity.parse on every other spelling, errors included."""

    @pytest.mark.parametrize(
        "token", ["KERNEL", "kernel", "SERV_NET", "serv-net", "Serv_Net", "QUANTUM"]
    )
    def test_facility_token(self, token):
        line = GOOD_LINE.replace(" KERNEL ", f" {token} ")
        try:
            expected = Facility.parse(token)
        except ValueError:
            with pytest.raises(ParseError) as err:
                parse_line(line)
            assert err.value.reason == f"unknown facility {token!r}"
        else:
            assert parse_line(line).facility is expected

    @pytest.mark.parametrize(
        "token", ["FATAL", "Fatal", "failure", "INFO", "warning", "MEH"]
    )
    def test_severity_token(self, token):
        line = GOOD_LINE.replace(" INFO ", f" {token} ")
        try:
            expected = Severity.parse(token)
        except ValueError:
            with pytest.raises(ParseError) as err:
                parse_line(line)
            assert err.value.reason == f"unknown severity {token!r}"
        else:
            assert parse_line(line).severity is expected


class TestIterLines:
    def test_skips_blank_lines(self):
        report = ParseReport()
        events = list(iter_lines([GOOD_LINE, "", "  \n", ALERT_LINE], report=report))
        assert len(events) == 2
        # A blank line is not a malformed one.
        assert report.parsed == 2
        assert report.skipped == 0

    def test_lenient_skips_bad_lines(self):
        report = ParseReport()
        events = list(iter_lines([GOOD_LINE, "garbage", ALERT_LINE], report=report))
        assert len(events) == 2
        assert report.parsed == 2
        assert report.skipped == 1
        assert len(report.errors) == 1

    def test_strict_raises(self):
        with pytest.raises(ParseError):
            list(iter_lines([GOOD_LINE, "garbage"], strict=True))

    def test_error_cap(self):
        report = ParseReport()
        list(iter_lines(["bad"] * 50, report=report))
        assert report.skipped == 50
        assert len(report.errors) == 20


class TestLoadDump:
    def test_load_from_stream(self):
        log = load_log(io.StringIO(GOOD_LINE + "\n" + ALERT_LINE + "\n"))
        assert len(log) == 2
        assert log.origin == 1117838570.0

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "bgl.log"
        path.write_text(GOOD_LINE + "\n")
        log = load_log(path)
        assert len(log) == 1

    def test_round_trip(self, tmp_path):
        log = make_log(
            [
                (10.0, "some message text", {"severity": Severity.WARNING}),
                (20.0, "another message", {"facility": Facility.APP}),
            ]
        )
        path = tmp_path / "out.log"
        n = dump_log(log, path)
        assert n == 2
        back = load_log(path, strict=True)
        assert len(back) == 2
        assert [e.entry_data for e in back] == [e.entry_data for e in log]
        assert [e.severity for e in back] == [e.severity for e in log]
        assert [e.facility for e in back] == [e.facility for e in log]
        # epoch shift preserved up to integer seconds
        assert back[1].timestamp - back[0].timestamp == pytest.approx(10.0)

    def test_format_line_alert_round_trip(self):
        e = parse_line(ALERT_LINE)
        again = parse_line(format_line(e, origin_epoch=0.0))
        assert again.event_type == "RAS:KERNDTLB"

    def test_synthetic_raw_log_parses(self, small_trace, tmp_path):
        raw = small_trace.raw
        sample = raw[: min(200, len(raw))]
        path = tmp_path / "synth.log"
        dump_log(sample, path)
        report = ParseReport()
        back = load_log(path, report=report)
        assert report.skipped == 0
        assert len(back) == len(sample)


class TestRoundTripProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    message_text = st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" .-_"
        ),
        max_size=60,
    ).map(lambda s: " ".join(s.split()))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
        message_text,
        st.sampled_from(list(Facility)),
        st.sampled_from(list(Severity)),
    )
    def test_format_parse_round_trip(self, t, message, facility, severity):
        from tests.conftest import make_event

        event = make_event(
            float(int(t)), message, facility=facility, severity=severity
        )
        line = format_line(event, origin_epoch=0.0)
        back = parse_line(line)
        assert back.facility is facility
        assert back.severity is severity
        assert back.entry_data == message
        assert back.timestamp == float(int(t))
        assert back.location == event.location
