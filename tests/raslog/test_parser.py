"""Unit tests for the LogHub BGL parser/writer."""

import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raslog import parser as parser_module
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
from repro.raslog.store import EventLog, RowColumns
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

    @pytest.mark.parametrize("chunk_lines", [1, 2, 3, 65536])
    def test_strict_yields_every_event_before_the_bad_line(self, chunk_lines):
        report = ParseReport()
        lines = iter([GOOD_LINE, ALERT_LINE, "garbage", GOOD_LINE])
        got = []
        with mock.patch.object(parser_module, "CHUNK_LINES", chunk_lines):
            with pytest.raises(ParseError) as err:
                for event in iter_lines(lines, strict=True, report=report):
                    got.append(event)
        assert got == [parse_line(GOOD_LINE, 1), parse_line(ALERT_LINE, 2)]
        assert err.value.line_no == 3
        assert report.parsed == 2
        # Reading stops at the bad line.
        assert list(lines) == [GOOD_LINE]

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


def _line(epoch, facility="KERNEL", label="-", message="instruction cache parity error corrected"):
    return (
        f"{label} {epoch} 2005.06.03 R02-M1-N0-C:J12-U11 "
        f"2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS {facility} INFO "
        f"{message}"
    )


#: Blank and malformed lines, non-canonical facility spellings, alert
#: labels, a negative epoch and epochs out of order.
MIXED_LINES = [
    _line(1117838590),
    "",
    _line(1117838570, facility="kernel"),
    "garbage",
    _line(1117838580, facility="serv-net", message="link card down"),
    "   ",
    _line(1117838570, label="KERNDTLB", message="data TLB error interrupt"),
    _line("notanumber"),
    _line(1117838560, facility="QUANTUM"),
    _line(-5),
    _line(1117838570, facility="Serv_Net"),
    GOOD_LINE.replace(" INFO ", " MEH "),
    _line(1117838600, label="APPSEV"),
]


def _per_line(lines, strict):
    """Reference loader: one ``parse_line`` per non-blank line, then a
    stable sort by time."""
    events, report = [], ParseReport()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            events.append(parse_line(line, line_no))
        except ParseError as err:
            if strict:
                raise
            report.record_error(err)
            continue
        report.parsed += 1
    events.sort(key=lambda e: e.timestamp)
    return events, report


class TestLoadLogEquivalence:
    """``load_log`` is a per-line ``parse_line`` loop plus a stable time
    sort, whatever mix of lines the file holds."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "mixed.log"
        path.write_text("\n".join(MIXED_LINES) + "\n")
        return path

    def test_lenient(self, path):
        report = ParseReport()
        log = load_log(path, report=report)
        with open(path, encoding="utf-8") as fh:
            expected, expected_report = _per_line(fh, strict=False)
        assert list(log) == expected
        assert log.timestamps.tolist() == [e.timestamp for e in expected]
        assert log.origin == expected[0].timestamp
        assert report.parsed == expected_report.parsed == 6
        assert report.skipped == expected_report.skipped == 5
        assert [(e.line_no, e.reason) for e in report.errors] == [
            (e.line_no, e.reason) for e in expected_report.errors
        ]
        # Equal epochs keep their file order.
        tied = [e.record_id for e in log if e.timestamp == 1117838570.0]
        assert tied == [3, 7, 11]

    def test_strict(self, path):
        with open(path, encoding="utf-8") as fh, pytest.raises(ParseError) as expected:
            _per_line(fh, strict=True)
        with pytest.raises(ParseError) as got:
            load_log(path, strict=True)
        assert got.value.line_no == expected.value.line_no == 4
        assert got.value.reason == expected.value.reason

    def test_in_order_file(self, tmp_path):
        path = tmp_path / "sorted.log"
        path.write_text("".join(_line(1117838570 + k) + "\n" for k in range(5)))
        log = load_log(path)
        assert [e.record_id for e in log] == [1, 2, 3, 4, 5]
        assert log.origin == 1117838570.0
        assert not log.timestamps.flags.writeable

    def test_empty_source(self):
        log = load_log(io.StringIO("\n  \n"))
        assert len(log) == 0
        assert log.origin == 0.0


class TestNegativeEpoch:
    def test_parse_line_raises_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_line(_line(-5), line_no=3)
        assert err.value.line_no == 3
        assert err.value.reason == "negative epoch '-5'"

    def test_lenient_load_skips_and_counts(self):
        report = ParseReport()
        log = load_log(io.StringIO(f"{GOOD_LINE}\n{_line(-5)}\n"), report=report)
        assert len(log) == 1
        assert report.parsed == 1
        assert report.skipped == 1
        assert report.errors[0].line_no == 2
        assert "negative epoch" in report.errors[0].reason

    def test_strict_load_raises_with_line_number(self):
        with pytest.raises(ParseError) as err:
            load_log(io.StringIO(f"{GOOD_LINE}\n{_line(-5)}\n"), strict=True)
        assert err.value.line_no == 2
        assert "negative epoch" in err.value.reason


class TestOverlongEpoch:
    """An epoch too long for a float overflows in ``float(int(...))``."""

    EPOCH = "9" * 400

    def test_parse_line_raises_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_line(_line(self.EPOCH), line_no=4)
        assert err.value.line_no == 4
        assert err.value.reason.startswith("bad epoch field")

    def test_lenient_load_skips_and_counts(self):
        report = ParseReport()
        log = load_log(
            io.StringIO(f"{GOOD_LINE}\n{_line(self.EPOCH)}\n"), report=report
        )
        assert len(log) == 1
        assert report.skipped == 1
        assert report.errors[0].line_no == 2


class TestCRLF:
    def test_stream_lines_lose_carriage_return(self):
        log = load_log(io.StringIO(f"{GOOD_LINE}\r\n{ALERT_LINE}\r\n"))
        assert [e.entry_data for e in log] == [
            "instruction cache parity error corrected",
            "data TLB error interrupt",
        ]
        assert "\r" not in format_line(log[0])

    def test_unknown_keep_round_trip_has_no_carriage_return(self):
        from repro.preprocess.pipeline import PreprocessingPipeline

        raw = load_log(io.StringIO(_line(1117838570, message="mystery 7") + "\r\n"))
        clean = PreprocessingPipeline(unknown="keep").run(raw).clean
        assert clean[0].entry_data == "mystery 7"
        out = io.StringIO()
        dump_log(clean, out)
        assert "\r" not in out.getvalue()


# -- the chunk loop against parse_line -------------------------------------

_FIELD = st.sampled_from(
    ["-", "KERNDTLB", "1117838570", "17", "-3", "x1", "R02-M1", "RAS",
     "KERNEL", "kernel", "serv-net", "QUANTUM", "INFO", "Fatal", "MEH",
     "error", "0x0bc0", "[7]"]
)
_SEP = st.sampled_from([" ", "  ", "\t", " \r", "\x0b"])


@st.composite
def odd_lines(draw):
    """Lines built from valid and invalid tokens and odd whitespace, with
    and without trailing newlines."""
    n = draw(st.integers(min_value=0, max_value=13))
    text = ""
    for _ in range(n):
        text += draw(st.sampled_from(["", " "])) + draw(_FIELD) + draw(_SEP)
    return text + draw(st.sampled_from(["", "\n", "\r\n", " \n"]))


def _eager(lines, report):
    """The per-line reference: parse_line on every line, blank lines
    skipped, errors tallied, then a stably sorted EventLog."""
    events = []
    for line_no, line in enumerate(lines, start=1):
        try:
            events.append(parse_line(line, line_no))
        except ParseError as err:
            if line.strip():
                report.record_error(err)
            continue
        report.parsed += 1
    log = EventLog(events)
    return log.with_origin(log.span[0])


class TestChunkLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(odd_lines(), max_size=12), st.integers(1, 5))
    def test_matches_parse_line(self, lines, chunk_lines):
        want_report, got_report = ParseReport(), ParseReport()
        want = _eager(lines, want_report)
        with mock.patch.object(parser_module, "CHUNK_LINES", chunk_lines):
            got = load_log(lines, report=got_report)
        assert got.events == want.events
        assert got.origin == want.origin
        assert (got_report.parsed, got_report.skipped) == (
            want_report.parsed, want_report.skipped
        )
        assert [(e.line_no, e.reason, e.line) for e in got_report.errors] == [
            (e.line_no, e.reason, e.line) for e in want_report.errors
        ]

    def test_strict_raises_first_bad_line_and_counts_before_it(self):
        report = ParseReport()
        with mock.patch.object(parser_module, "CHUNK_LINES", 2):
            with pytest.raises(ParseError) as err:
                load_log([GOOD_LINE, "", ALERT_LINE, "garbage", "bad"],
                         strict=True, report=report)
        assert err.value.line_no == 4
        assert report.parsed == 2


# -- the lazy, column-backed log -------------------------------------------


def _bgl_line(t: int, location: str, facility: str, message: str) -> str:
    return (
        f"- {t} 2005.06.03 {location} 2005-06-03-15.42.50.363779 {location} "
        f"RAS {facility} INFO {message}"
    )


@st.composite
def log_lines(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    return [
        _bgl_line(
            1_117_838_570 + draw(st.integers(0, 40)),
            draw(st.sampled_from(["R00", "R01"])),
            draw(st.sampled_from(["KERNEL", "APP", "MMCS"])),
            draw(st.sampled_from(["a", "b c", "d 0x1"])),
        )
        if draw(st.integers(0, 9)) else "garbage"
        for _ in range(n)
    ]


class TestLazyLog:
    """The column-backed log from load_log answers exactly as an eager
    log of parse_line events does, whichever it is asked first."""

    @settings(max_examples=100, deadline=None)
    @given(log_lines(), st.integers(0, 30), st.integers(0, 30))
    def test_matches_eager_log(self, lines, a, b):
        want = _eager(lines, ParseReport())
        assert load_log(lines)._events is None  # nothing built yet

        def lazy():
            return load_log(lines)

        assert len(lazy()) == len(want)
        assert lazy().span == want.span
        assert lazy().origin == want.origin
        assert lazy().n_weeks == want.n_weeks
        assert lazy().timestamps.tolist() == want.timestamps.tolist()
        assert lazy().counts_by_facility() == want.counts_by_facility()
        assert lazy().events == want.events
        assert list(lazy()) == list(want)
        assert lazy()[a:b].events == want[a:b].events
        assert lazy()[a:b].timestamps.tolist() == want[a:b].timestamps.tolist()
        lo, hi = sorted(1_117_838_570 + x for x in (a, b))
        assert lazy().between(lo, hi).events == want.between(lo, hi).events
        if len(want):
            assert lazy()[a % len(want)] == want[a % len(want)]
        columns = lazy().columns
        assert columns.events() == want.events
        assert RowColumns.of_events(want.events).events() == want.events

    def test_events_are_built_once(self):
        log = load_log([GOOD_LINE, ALERT_LINE])
        assert log.events is log.events
        assert log[0:1][0] is log.events[0]

    def test_timestamps_read_only(self):
        log = load_log([ALERT_LINE, GOOD_LINE])
        with pytest.raises(ValueError):
            log.timestamps[0] = 1.0
