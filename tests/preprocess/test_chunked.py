"""Chunked preprocessing: a file streamed through the pipeline in chunks
gives what the whole-log pass gives, at every chunk size."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocess import pipeline as pipeline_module
from repro.preprocess.filtering import (
    ChunkFilter,
    KeyColumns,
    compress_rows,
    dedup_rows,
)
from repro.preprocess.pipeline import PreprocessingPipeline
from repro.raslog import parser
from repro.raslog.catalog import default_catalog
from repro.raslog.events import Facility
from repro.raslog.generator import GeneratorConfig, generate_log
from repro.raslog.parser import ParseReport, format_line, load_log
from repro.raslog.profiles import ANL_PROFILE
from repro.raslog.store import encode

_CATALOG = default_catalog()
_FAKE = _CATALOG.fake_fatal_types()[0]
_FATAL = next(t for t in _CATALOG if t.fatal)
_BENIGN = next(t for t in _CATALOG if not t.fatal and not t.fake_fatal)

#: (facility, message): matched types, a fake fatal, an already-categorized
#: code, a description under a wrong facility, and an unknown message.
_KINDS = [
    (_BENIGN.facility.value, _BENIGN.description),
    (_FATAL.facility.value, _FATAL.description),
    (_FAKE.facility.value, _FAKE.description),
    (_FAKE.facility.value, _FAKE.code),
    ("APP" if _BENIGN.facility is not Facility.APP else "KERNEL", _BENIGN.description),
    ("KERNEL", "mystery event"),
]

#: Gaps between consecutive rows: same-second runs, and gaps on either
#: side of the 300 s threshold and far past it (groups go idle).
_GAPS = [0, 0, 0, 1, 7, 299, 300, 301, 5000]

_BAD_LINES = [
    "",
    "garbage",
    "- notanumber 2005.06.03 R00 ts R00 RAS KERNEL INFO x",
    "- 1117838570 2005.06.03 R00 ts R00 RAS QUANTUM INFO x",
]


@st.composite
def raw_lines(draw):
    """LogHub lines in time order, with exact duplicates, per-instance
    tails, alert labels, and a few blank and malformed lines."""
    n = draw(st.integers(min_value=0, max_value=50))
    t = 1_117_838_570
    lines = []
    for _ in range(n):
        choice = draw(st.integers(0, 9))
        if choice == 0 and lines:
            lines.append(lines[-1])  # an exact duplicate, same second
            continue
        if choice == 1:
            lines.append(draw(st.sampled_from(_BAD_LINES)))
            continue
        t += draw(st.sampled_from(_GAPS))
        facility, message = draw(st.sampled_from(_KINDS))
        tail = draw(st.sampled_from(["", " 0x00ff", " 17", " [3]"]))
        label = draw(st.sampled_from(["-", "-", "KERNDTLB"]))
        location = draw(st.sampled_from(["R00-M0-N0", "R01-M1-N2", "R02"]))
        severity = draw(st.sampled_from(["INFO", "FATAL", "FAILURE"]))
        lines.append(
            f"{label} {t} 2005.06.03 {location} 2005-06-03-15.42.50.0 "
            f"{location} RAS {facility} {severity} {message}{tail}"
        )
    return lines


def _write(directory: str, lines: list[str]) -> Path:
    path = Path(directory) / "raw.log"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def _whole(pipe: PreprocessingPipeline, path: Path):
    report = ParseReport()
    return pipe.run(load_log(path, report=report)), report


def _chunked(pipe: PreprocessingPipeline, path: Path, chunk_lines: int):
    report = ParseReport()
    with mock.patch.object(parser, "CHUNK_LINES", chunk_lines):
        return pipe.run_file(path, report=report), report


def _assert_same(got, expected):
    (result, report), (want, want_report) = got, expected
    assert result.clean.events == want.clean.events
    assert result.clean.timestamps.tolist() == want.clean.timestamps.tolist()
    assert result.clean.origin == want.clean.origin
    assert result.categorization == want.categorization
    assert result.filtering == want.filtering
    assert (report.parsed, report.skipped) == (want_report.parsed, want_report.skipped)
    assert [(e.line_no, e.reason) for e in report.errors] == [
        (e.line_no, e.reason) for e in want_report.errors
    ]


class TestRunFileEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        raw_lines(),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["skip", "keep"]),
        st.booleans(),
        st.sampled_from([0.0, 300.0]),
    )
    def test_every_chunk_size(self, lines, chunk_lines, unknown, dedup, threshold):
        def pipe():
            return PreprocessingPipeline(
                threshold=threshold, unknown=unknown, drop_exact_duplicates=dedup
            )

        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, lines)
            _assert_same(_chunked(pipe(), path, chunk_lines), _whole(pipe(), path))

    def test_chunks_split_a_same_second_run(self, tmp_path):
        line = (
            "- 1117838570 2005.06.03 R00 ts R00 RAS "
            f"{_BENIGN.facility.value} INFO {_BENIGN.description}"
        )
        later = line.replace("1117838570", "1117838571")
        path = _write(tmp_path, [line] * 5 + [later] * 2)
        for chunk_lines in (1, 2, 3, 4, 6):
            got = _chunked(PreprocessingPipeline(threshold=0.0), path, chunk_lines)
            _assert_same(got, _whole(PreprocessingPipeline(threshold=0.0), path))
            assert len(got[0].clean) == 2

    def test_error_policy_raises_the_same(self, tmp_path):
        good = (
            "- 1117838570 2005.06.03 R00 ts R00 RAS "
            f"{_BENIGN.facility.value} INFO {_BENIGN.description}"
        )
        unknown = good.replace(_BENIGN.description, "mystery")
        path = _write(tmp_path, [good] * 3 + [unknown])
        with pytest.raises(ValueError) as expected:
            _whole(PreprocessingPipeline(unknown="error"), path)
        with pytest.raises(ValueError) as got:
            _chunked(PreprocessingPipeline(unknown="error"), path, 2)
        assert str(got.value) == str(expected.value)

    def test_synthetic_trace_and_output_file(self, tmp_path):
        raw = generate_log(
            ANL_PROFILE, GeneratorConfig(scale=0.02, weeks=3, seed=5, duplicates=True)
        ).raw
        path = tmp_path / "raw.log"
        parser.dump_log(raw, path)
        whole = _whole(PreprocessingPipeline(), path)
        _assert_same(_chunked(PreprocessingPipeline(), path, 997), whole)
        out = tmp_path / "clean.log"
        with mock.patch.object(parser, "CHUNK_LINES", 997):
            written = PreprocessingPipeline().run_file(path, output=out)
        assert written.clean is None
        assert written.filtering == whole[0].filtering
        expected = "".join(format_line(e, 0.0) + "\n" for e in whole[0].clean)
        assert out.read_text() == expected


class TestOutOfOrder:
    def _lines(self):
        line = (
            "- {t} 2005.06.03 {loc} ts {loc} RAS "
            f"{_BENIGN.facility.value} INFO {_BENIGN.description}"
        )
        times = [100, 105, 103, 400, 50, 50, 900, 120]
        locations = ["R00", "R01", "R00", "R00", "R01", "R00", "R00", "R01"]
        return [
            line.format(t=1_117_838_000 + t, loc=loc)
            for t, loc in zip(times, locations)
        ]

    @pytest.mark.parametrize("chunk_lines", [1, 2, 3, 4])
    def test_falls_back_to_whole_file(self, tmp_path, chunk_lines):
        path = _write(tmp_path, self._lines())
        loads = []

        def spy(*args, **kwargs):
            loads.append(args)
            return load_log(*args, **kwargs)

        with mock.patch.object(pipeline_module, "load_log", spy):
            got = _chunked(PreprocessingPipeline(), path, chunk_lines)
        assert len(loads) == 1
        _assert_same(got, _whole(PreprocessingPipeline(), path))

    def test_disorder_within_a_chunk_is_sorted_in_place(self, tmp_path):
        path = _write(tmp_path, self._lines())
        with mock.patch.object(pipeline_module, "load_log") as spy:
            got = _chunked(PreprocessingPipeline(), path, 8)
        spy.assert_not_called()
        _assert_same(got, _whole(PreprocessingPipeline(), path))

    def test_fallback_rewrites_output(self, tmp_path):
        path = _write(tmp_path, self._lines())
        out = tmp_path / "clean.log"
        with mock.patch.object(parser, "CHUNK_LINES", 2):
            PreprocessingPipeline().run_file(path, output=out)
        whole, _ = _whole(PreprocessingPipeline(), path)
        assert out.read_text() == "".join(
            format_line(e, 0.0) + "\n" for e in whole.clean
        )


# -- the filter kernel over chunks ----------------------------------------


@st.composite
def key_rows(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    gap = st.sampled_from([0, 0, 1, 4, 5, 6, 300, 301, 900])
    gaps = draw(st.lists(gap, min_size=n, max_size=n))
    times = np.cumsum(np.array(gaps, dtype=np.float64))
    pick = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    job = np.array(draw(pick), dtype=np.int64) + 10
    identity = [f"id{i}" for i in draw(pick)]
    location = [f"L{i}" for i in draw(pick)]
    return times, job, identity, location


def _codes(values):
    """A key column: ``(codes, cardinality)``."""
    table = {}
    return encode(values, table), max(len(table), 1)


def _local(values):
    """Chunk-local codes and table, so the carry must match by value."""
    table = {}
    return encode(values, table), list(table)


class TestChunkFilter:
    @settings(max_examples=200, deadline=None)
    @given(
        key_rows(),
        st.integers(min_value=1, max_value=9),
        st.sampled_from([0.0, 5.0, 300.0]),
        st.booleans(),
    )
    def test_chunks_equal_whole(self, rows, size, threshold, dedup):
        times, job, identity, location = rows
        cols = KeyColumns(
            times, _codes(job.tolist()), _codes(identity), _codes(location)
        )
        expected = cols.all_rows()
        if dedup:
            expected = dedup_rows(cols, expected)
        expected = compress_rows(cols, expected, threshold)
        kernel = ChunkFilter(threshold, dedup)
        got = []
        for a in range(0, len(times), size):
            b = a + size
            kept = kernel.feed(
                times[a:b], job[a:b], _local(identity[a:b]), _local(location[a:b])
            )
            got.extend((kept + a).tolist())
        assert got == expected.tolist()

    def test_idle_groups_leave_the_carry(self):
        kernel = ChunkFilter(300.0)

        def feed(t, location):
            return kernel.feed(
                np.array([t]), np.array([0]), (np.array([0]), ["x"]),
                (np.array([0]), [location]),
            )

        feed(0.0, "A")
        feed(200.0, "B")
        assert {k[2] for k in kernel.temporal} == {"A", "B"}
        feed(450.0, "B")
        assert {k[2] for k in kernel.temporal} == {"B"}
        assert len(kernel.spatial) == 1


# -- bounded memory --------------------------------------------------------


class TestBoundedMemory:
    # With per-row tails every message is distinct, so nothing keyed by
    # message (a categorizer memo, say) may outlive its chunk.
    @pytest.mark.parametrize("distinct_messages", [False, True])
    def test_chunked_peak_does_not_grow_with_input(
        self, tmp_path, distinct_messages
    ):
        raw = generate_log(
            ANL_PROFILE, GeneratorConfig(scale=0.02, weeks=2, seed=9, duplicates=True)
        ).raw
        base = [format_line(e) for e in raw.events[:5000]]
        span = raw.span[1] - raw.span[0] + 3600

        def tiled(n_rows: int) -> Path:
            path = tmp_path / f"raw-{n_rows}.log"
            with open(path, "w") as fh:
                for k in range(n_rows // len(base)):
                    shift = int(k * span)
                    for i, line in enumerate(base):
                        label, epoch, rest = line.split(" ", 2)
                        tail = f" 0x{k * len(base) + i:x}" if distinct_messages else ""
                        fh.write(f"{label} {int(epoch) + shift} {rest}{tail}\n")
            return path

        def peak(path: Path) -> int:
            pipe = PreprocessingPipeline()
            with mock.patch.object(parser, "CHUNK_LINES", 2000):
                tracemalloc.start()
                try:
                    pipe.run_file(path, output=tmp_path / "clean.log")
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        small, large = tiled(20_000), tiled(80_000)
        peak(small)  # warm the interpreter's caches
        assert peak(large) < 1.25 * peak(small)
