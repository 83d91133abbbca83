"""Self-time arithmetic, the stage ledger and trace-point patching."""

import math

import pytest

from perfbench import tracing
from perfbench.layers import layer_metrics, ledger_metrics, ledger_rows
from perfbench.loadgen import LoadResult
from perfbench.tracing import Span, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(2, 3), (2.5, 2.8)], 0, 10) == pytest.approx(1.0)


def test_self_time_on_a_span_tree():
    spans = [
        Span(1, "root", 0.0, 10.0, 0),
        # Two children overlapping in time (different threads) and one
        # running past its parent's end.
        Span(2, "child", 1.0, 3.0, 1),
        Span(3, "child", 2.0, 5.0, 1),
        Span(4, "late", 8.0, 12.0, 1),
        Span(5, "leaf", 1.5, 2.0, 2),
        Span(6, "other", 20.0, 21.0, 0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 6.0)
    # child 2 loses its grandchild's 0.5 s; child 3 has no children
    assert own["child"] == pytest.approx((2.0 - 0.5) + 3.0)
    assert own["late"] == pytest.approx(4.0)
    assert own["leaf"] == pytest.approx(0.5)
    assert own["other"] == pytest.approx(1.0)


def test_learner_metrics_count_the_traced_set_up():
    setup, timed = Tracer(), Tracer()
    setup.spans += [
        Span(1, "meta.train", 0.0, 2.0, 0),
        Span(2, "reviser.revise", 2.0, 2.5, 0, info=(3, 1)),
    ]
    timed.spans += [
        Span(1, "meta.train", 5.0, 5.5, 0),
        Span(2, "service.commit", 6.0, 6.25, 0, info=[None] * 4),
    ]
    metrics = layer_metrics(timed, {}, setup)
    assert metrics["meta.train_calls"] == 2.0
    assert metrics["meta.train_s"] == pytest.approx(2.5)
    assert metrics["meta.train_max_s"] == pytest.approx(2.0)
    assert metrics["reviser.revise_s"] == pytest.approx(0.5)
    assert metrics["reviser.kept_ratio"] == pytest.approx(0.75)
    # Only the learners look at the set-up; the rest is the timed phase.
    assert metrics["service.batch_events_mean"] == 4.0
    assert layer_metrics(timed, {})["meta.train_calls"] == 1.0


class _Event:
    def __init__(self, i):
        self.record_id, self.timestamp, self.location = i, float(i), "R00"


def test_ledger_stages_add_up_to_each_ack():
    events = [_Event(0), _Event(1), _Event(2)]
    keys = [(e.record_id, e.timestamp, e.location) for e in events]
    load = LoadResult(
        scheduled=[0.0, 0.1, 0.2],
        sent=[0.001, 0.1, 0.2],
        acked=[0.05, 0.16, float("nan")],  # event 2 was never acked
    )
    spans = [
        Span(1, "net.decode", 0.001, 0.002, 0, rid=0),
        Span(2, "net.decode", 0.1, 0.102, 0, rid=1),
        Span(3, "service.commit", 0.03, 0.04, 0, info=events[:1]),
        Span(4, "service.commit", 0.11, 0.12, 0, info=events[1:2]),
    ]
    rows, lost, total = ledger_rows(spans, load, keys)
    assert lost == 0.0
    assert total == pytest.approx(0.05 + 0.06)
    assert len(rows) == 2
    for latency, stages in rows:
        assert min(stages.values()) >= 0
        assert sum(stages.values()) == pytest.approx(latency)
    first = rows[0][1]
    assert first["batch_wait"] == pytest.approx(0.028)
    assert first["return"] == pytest.approx(0.01)
    metrics = ledger_metrics(rows, lost, total)
    assert metrics["ledger.unattributed_share"] == 0.0
    assert metrics["ledger.ack_ms"] == pytest.approx(
        sum(metrics[f"ledger.{s}_ms"] for s in
            ("late", "wire", "batch_wait", "commit", "return"))
    )


def test_ledger_counts_unmatched_events_as_unattributed():
    events = [_Event(0), _Event(1)]
    keys = [(e.record_id, e.timestamp, e.location) for e in events]
    load = LoadResult([0.0, 0.0], [0.0, 0.0], [0.03, 0.01])
    spans = [
        Span(1, "net.decode", 0.0, 0.001, 0, rid=0),
        Span(2, "service.commit", 0.01, 0.02, 0, info=events[:1]),
    ]
    rows, lost, total = ledger_rows(spans, load, keys)
    assert len(rows) == 1
    assert ledger_metrics(rows, lost, total)["ledger.unattributed_share"] == (
        pytest.approx(0.01 / 0.04)
    )


def test_installed_patches_and_restores_trace_points():
    from repro.net import protocol

    original = protocol.decode_frame
    tracer = Tracer()
    with tracer.installed():
        assert protocol.decode_frame is not original
        protocol.decode_frame(b'{"type": "ingest", "seq": 7}')
        protocol.decode_frame(b'{"type": "health", "seq": 8}')
    assert protocol.decode_frame is original
    decodes = [s for s in tracer.spans if s.name == "net.decode"]
    assert [s.rid for s in decodes] == [7, None]
    assert all(s.end >= s.start and s.parent == 0 for s in decodes)


def test_nested_calls_record_their_parent():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert not math.isnan(by_name["outer"].seconds)


def test_every_trace_point_exists():
    tracer = Tracer()
    with tracer.installed():
        pass
    assert len({name for _, _, name, _, _ in tracing.TRACE_POINTS}) >= 14
