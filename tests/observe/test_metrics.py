"""Unit tests for the metrics/tracing subsystem."""

import json
import threading

import pytest

from repro.observe import (
    Histogram,
    MetricsRegistry,
    counter,
    get_registry,
    labels_key,
    render_name,
    set_registry,
    span,
    use_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = MetricsRegistry().counter("c")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_snapshot(self):
        c = MetricsRegistry().counter("c")
        c.inc(4)
        assert c.snapshot() == {"type": "counter", "value": 4.0}


class TestGauge:
    def test_set_and_add(self):
        g = MetricsRegistry().gauge("g")
        g.set(10.0)
        g.add(-3.0)
        assert g.value == 7.0
        assert g.snapshot() == {"type": "gauge", "value": 7.0}


class TestHistogram:
    def test_exact_stats(self):
        h = MetricsRegistry().histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["mean"] == 2.5
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0

    def test_quantiles_on_small_sample(self):
        h = MetricsRegistry().histogram("h")
        for v in range(100):
            h.observe(float(v))
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 99.0
        assert abs(h.quantile(0.5) - 50.0) <= 1.0

    def test_reservoir_bounds_memory(self):
        h = MetricsRegistry().histogram("h")
        for v in range(10_000):
            h.observe(float(v))
        assert h.count == 10_000
        assert len(h._reservoir) == h._capacity
        # The sampled p50 must land near the true median.
        assert 3_000 < h.quantile(0.5) < 7_000

    def test_reservoir_keeps_each_position_with_probability_k_over_n(self):
        # Skip-based sampling must still be uniform: over many
        # independently seeded instruments, stream position i lands in
        # the final reservoir k/n of the time.  Chi-square over the n
        # positions (n - 1 degrees of freedom) at p = 0.001.
        k, n, names = 4, 64, 4000
        kept = [0] * n
        for j in range(names):
            h = Histogram(f"h{j}", reservoir_size=k)
            for i in range(n):
                h.observe(float(i))
            for v in h._reservoir:
                kept[int(v)] += 1
        expected = names * k / n
        chi2 = sum((c - expected) ** 2 / expected for c in kept)
        assert chi2 < 103.44  # chi2.ppf(0.999, df=63)

    def test_same_name_and_stream_give_the_same_reservoir(self):
        def reservoir(name):
            h = Histogram(name, reservoir_size=16)
            for i in range(5000):
                h.observe(float(i))
            return h._reservoir

        assert reservoir("lat") == reservoir("lat")
        assert reservoir("lat") != reservoir("other")

    def test_empty_snapshot(self):
        h = MetricsRegistry().histogram("h")
        assert h.snapshot() == {"type": "histogram", "count": 0}
        assert h.quantile(0.5) == 0.0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError, match="quantile"):
            MetricsRegistry().histogram("h").quantile(1.5)

    def test_per_second_throughput(self):
        h = MetricsRegistry().histogram("h")
        h.observe(0.5)
        h.observe(0.5)
        assert h.snapshot()["per_second"] == pytest.approx(2.0)

    def test_snapshot_consistent_under_concurrent_observes(self):
        # Regression: min/max used to be read after the lock was
        # released, so a snapshot taken during a concurrent observe()
        # could tear (e.g. a max belonging to a newer count than the
        # copied sum).  Every snapshot must be internally consistent.
        h = MetricsRegistry().histogram("h")
        stop = threading.Event()
        errors: list[AssertionError] = []

        def writer():
            v = 0
            while not stop.is_set():
                v += 1
                h.observe(float(v))

        def reader():
            while not stop.is_set():
                snap = h.snapshot()
                if not snap["count"]:
                    continue
                try:
                    assert snap["min"] <= snap["mean"] <= snap["max"]
                    assert snap["min"] <= snap["p50"] <= snap["max"]
                    # The writer's n-th observation has value n, so a
                    # consistent snapshot has max == count exactly; a
                    # torn one reads a newer max than the copied count.
                    assert snap["max"] == snap["count"]
                    assert snap["sum"] <= snap["count"] * snap["max"]
                except AssertionError as exc:  # pragma: no cover - failure
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        threading.Event().wait(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not errors


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MetricsRegistry().counter("")

    def test_span_records_into_histogram(self):
        reg = MetricsRegistry()
        with reg.span("stage") as sp:
            pass
        assert sp.seconds >= 0.0
        assert reg.histogram("stage").count == 1

    def test_span_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("stage"):
                raise RuntimeError("boom")
        assert reg.histogram("stage").count == 1

    def test_span_reusable(self):
        reg = MetricsRegistry()
        sp = reg.span("stage")
        with sp:
            pass
        with sp:
            pass
        assert reg.histogram("stage").count == 2

    def test_timer_is_span(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        assert reg.histogram("t").count == 1

    def test_snapshot_and_json(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(2.0)
        snap = json.loads(reg.to_json())
        assert snap["a"]["value"] == 1.0
        assert snap["b"]["type"] == "gauge"

    def test_names_len_contains_reset(self):
        reg = MetricsRegistry()
        reg.counter("one")
        reg.counter("two")
        assert reg.names() == ["one", "two"]
        assert "one" in reg and len(reg) == 2
        reg.reset()
        assert len(reg) == 0

    def test_thread_safety_smoke(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("n").inc()
                reg.histogram("h").observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n").value == 4000
        assert reg.histogram("h").count == 4000


class TestLabels:
    def test_labels_create_independent_series(self):
        reg = MetricsRegistry()
        reg.counter("events", shard="a").inc(2)
        reg.counter("events", shard="b").inc(5)
        assert reg.counter("events", shard="a").value == 2
        assert reg.counter("events", shard="b").value == 5
        # ...and the unlabeled series is yet another instrument
        assert reg.counter("events").value == 0

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        first = reg.counter("c", a="1", b="2")
        second = reg.counter("c", b="2", a="1")
        assert first is second
        assert labels_key({"b": 2, "a": 1}) == (("a", "1"), ("b", "2"))

    def test_rendered_names(self):
        assert render_name("plain") == "plain"
        assert (
            render_name("c", (("shard", "R01"),)) == 'c{shard="R01"}'
        )
        reg = MetricsRegistry()
        reg.counter("c", shard="R01")
        assert reg.names() == ['c{shard="R01"}']
        assert "c" in reg and 'c{shard="R01"}' in reg

    def test_empty_label_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MetricsRegistry().counter("c", **{"": "v"})

    def test_snapshot_flat_for_unlabeled_nested_for_labeled(self):
        reg = MetricsRegistry()
        reg.counter("plain").inc()
        reg.counter("sharded", shard="a").inc()
        snap = reg.snapshot()
        assert "labels" not in snap["plain"]
        assert snap['sharded{shard="a"}']["labels"] == {"shard": "a"}

    def test_snapshot_order_deterministic(self):
        """Series are ordered by metric name, then label set, regardless
        of creation order — two runs of the same workload export
        byte-identical JSON."""
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a", shard="b").inc()
        reg.counter("a", shard="a").inc()
        reg.counter("a").inc()
        assert list(reg.snapshot()) == [
            "a",
            'a{shard="a"}',
            'a{shard="b"}',
            "z",
        ]
        assert reg.to_json() == reg.to_json()

    def test_series_lookup(self):
        reg = MetricsRegistry()
        reg.counter("c", shard="a").inc(1)
        reg.counter("c", shard="b").inc(2)
        reg.counter("other").inc()
        series = reg.series("c")
        assert [labels for labels, _ in series] == [
            {"shard": "a"},
            {"shard": "b"},
        ]
        assert [inst.value for _, inst in series] == [1, 2]

    def test_labeled_span_and_kind_clash(self):
        reg = MetricsRegistry()
        with reg.span("stage", shard="a"):
            pass
        assert reg.histogram("stage", shard="a").count == 1
        with pytest.raises(TypeError, match="Histogram"):
            reg.counter("stage", shard="a")

    def test_module_helpers_accept_labels(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            counter("hits", shard="x").inc()
        assert reg.counter("hits", shard="x").value == 1.0


class TestDefaultRegistry:
    def test_module_helpers_hit_current_registry(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            counter("hits").inc()
            with span("work"):
                pass
        assert reg.counter("hits").value == 1.0
        assert reg.histogram("work").count == 1
        # ... and nothing leaked once the scope closed.
        assert "hits" not in get_registry()

    def test_use_registry_restores_on_exception(self):
        before = get_registry()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_registry() is before

    def test_set_registry_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
