"""Client-side bookkeeping, retry policy, and served streams."""

import random

import pytest

from repro import faults
from repro.faults import FaultPlan, ShardKill
from repro.net import protocol
from repro.net.client import (
    PredictionClient,
    Rejected,
    RetryPolicy,
    _ClientCore,
)
from repro.net.server import serve_in_thread
from repro.observe import MetricsRegistry, use_registry
from repro.service import PredictionService
from tests.conftest import make_event
from tests.net.conftest import (
    PRECURSOR_A,
    assert_same_warnings,
    fast_config,
    fleet_events,
    reference_run,
)


class TestClientCore:
    """The client's protocol ledger needs no sockets to be tested."""

    def make_unacked(self, core, n):
        events = [make_event(100.0 + i, PRECURSOR_A) for i in range(n)]
        for event in events:
            core._unacked[core.next_seq()] = event
        return events

    def test_ack_retires_in_any_order(self):
        core = _ClientCore()
        events = self.make_unacked(core, 3)
        core.note_response({"type": "ack", "seq": 2})
        assert core.unacked_events == [events[0], events[2]]
        core.note_response({"type": "ack", "seq": 1})
        core.note_response({"type": "ack", "seq": 3})
        assert core.n_unacked == 0
        assert core.rejected == []

    def test_unacked_tail_keeps_send_order(self):
        core = _ClientCore()
        events = self.make_unacked(core, 4)
        core.note_response({"type": "ack", "seq": 1})
        # seqs 2..4 never answered: the replay tail, in send order
        assert core.unacked_events == events[1:]

    def test_overloaded_and_error_become_rejections(self):
        core = _ClientCore()
        events = self.make_unacked(core, 2)
        core.note_response(
            {"type": "overloaded", "seq": 1, "scope": "shard"}
        )
        core.note_response(
            {"type": "error", "seq": 2, "code": protocol.ERR_BAD_EVENT}
        )
        assert core.n_unacked == 0
        shed, bad = core.rejected
        assert shed.event == events[0] and shed.overloaded
        assert bad.event == events[1] and not bad.overloaded

    def test_draining_error_counts_as_overloaded(self):
        rejection = Rejected(
            seq=1,
            event=make_event(1.0, PRECURSOR_A),
            frame={"type": "error", "code": protocol.ERR_DRAINING},
        )
        assert rejection.overloaded

    def test_pushed_warnings_and_bye_are_not_responses(self):
        core = _ClientCore()
        assert core.note_response(
            {"type": "warning", "warning": {"x": 1}}
        ) is None
        assert core.note_response({"type": "bye"}) is None
        assert core.warnings == [{"x": 1}]
        assert core.said_bye

    def test_ack_warnings_accumulate(self):
        core = _ClientCore()
        core.note_response(
            {"type": "ack", "seq": 9, "warnings": [{"a": 1}, {"b": 2}]}
        )
        assert core.warnings == [{"a": 1}, {"b": 2}]


@pytest.mark.net
class TestServedStream:
    def test_stream_matches_in_process(self, catalog):
        events = fleet_events(weeks=4)
        service = PredictionService(fast_config(), shards=2, catalog=catalog)
        with serve_in_thread(service, batch_size=16) as server:
            with PredictionClient(server.host, server.port) as client:
                acked = client.stream(events)
                client.flush()
                health = client.health()
                snapshot = client.metrics()
        assert acked == len(events)
        assert health["status"] == "ok"
        assert snapshot["net.events"]["value"] >= len(events)
        assert_same_warnings(service, reference_run(events, catalog=catalog))


@pytest.mark.net
class TestSyncClientWindow:
    def test_pipeline_window_is_respected(self, catalog):
        service = PredictionService(fast_config(), shards=2, catalog=catalog)
        events = fleet_events(weeks=3)
        with serve_in_thread(service, batch_size=8) as server:
            with PredictionClient(
                server.host, server.port, window=4
            ) as client:
                for event in events:
                    client.send_event(event)
                    assert client.core.n_unacked <= 4
                assert client.wait_all() == []
        assert service.n_ingested == len(events)


class TestRetryPolicy:
    """The backoff schedule itself — no sockets needed."""

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="positive"):
            RetryPolicy(base=0.0)
        with pytest.raises(ValueError, match="positive"):
            RetryPolicy(cap=-1.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_delay_doubles_then_caps(self):
        policy = RetryPolicy(base=0.1, cap=0.4, jitter=0.0)
        rng = random.Random(7)
        delays = [policy.delay(k, rng) for k in (1, 2, 3, 4, 5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.4, 0.4])

    def test_jitter_only_shaves(self):
        # jittered delays stay within (raw*(1-jitter), raw]: backoff
        # never waits LONGER than the schedule, only de-synchronizes
        policy = RetryPolicy(base=0.1, cap=10.0, jitter=0.5)
        rng = random.Random(42)
        for attempt in (1, 2, 3, 4):
            raw = min(policy.cap, policy.base * 2 ** (attempt - 1))
            for _ in range(100):
                delay = policy.delay(attempt, rng)
                assert raw * (1 - policy.jitter) <= delay <= raw


@pytest.mark.net
class TestClientRetry:
    def burst(self, n=64):
        """A one-shard burst (cap-bound, so shedding is certain);
        timestamps strictly increase."""
        return [
            make_event(100.0 + i, PRECURSOR_A, record_id=i)
            for i in range(n)
        ]

    def test_shed_events_retry_until_acked(self, catalog):
        """A tight server sheds under a pipelined burst; the client's
        backoff re-sends ride it out — the caller sees zero rejections
        and every event lands exactly once."""
        registry = MetricsRegistry()
        slack = 1000.0  # re-sends land out of arrival order
        events = self.burst()
        with use_registry(registry):
            service = PredictionService(
                fast_config(reorder_slack=slack), shards=2, catalog=catalog
            )
            with serve_in_thread(
                service, batch_size=16, max_linger=0.001, max_pending=16
            ) as server:
                with PredictionClient(
                    server.host,
                    server.port,
                    timeout=60.0,
                    window=len(events),
                    retry=RetryPolicy(max_attempts=20, base=0.01, cap=0.05),
                ) as client:
                    assert client.stream(events) == len(events)
                    client.flush()
        # the point of the test: load really was shed, then re-won
        assert registry.snapshot()['net.shed{scope="shard"}']["value"] > 0
        assert service.n_ingested == len(events)

    def test_shard_down_retries_then_gives_up(self, catalog, tmp_path):
        """Against an unsupervised fleet whose shard stays dead, the
        client spends exactly max_attempts sends with backoff sleeps in
        between, then surfaces the rejection."""
        service = PredictionService(
            fast_config(),
            shards=1,
            catalog=catalog,
            fleet_dir=tmp_path / "fleet",
            journal_fsync="never",
        )
        plan = FaultPlan(shard_kills=[ShardKill(shard="shard-000", at_count=1)])
        with faults.install(plan):
            with serve_in_thread(service, supervise=False) as server:
                with PredictionClient(
                    server.host,
                    server.port,
                    retry=RetryPolicy(max_attempts=3, base=0.001),
                ) as client:
                    sleeps = []
                    client._sleep = sleeps.append
                    client.send_event(make_event(100.0, PRECURSOR_A))
                    rejected = client.wait_all()
        assert len(rejected) == 1
        assert rejected[0].frame["code"] == protocol.ERR_SHARD_DOWN
        assert rejected[0].transient  # gave up on attempts, not on type
        # one backoff sleep per re-send: attempts 2 and 3
        assert len(sleeps) == 2
        assert all(0 < s <= 0.002 for s in sleeps)

    def test_non_transient_rejection_is_never_retried(self, catalog):
        service = PredictionService(fast_config(), shards=1, catalog=catalog)
        with serve_in_thread(service) as server:
            with PredictionClient(server.host, server.port) as client:
                sleeps = []
                client._sleep = sleeps.append
                client.send_event(make_event(100.0, PRECURSOR_A))
                assert client.wait_all() == []
                # stale event: ValueError -> bad_event, a final answer
                client.send_event(make_event(50.0, PRECURSOR_A))
                rejected = client.wait_all()
        assert len(rejected) == 1
        assert rejected[0].frame["code"] == protocol.ERR_BAD_EVENT
        assert not rejected[0].transient
        assert sleeps == []
