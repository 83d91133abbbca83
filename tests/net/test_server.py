"""Socket tests for :class:`PredictionServer` via the thread harness."""

import socket
import threading
import time
import zlib

import pytest

from repro.net import protocol
from repro.net.client import PredictionClient
from repro.net.protocol import decode_frame, encode_frame
from repro.net.server import PredictionServer, serve_in_thread
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

pytestmark = pytest.mark.net


def make_service(catalog, **kwargs):
    kwargs.setdefault("shards", 2)
    return PredictionService(fast_config(), catalog=catalog, **kwargs)


class TestIngestPath:
    def test_ack_after_commit_and_counters(self, catalog):
        registry = MetricsRegistry()
        events = fleet_events(weeks=3)
        with use_registry(registry):
            service = make_service(catalog)
            with serve_in_thread(service, batch_size=8) as server:
                with PredictionClient(server.host, server.port) as client:
                    acked = client.stream(events)
                    client.flush()
                    health = client.health()
        assert acked == len(events)
        assert health["status"] == "ok"
        assert health["accepted"] == len(events)
        assert health["shards"] == 2
        snapshot = registry.snapshot()
        assert snapshot["net.events"]["value"] == len(events)
        # batch_size=8 over hundreds of events: real micro-batches formed
        assert 1 < snapshot["net.batches"]["value"] < len(events)
        assert snapshot["net.batch_size"]["max"] <= 8
        assert snapshot["net.ingest_latency"]["count"] == len(events)

    def test_linger_flushes_partial_batches(self, catalog):
        # A batch far below batch_size must still commit via the linger
        # deadline — an ack proves the timer path, not the size path.
        service = make_service(catalog)
        with serve_in_thread(
            service, batch_size=10_000, max_linger=0.01
        ) as server:
            with PredictionClient(server.host, server.port) as client:
                response = client.ingest(make_event(100.0, PRECURSOR_A))
                assert response["type"] == "ack"

    def test_served_equals_in_process(self, catalog):
        events = fleet_events(weeks=4)
        service = make_service(catalog)
        with serve_in_thread(service, batch_size=16) as server:
            with PredictionClient(server.host, server.port) as client:
                assert client.stream(events) == len(events)
                client.flush()
        assert_same_warnings(service, reference_run(events, catalog=catalog))

    def test_concurrent_producers_equal_in_process(self, catalog):
        # One producer per shard key hash: each shard sees its events in
        # stream order, so the fleet must be bit-identical to the
        # in-process run — the serving layer is pure transport.
        events = fleet_events(weeks=4)
        n_producers = 3
        service = make_service(catalog)
        partitions = [[] for _ in range(n_producers)]
        for event in events:
            key = service.router.key(event)
            partitions[zlib.crc32(key.encode()) % n_producers].append(event)

        def produce(host, port, part):
            with PredictionClient(host, port, timeout=60.0) as client:
                assert client.stream(part) == len(part)

        with serve_in_thread(service, batch_size=16) as server:
            threads = [
                threading.Thread(
                    target=produce, args=(server.host, server.port, part)
                )
                for part in partitions
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with PredictionClient(server.host, server.port) as tail:
                tail.flush()
        assert_same_warnings(service, reference_run(events, catalog=catalog))


class TestBackpressure:
    def test_connection_unacked_cap_sheds_load(self, catalog):
        # Commits can't happen (huge batch, long linger), so unacked
        # ingests pile up and the third must be shed explicitly.
        registry = MetricsRegistry()
        with use_registry(registry):
            service = make_service(catalog)
            with serve_in_thread(
                service, batch_size=10_000, max_linger=30.0, max_unacked=2
            ) as server:
                with PredictionClient(
                    server.host, server.port, window=64, retry=None
                ) as client:
                    for i in range(5):
                        client.send_event(
                            make_event(100.0 + i, PRECURSOR_A)
                        )
                    client.flush()  # commits the two pending events
                    rejected = client.wait_all()
                    health = client.health()
        assert len(rejected) == 3
        assert all(r.overloaded for r in rejected)
        assert all(r.frame["scope"] == "connection" for r in rejected)
        assert health["accepted"] == 2
        assert registry.snapshot()[
            'net.shed{scope="connection"}'
        ]["value"] == 3
        # shed events are exactly the re-send set
        shed_times = {r.event.timestamp for r in rejected}
        assert shed_times == {102.0, 103.0, 104.0}

    def test_shard_pending_cap_sheds_load(self, catalog):
        registry = MetricsRegistry()
        with use_registry(registry):
            service = make_service(catalog, shards=1)
            with serve_in_thread(
                service, batch_size=10_000, max_linger=30.0, max_pending=2
            ) as server:
                with PredictionClient(
                    server.host, server.port, retry=None
                ) as client:
                    for i in range(4):
                        client.send_event(
                            make_event(100.0 + i, PRECURSOR_A)
                        )
                    client.flush()
                    rejected = client.wait_all()
        assert len(rejected) == 2
        assert all(
            r.frame["scope"] == "shard" and r.overloaded for r in rejected
        )
        assert registry.snapshot()['net.shed{scope="shard"}']["value"] == 2


class TestProtocolEdges:
    def test_garbage_frame_answered_connection_survives(self, catalog):
        service = make_service(catalog)
        with serve_in_thread(service) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as raw:
                fh = raw.makefile("rb")
                # malformed JSON, then an unknown frame type, then a
                # valid request — all on ONE connection: each garbage
                # frame gets a typed error and the conversation goes on
                raw.sendall(b"this is not json\n")
                reply = decode_frame(fh.readline()[:-1])
                assert reply["type"] == "error"
                assert reply["code"] == protocol.ERR_BAD_FRAME
                raw.sendall(b'{"type": "teleport", "seq": 4}\n')
                reply = decode_frame(fh.readline()[:-1])
                assert reply["type"] == "error"
                assert reply["code"] == protocol.ERR_BAD_FRAME
                # envelope was never validated, so no seq to echo
                assert reply["seq"] is None
                raw.sendall(encode_frame({"type": "health", "seq": 5}))
                assert decode_frame(fh.readline()[:-1])["status"] == "ok"

    def test_unencodable_location_is_a_typed_bad_event(self, catalog):
        # A lone surrogate is valid JSON but not UTF-8 text: it must get
        # a typed error, and the valid frame behind it on the same socket
        # must still be committed and acked.
        service = make_service(catalog)
        bad = make_event(10.0, PRECURSOR_A).as_dict()
        bad["location"] = "R00-\ud800"
        good = make_event(20.0, PRECURSOR_A).as_dict()
        with serve_in_thread(service, batch_size=1) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as raw:
                fh = raw.makefile("rb")
                raw.sendall(
                    encode_frame({"type": "ingest", "seq": 0, "event": bad})
                    + encode_frame({"type": "ingest", "seq": 1, "event": good})
                )
                reply = decode_frame(fh.readline()[:-1])
                assert reply["type"] == "error"
                assert reply["code"] == protocol.ERR_BAD_EVENT
                assert reply["seq"] == 0
                reply = decode_frame(fh.readline()[:-1])
                assert reply == {"type": "ack", "seq": 1}
        assert service.n_ingested == 1

    def test_oversized_frame_answered_connection_survives(self, catalog):
        service = make_service(catalog)
        with serve_in_thread(service, max_frame_bytes=512) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as raw:
                fh = raw.makefile("rb")
                raw.sendall(b"x" * 2048 + b"\n")
                reply = decode_frame(fh.readline()[:-1])
                assert reply["type"] == "error"
                assert reply["code"] == protocol.ERR_FRAME_TOO_LARGE
                # the connection still answers well-formed requests
                raw.sendall(encode_frame({"type": "health", "seq": 1}))
                assert decode_frame(fh.readline()[:-1])["status"] == "ok"

    def test_mid_frame_disconnect_drops_partial_event(self, catalog):
        events = fleet_events(weeks=3)
        service = make_service(catalog)
        with serve_in_thread(service, batch_size=4) as server:
            with PredictionClient(server.host, server.port) as client:
                client.stream(events)
                client.flush()
            # a producer dies mid-frame: bytes with no newline, then EOF
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as raw:
                partial = encode_frame(
                    {
                        "type": "ingest",
                        "seq": 1,
                        "event": make_event(9e9, PRECURSOR_A).as_dict(),
                    }
                )[:-10]
                raw.sendall(partial)
            with PredictionClient(server.host, server.port) as client:
                health = client.health()
        # the torn frame was never accepted; everything acked before was
        assert health["status"] == "ok"
        assert health["accepted"] == len(events)
        assert service.n_ingested == len(events)

    def test_ingest_while_draining_is_typed(self, catalog):
        service = make_service(catalog)
        with serve_in_thread(service) as server:
            with PredictionClient(server.host, server.port) as client:
                assert client.health()["status"] == "ok"
                server.request_shutdown()
                while not server.draining:
                    time.sleep(0.001)
                # once draining, a late ingest gets the typed draining
                # error — or the socket is already torn down by the bye
                try:
                    frame = client.ingest(make_event(100.0, PRECURSOR_A))
                    assert frame["code"] == protocol.ERR_DRAINING
                except ConnectionError:
                    pass
        assert server.draining
        assert service.closed


class TestSubscribers:
    def test_warning_fanout_matches_fleet(self, catalog):
        events = fleet_events(weeks=4)
        service = make_service(catalog)
        with serve_in_thread(
            service, batch_size=16, subscriber_queue=10_000
        ) as server:
            listener = PredictionClient(server.host, server.port)
            listener.subscribe()
            with PredictionClient(server.host, server.port) as client:
                client.stream(events)
                client.flush()
            # drain pushed warnings until the server says bye
            server.request_shutdown()
            pushed = list(listener.iter_warnings())
            listener.close()
        total = sum(
            len(service.warnings(key)) for key in service.shard_keys
        )
        assert total > 0
        assert len(pushed) == total

    def test_slow_subscriber_drops_do_not_stall_ingest(self, catalog):
        registry = MetricsRegistry()
        events = fleet_events(weeks=4)
        with use_registry(registry):
            service = make_service(catalog)
            with serve_in_thread(
                service, batch_size=16, subscriber_queue=1
            ) as server:
                # subscribe, then never read: the bounded fan-out queue
                # fills and warnings are dropped, not buffered forever
                lazy = socket.create_connection(
                    (server.host, server.port), timeout=10
                )
                lazy.sendall(encode_frame({"type": "subscribe", "seq": 1}))
                with PredictionClient(
                    server.host, server.port, timeout=60.0
                ) as client:
                    assert client.stream(events) == len(events)
                    client.flush()
                    health = client.health()
                lazy.close()
        assert health["status"] == "ok"
        assert health["accepted"] == len(events)
        dropped = registry.snapshot().get(
            "net.subscriber_dropped", {"value": 0}
        )["value"]
        published = registry.snapshot()["net.warnings_published"]["value"]
        assert published > 1
        assert dropped >= 1


class TestLifecycle:
    def test_constructor_validation(self, catalog):
        service = make_service(catalog)
        with pytest.raises(ValueError):
            PredictionServer(service, batch_size=0)
        with pytest.raises(ValueError):
            PredictionServer(service, max_linger=-1.0)
        with pytest.raises(ValueError):
            PredictionServer(service, checkpoint_every=0)
        with pytest.raises(ValueError):
            # periodic checkpoints need somewhere to write
            PredictionServer(service, checkpoint_every=10)
        service.close()

    def test_drain_checkpoints_durable_fleet(self, catalog, tmp_path):
        events = fleet_events(weeks=3)
        service = PredictionService(
            fast_config(), shards=2, catalog=catalog,
            fleet_dir=tmp_path / "fleet",
        )
        with serve_in_thread(service, batch_size=8) as server:
            with PredictionClient(server.host, server.port) as client:
                assert client.stream(events) == len(events)
        assert service.closed
        recovered = PredictionService.recover(
            tmp_path / "fleet", fast_config(), catalog=catalog
        )
        assert recovered.n_ingested == len(events)
        recovered.close()

    def test_stats_reported_after_drain(self, catalog):
        events = fleet_events(weeks=3)
        service = make_service(catalog)
        with serve_in_thread(service, batch_size=8) as server:
            with PredictionClient(server.host, server.port) as client:
                client.stream(events)
        assert server.stats["accepted"] == len(events)
        assert server.stats["connections"] == 1
        assert server.stats["shed"] == 0
