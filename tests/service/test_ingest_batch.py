"""Batched fleet ingest and the idempotent-close lifecycle contract."""

import pytest

from repro import faults
from repro.faults import FaultInjected, FaultPlan, ShardKill
from repro.service import PredictionService, ShardDown
from tests.conftest import make_event
from tests.service.test_service import (
    LOCS,
    fast_config,
    fleet_events,
)


def batched(events, size):
    for i in range(0, len(events), size):
        yield events[i : i + size]


class TestIngestBatch:
    def test_matches_per_event_ingest(self, catalog):
        events = fleet_events()
        reference = PredictionService(fast_config(), catalog=catalog)
        for event in events:
            reference.ingest(event)
        reference.flush()

        service = PredictionService(fast_config(), catalog=catalog)
        for chunk in batched(events, 64):
            service.ingest_batch(chunk)
        service.flush()

        assert service.n_ingested == reference.n_ingested
        for key in reference.shard_keys:
            assert service.warnings(key) == reference.warnings(key), key
        service.close()
        reference.close()

    def test_batch_spanning_shards_routes_each_event(self, catalog):
        service = PredictionService(fast_config(), catalog=catalog)
        service.ingest_batch(
            [
                make_event(100.0, "KERNEL-N-002", location=LOCS[0]),
                make_event(200.0, "KERNEL-N-002", location=LOCS[1]),
                make_event(300.0, "KERNEL-N-003", location=LOCS[0]),
            ]
        )
        assert service.session(LOCS[0]).n_ingested == 2
        assert service.session(LOCS[1]).n_ingested == 1
        service.close()

    def test_empty_batch_is_a_no_op(self, catalog):
        service = PredictionService(fast_config(), catalog=catalog)
        assert service.ingest_batch([]) == []
        assert service.shard_keys == []
        service.close()

    def test_down_shard_rejects_whole_batch_atomically(self, catalog, tmp_path):
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=tmp_path / "fleet"
        )
        plan = FaultPlan(shard_kills=[ShardKill(shard=LOCS[0], at_count=1)])
        with faults.install(plan):
            with pytest.raises(FaultInjected):
                service.ingest(make_event(100.0, "KERNEL-N-002", location=LOCS[0]))
        assert service.down_shards == {LOCS[0]}

        batch = [
            make_event(200.0, "KERNEL-N-002", location=LOCS[1]),
            make_event(300.0, "KERNEL-N-002", location=LOCS[0]),
        ]
        with pytest.raises(ShardDown):
            service.ingest_batch(batch)
        # nothing from the batch was applied anywhere — not even to the
        # healthy shard listed before the down one
        assert LOCS[1] not in service.shard_keys
        service.close()

    def test_rejected_batch_applies_to_no_shard(self, catalog, tmp_path):
        """A sub-batch one shard's session rejects (time order) fails
        the whole batch before any shard, even one routed earlier in
        the batch, ingests or journals anything."""
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=tmp_path / "fleet"
        )
        service.ingest(make_event(50.0, "KERNEL-N-002", location=LOCS[0]))
        service.ingest(make_event(500.0, "KERNEL-N-002", location=LOCS[1]))

        def state():
            return {
                key: (
                    service.session(key).n_ingested,
                    len(service.warnings(key)),
                    service.session(key).journal.position,
                )
                for key in service.shard_keys
            }

        before = state()
        batch = [
            make_event(100.0, "KERNEL-N-003", location=LOCS[0]),
            make_event(200.0, "KERNEL-N-003", location=LOCS[1]),
        ]
        with pytest.raises(ValueError, match="time order"):
            service.ingest_batch(batch)
        assert state() == before
        # A per-event retry ingests the accepted event exactly once.
        service.ingest(batch[0])
        with pytest.raises(ValueError, match="time order"):
            service.ingest(batch[1])
        assert service.session(LOCS[0]).n_ingested == 2
        assert service.session(LOCS[0]).journal.position == 2
        assert service.session(LOCS[1]).n_ingested == 1
        service.close()

    def test_mid_batch_fault_isolates_to_its_shard(self, catalog, tmp_path):
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=tmp_path / "fleet"
        )
        plan = FaultPlan(shard_kills=[ShardKill(shard=LOCS[0], at_count=2)])
        batch = [
            make_event(100.0, "KERNEL-N-002", location=LOCS[0]),
            make_event(160.0, "KERNEL-N-003", location=LOCS[0]),
            make_event(200.0, "KERNEL-N-002", location=LOCS[1]),
        ]
        with faults.install(plan):
            with pytest.raises(FaultInjected):
                service.ingest_batch(batch)
        assert service.down_shards == {LOCS[0]}
        # the victim shard is down; others keep serving
        service.ingest(make_event(300.0, "KERNEL-N-002", location=LOCS[1]))
        with pytest.raises(ShardDown):
            service.ingest(make_event(400.0, "KERNEL-N-002", location=LOCS[0]))
        service.close()


class TestCloseLifecycle:
    def test_close_is_idempotent(self, catalog):
        service = PredictionService(fast_config(), catalog=catalog)
        service.ingest(make_event(100.0, "KERNEL-N-002"))
        assert not service.closed
        service.close()
        assert service.closed
        service.close()  # second close must be a no-op, not an error
        assert service.closed

    def test_use_after_close_is_rejected(self, catalog):
        service = PredictionService(fast_config(), catalog=catalog)
        service.close()
        with pytest.raises(RuntimeError):
            service.ingest(make_event(100.0, "KERNEL-N-002"))
        with pytest.raises(RuntimeError):
            service.ingest_batch([make_event(100.0, "KERNEL-N-002")])
        with pytest.raises(RuntimeError):
            service.advance(1000.0)
        with pytest.raises(RuntimeError):
            service.flush()

    def test_context_manager_closes(self, catalog):
        with PredictionService(fast_config(), catalog=catalog) as service:
            service.ingest(make_event(100.0, "KERNEL-N-002"))
        assert service.closed
