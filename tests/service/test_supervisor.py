"""Unit tests for the shard supervisor: backoff, circuit breaker,
rolling restarts.

The supervisor is a pull-model control loop with an injectable clock,
so every schedule here is deterministic: the tests *are* the timeline.
"""

import pytest

from repro import faults
from repro.core.framework import FrameworkConfig
from repro.faults import FaultInjected, FaultPlan, ShardKill
from repro.observe import MetricsRegistry, use_registry
from repro.service import (
    HashRouter,
    PredictionService,
    ShardDown,
    ShardSupervisor,
)
from tests.conftest import make_event

PRECURSOR_A = "KERNEL-N-002"
LOCS = ["R00-M0-N00", "R01-M1-N01", "R02-M0-N03", "R03-M1-N07"]


def fast_config(**overrides):
    return FrameworkConfig(
        initial_train_weeks=2, retrain_weeks=2, **overrides
    )


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


def durable_service(tmp_path, catalog, shards=2):
    return PredictionService(
        fast_config(),
        router=HashRouter(shards),
        catalog=catalog,
        fleet_dir=tmp_path / "fleet",
        journal_fsync="never",
    )


def seed(service, n=12, start=100.0):
    for i in range(n):
        service.ingest(
            make_event(
                start + i, PRECURSOR_A, location=LOCS[i % 4], record_id=i
            )
        )


def victim_for(service, key):
    """A location the router sends to ``key``."""
    for i in range(256):
        loc = f"R{i:02d}-M0-N{i % 10:02d}"
        if service.router.key(make_event(0.0, location=loc)) == key:
            return loc
    raise AssertionError(f"no location routes to {key}")


def kill_shard(service, key):
    """Crash one shard via fault injection; the service marks it down."""
    at = service._shards[key].routed + 1
    plan = FaultPlan(shard_kills=[ShardKill(shard=key, at_count=at)])
    with faults.install(plan):
        with pytest.raises(FaultInjected):
            service.ingest(
                make_event(
                    999.0, PRECURSOR_A, location=victim_for(service, key)
                )
            )
    assert key in service.down_shards


class TestRestore:
    def test_downed_shard_restored_after_backoff(self, catalog, tmp_path):
        service = durable_service(tmp_path, catalog)
        seed(service)
        clock = FakeClock()
        sup = ShardSupervisor(
            service, backoff_base=1.0, backoff_cap=8.0, clock=clock
        )
        key = service.shard_keys[0]
        kill_shard(service, key)

        # tick 0: crash observed, restore scheduled at +1.0, nothing due
        assert sup.poll() == []
        assert key in service.down_shards
        health = sup.status()[key]
        assert health.state == "down"
        assert health.next_attempt == pytest.approx(1.0)

        # before the backoff expires nothing happens
        clock.now = 0.5
        assert sup.poll() == []
        # at the deadline the shard is restored without operator action
        clock.now = 1.0
        assert sup.poll() == [key]
        assert key not in service.down_shards
        assert sup.status()[key].state == "up"
        assert sup.status()[key].restarts == 1
        service.close()

    def test_restore_failure_backs_off_exponentially(
        self, catalog, tmp_path, monkeypatch
    ):
        service = durable_service(tmp_path, catalog)
        seed(service)
        clock = FakeClock()
        sup = ShardSupervisor(
            service, backoff_base=1.0, backoff_cap=4.0,
            max_restarts=10, clock=clock,
        )
        key = service.shard_keys[0]
        kill_shard(service, key)

        calls = []

        def broken_restore(k):
            calls.append(k)
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(service, "restore_shard", broken_restore)
        sup.poll()  # schedules at +1.0
        deadlines = []
        for _ in range(4):
            entry = sup.status()[key]
            deadlines.append(entry.next_attempt - clock.now)
            clock.now = entry.next_attempt
            sup.poll()
        # 1, 2, 4, then capped at 4
        assert deadlines == [
            pytest.approx(1.0),
            pytest.approx(2.0),
            pytest.approx(4.0),
            pytest.approx(4.0),
        ]
        assert sup.status()[key].last_error == "disk on fire"
        assert len(calls) == 4
        service.close()

    def test_crash_window_resets_consecutive_count(self, catalog, tmp_path):
        service = durable_service(tmp_path, catalog)
        seed(service)
        clock = FakeClock()
        sup = ShardSupervisor(
            service, backoff_base=1.0, crash_window=60.0, clock=clock
        )
        key = service.shard_keys[0]

        kill_shard(service, key)
        sup.poll()
        clock.now = 1.0
        assert sup.poll() == [key]

        # next crash long after the window: consecutive count restarts
        clock.now = 1000.0
        kill_shard(service, key)
        sup.poll()
        assert sup.status()[key].crashes == 1
        assert sup.status()[key].next_attempt == pytest.approx(1001.0)
        service.close()


class TestCircuitBreaker:
    def test_flapping_shard_lands_in_quarantine(self, catalog, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            service = durable_service(tmp_path, catalog)
            seed(service)
            clock = FakeClock()
            sup = ShardSupervisor(
                service,
                backoff_base=1.0,
                backoff_cap=1.0,
                max_restarts=3,
                crash_window=1e9,
                clock=clock,
            )
            key = service.shard_keys[0]
            kill_shard(service, key)
            # every restore succeeds, but the shard dies again at once
            for _ in range(3):
                sup.poll()
                clock.now = sup.status()[key].next_attempt
                assert sup.poll() == [key]
                kill_shard(service, key)
            # 4th consecutive crash > max_restarts: circuit opens
            sup.poll()
            health = sup.status()[key]
            assert health.state == "quarantined"
            assert health.next_attempt is None
            # no more automatic restores, ever
            clock.now += 1e6
            assert sup.poll() == []
            assert key in service.down_shards
            snapshot = registry.snapshot()
        assert snapshot[f'fleet.quarantines{{shard="{key}"}}']["value"] == 1
        assert snapshot["fleet.quarantined"]["value"] == 1
        service.close()

    def test_release_closes_the_circuit(self, catalog, tmp_path):
        service = durable_service(tmp_path, catalog)
        seed(service)
        clock = FakeClock()
        sup = ShardSupervisor(
            service, backoff_base=1.0, max_restarts=1, clock=clock
        )
        key = service.shard_keys[0]
        sup.quarantine(key)
        kill_shard(service, key)
        assert sup.poll() == []
        assert sup.status()[key].state == "quarantined"

        sup.release(key)
        assert sup.status()[key].crashes == 0
        assert sup.poll() == [key]
        assert sup.status()[key].state == "up"
        service.close()

    def test_events_for_quarantined_shard_fail_typed(self, catalog, tmp_path):
        service = durable_service(tmp_path, catalog)
        seed(service)
        sup = ShardSupervisor(service, clock=FakeClock())
        key = service.shard_keys[0]
        kill_shard(service, key)
        sup.quarantine(key)
        victim = next(
            loc
            for loc in LOCS
            if service.router.key(make_event(0.0, location=loc)) == key
        )
        with pytest.raises(ShardDown):
            service.ingest(
                make_event(2000.0, PRECURSOR_A, location=victim)
            )
        service.close()


def rolling_restart(sup):
    """The served rolling restart: each shard of the supervisor's plan,
    one at a time, through ``PredictionService.restart_shard``."""
    plan = sup.restart_plan()
    for key in plan:
        sup.service.restart_shard(key)
    return plan


class TestRollingRestart:
    def test_restarts_every_up_shard_in_order(self, catalog, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            service = durable_service(tmp_path, catalog)
            seed(service)
            sup = ShardSupervisor(service, clock=FakeClock())
            before = {
                k: service.session(k).n_ingested
                for k in service.shard_keys
            }
            restarted = rolling_restart(sup)
            assert restarted == service.shard_keys
            assert not service.down_shards
            after = {
                k: service.session(k).n_ingested
                for k in service.shard_keys
            }
            snapshot = registry.snapshot()
        assert after == before
        for key in restarted:
            series = f'service.rolling_restarts{{shard="{key}"}}'
            assert snapshot[series]["value"] == 1
        service.close()

    def test_skips_down_and_quarantined(self, catalog, tmp_path):
        service = durable_service(tmp_path, catalog, shards=3)
        for i in range(24):
            service.ingest(
                make_event(
                    100.0 + i,
                    PRECURSOR_A,
                    location=f"R{i % 8:02d}-M0-N00",
                    record_id=i,
                )
            )
        sup = ShardSupervisor(service, clock=FakeClock())
        down_key = service.shard_keys[0]
        quarantined_key = service.shard_keys[1]
        kill_shard(service, down_key)
        sup.quarantine(quarantined_key)
        plan = sup.restart_plan()
        assert down_key not in plan
        assert quarantined_key not in plan
        assert rolling_restart(sup) == plan
        service.close()

    def test_restart_continues_ingesting_after(self, catalog, tmp_path):
        service = durable_service(tmp_path, catalog)
        seed(service)
        sup = ShardSupervisor(service, clock=FakeClock())
        rolling_restart(sup)
        seed(service, start=500.0)  # the stream continues post-restart
        assert service.n_ingested == 24
        service.close()
