"""Unit tests for the fleet-level prediction service."""

import json

import pytest

from repro import faults, observe
from repro.core.framework import FrameworkConfig
from repro.faults import FaultInjected, FaultPlan, ShardKill
from repro.resilience import CheckpointError
from repro.service import PredictionService, ShardDown
from repro.service.service import (
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    SHARD_META_NAME,
    _slug,
)
from repro.utils.timeutil import WEEK_SECONDS
from tests.conftest import make_event

PRECURSOR_A = "KERNEL-N-002"
PRECURSOR_B = "KERNEL-N-003"
FATAL = "KERNEL-F-000"

LOCS = ["R00-M0-N00", "R01-M1-N01", "R02-M0-N03"]


def fast_config(**overrides):
    return FrameworkConfig(
        initial_train_weeks=2, retrain_weeks=2, **overrides
    )


def fleet_events(weeks=6, locations=LOCS):
    """Interleaved per-location pattern streams, globally time-sorted."""
    events = []
    rid = 0
    for offset, location in enumerate(locations):
        t = 600.0 + offset * 37.0
        while t + 120.0 < weeks * WEEK_SECONDS:
            for dt, code in (
                (0.0, PRECURSOR_A),
                (60.0, PRECURSOR_B),
                (120.0, FATAL),
            ):
                events.append(
                    make_event(t + dt, code, location=location, record_id=rid)
                )
                rid += 1
            t += 10_800.0
    events.sort(key=lambda e: (e.timestamp, e.record_id))
    return events


def stream(service, events):
    for event in events:
        service.ingest(event)
    service.flush()
    return service


class TestRoutingAndLifecycle:
    def test_shards_created_lazily_per_location(self, catalog):
        service = PredictionService(fast_config(), catalog=catalog)
        assert service.shard_keys == []
        service.ingest(make_event(100.0, PRECURSOR_A, location=LOCS[0]))
        service.ingest(make_event(200.0, PRECURSOR_A, location=LOCS[1]))
        service.ingest(make_event(300.0, PRECURSOR_B, location=LOCS[0]))
        assert service.shard_keys == LOCS[:2]
        assert service.n_ingested == 3
        assert service.session(LOCS[0]).n_ingested == 2

    def test_warnings_come_from_the_owning_shard(self, catalog):
        service = stream(
            PredictionService(fast_config(), catalog=catalog), fleet_events()
        )
        summary = service.summary()
        assert set(summary.shards) == set(LOCS)
        for key in LOCS:
            assert service.warnings(key) == service.session(key).warnings
            assert all(w in service.session(key).warnings
                       for w in service.warnings(key))
        assert summary.n_events == len(fleet_events())
        assert summary.n_warnings > 0
        assert summary.precision > 0.9
        assert summary.n_retrains == sum(
            len(s.retrains) for s in summary.shards.values()
        )

    def test_hash_routing_folds_locations(self, catalog):
        service = stream(
            PredictionService(fast_config(), catalog=catalog, shards=2),
            fleet_events(weeks=3),
        )
        assert set(service.shard_keys) <= {"shard-000", "shard-001"}
        assert service.summary().n_events == len(fleet_events(weeks=3))

    def test_metered_per_shard_series(self, catalog):
        registry = observe.MetricsRegistry()
        with observe.use_registry(registry):
            stream(
                PredictionService(fast_config(), catalog=catalog),
                fleet_events(weeks=3),
            )
        for key in LOCS:
            assert registry.counter("service.events", shard=key).value > 0
            assert registry.histogram("service.ingest", shard=key).count > 0
        assert registry.gauge("service.shards").value == len(LOCS)


class TestFleetDurability:
    def test_layout_and_manifest(self, catalog, tmp_path):
        fleet = tmp_path / "fleet"
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=fleet, journal_fsync="never"
        )
        stream(service, fleet_events(weeks=3))
        manifest = service.checkpoint()
        service.close()

        assert manifest["format"] == MANIFEST_FORMAT
        on_disk = json.loads((fleet / MANIFEST_NAME).read_text())
        assert on_disk == manifest
        assert [s["key"] for s in on_disk["shards"]] == LOCS
        for entry in on_disk["shards"]:
            shard_dir = fleet / entry["dir"]
            assert (shard_dir / SHARD_META_NAME).exists()
            assert (shard_dir / "checkpoint.json").exists()
            assert (shard_dir / "journal").is_dir()
            meta = json.loads((shard_dir / SHARD_META_NAME).read_text())
            assert meta["key"] == entry["key"]

    def test_recover_restores_every_shard(self, catalog, tmp_path):
        fleet = tmp_path / "fleet"
        events = fleet_events()
        reference = stream(
            PredictionService(fast_config(), catalog=catalog), events
        )

        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=fleet, journal_fsync="never"
        )
        cut = len(events) // 2
        for event in events[:cut]:
            service.ingest(event)
        service.checkpoint()
        # more events after the checkpoint: covered by the journals only
        for event in events[cut : cut + 40]:
            service.ingest(event)
        service.close()  # crash here

        recovered = PredictionService.recover(
            fleet, catalog=catalog, journal_fsync="never"
        )
        assert set(recovered.shard_keys) == set(LOCS)
        assert recovered.n_ingested == cut + 40
        # re-deliver the tail each shard has not seen, per shard
        skipped = {k: recovered.session(k).n_ingested for k in recovered.shard_keys}
        for event in events:
            key = recovered.router.key(event)
            if skipped.get(key, 0) > 0:
                skipped[key] -= 1
                continue
            recovered.ingest(event)
        recovered.flush()
        for key in LOCS:
            assert recovered.session(key).warnings == reference.session(key).warnings
        recovered.close()

    def test_manifest_written_eagerly_on_shard_birth(self, catalog, tmp_path):
        """The fleet is recoverable before its first checkpoint: the
        manifest (config + router) lands at construction and is
        refreshed on every shard birth."""
        fleet = tmp_path / "fleet"
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=fleet, journal_fsync="never"
        )
        manifest = json.loads((fleet / MANIFEST_NAME).read_text())
        assert manifest["shards"] == []
        service.ingest(make_event(100.0, PRECURSOR_A, location=LOCS[0]))
        manifest = json.loads((fleet / MANIFEST_NAME).read_text())
        assert [s["key"] for s in manifest["shards"]] == [LOCS[0]]
        service.close()

        recovered = PredictionService.recover(
            fleet, catalog=catalog, journal_fsync="never"
        )
        assert recovered.config.initial_train_weeks == 2
        assert recovered.session(LOCS[0]).n_ingested == 1
        recovered.close()

    def test_recover_finds_shard_missing_from_manifest(self, catalog, tmp_path):
        """A crash can land between a shard's directory creation and the
        manifest refresh; the shard's shard.json + journal are on disk,
        so the directory scan must pick it up anyway."""
        fleet = tmp_path / "fleet"
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=fleet, journal_fsync="never"
        )
        service.ingest(make_event(100.0, PRECURSOR_A, location=LOCS[0]))
        service.ingest(make_event(200.0, PRECURSOR_A, location=LOCS[1]))
        service.close()

        # simulate the crash window: the manifest never saw LOCS[1]
        manifest_path = fleet / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"] = [
            s for s in manifest["shards"] if s["key"] != LOCS[1]
        ]
        manifest_path.write_text(json.dumps(manifest))

        recovered = PredictionService.recover(
            fleet, catalog=catalog, journal_fsync="never"
        )
        assert set(recovered.shard_keys) == {LOCS[0], LOCS[1]}
        assert recovered.session(LOCS[1]).n_ingested == 1
        recovered.close()

    def test_recover_restores_router_and_config(self, catalog, tmp_path):
        fleet = tmp_path / "fleet"
        service = PredictionService(
            fast_config(), catalog=catalog, shards=2, fleet_dir=fleet,
            journal_fsync="never",
        )
        stream(service, fleet_events(weeks=3))
        service.checkpoint()
        service.close()

        recovered = PredictionService.recover(
            fleet, catalog=catalog, journal_fsync="never"
        )
        assert recovered.router == service.router
        assert recovered.config.initial_train_weeks == 2
        recovered.close()

    def test_recover_rejects_mismatched_config(self, catalog, tmp_path):
        fleet = tmp_path / "fleet"
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=fleet, journal_fsync="never"
        )
        service.ingest(make_event(100.0, PRECURSOR_A))
        service.checkpoint()
        service.close()
        with pytest.raises(CheckpointError, match="digest mismatch"):
            PredictionService.recover(
                fleet, FrameworkConfig(initial_train_weeks=9), catalog=catalog
            )

    def test_checkpoint_without_fleet_dir_rejected(self, catalog):
        service = PredictionService(fast_config(), catalog=catalog)
        with pytest.raises(ValueError, match="fleet directory"):
            service.checkpoint()

    def test_recover_empty_dir_is_a_fresh_service(self, catalog, tmp_path):
        service = PredictionService.recover(
            tmp_path / "nothing", catalog=catalog
        )
        assert service.shard_keys == []

    def test_slug_sanitizes(self):
        assert _slug("R01-M0/N04 x") == "R01-M0_N04_x"
        assert _slug("///") == "shard"


class TestRejectedEventsLeaveNoShard:
    """A rejected event must not create the shard it was routed to:
    not in ``shard_keys``, not in the manifest, not under ``shards/``."""

    def fleet(self, tmp_path, catalog):
        service = PredictionService(
            fast_config(), catalog=catalog, origin=1000.0,
            fleet_dir=tmp_path / "fleet", journal_fsync="never",
        )
        service.ingest(make_event(1100.0, PRECURSOR_A, location=LOCS[0]))
        return service

    def layout(self, service):
        fleet = service.fleet_dir
        manifest = json.loads((fleet / MANIFEST_NAME).read_text())
        return (
            service.shard_keys,
            [entry["key"] for entry in manifest["shards"]],
            sorted(p.name for p in (fleet / "shards").iterdir()),
        )

    def test_ingest_before_origin_on_new_location(self, catalog, tmp_path):
        service = self.fleet(tmp_path, catalog)
        before = self.layout(service)
        with pytest.raises(ValueError, match="origin"):
            service.ingest(make_event(10.0, PRECURSOR_A, location=LOCS[1]))
        assert self.layout(service) == before
        service.close()

    def test_batch_before_origin_on_new_location(self, catalog, tmp_path):
        service = self.fleet(tmp_path, catalog)
        before = self.layout(service)
        with pytest.raises(ValueError, match="origin"):
            service.ingest_batch(
                [make_event(10.0, PRECURSOR_A, location=LOCS[1])]
            )
        assert self.layout(service) == before
        service.close()

    def test_valid_new_shard_waits_for_every_sub_batch(
        self, catalog, tmp_path
    ):
        """A valid sub-batch for a new location beside an out-of-order
        one for an existing shard: nothing is created."""
        service = self.fleet(tmp_path, catalog)
        before = self.layout(service)
        with pytest.raises(ValueError, match="time order"):
            service.ingest_batch([
                make_event(1200.0, PRECURSOR_A, location=LOCS[1]),
                make_event(1050.0, PRECURSOR_A, location=LOCS[0]),
            ])
        assert self.layout(service) == before
        assert service.n_ingested == 1
        service.close()

    def test_new_location_sub_batch_must_be_in_order(self, catalog, tmp_path):
        service = self.fleet(tmp_path, catalog)
        before = self.layout(service)
        with pytest.raises(ValueError, match="time order"):
            service.ingest_batch([
                make_event(1300.0, PRECURSOR_A, location=LOCS[1]),
                make_event(1250.0, PRECURSOR_B, location=LOCS[1]),
            ])
        assert self.layout(service) == before
        service.close()


class TestShardIsolation:
    def test_kill_marks_only_the_victim_down(self, catalog, tmp_path):
        fleet = tmp_path / "fleet"
        events = fleet_events()
        victim = LOCS[1]
        plan = FaultPlan(shard_kills=[ShardKill(shard=victim, at_count=30)])
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=fleet, journal_fsync="never"
        )
        survivors_before = 0
        with faults.install(plan):
            with pytest.raises(FaultInjected):
                for event in events:
                    service.ingest(event)
            assert service.down_shards == {victim}
            for event in events:
                if service.router.key(event) == victim:
                    with pytest.raises(ShardDown) as exc_info:
                        service.ingest(event)
                    assert exc_info.value.key == victim
                    break
            # the other shards keep serving: deliver them their tails
            skipped = {
                k: service.session(k).n_ingested for k in service.shard_keys
            }
            for event in events:
                key = service.router.key(event)
                if key == victim:
                    continue
                if skipped.get(key, 0) > 0:
                    skipped[key] -= 1
                    continue
                service.ingest(event)
                survivors_before += 1
        assert survivors_before > 0
        assert plan.injected == [f"shard:{victim}:30"]
        service.close()

    def test_restore_shard_resumes_from_its_journal(self, catalog, tmp_path):
        """Acceptance scenario: kill one shard mid-run, restore it, and
        the fleet finishes with warnings identical to an uninterrupted
        run — for the victim and the survivors alike."""
        fleet = tmp_path / "fleet"
        events = fleet_events()
        reference = stream(
            PredictionService(fast_config(), catalog=catalog), events
        )

        victim = LOCS[1]
        plan = FaultPlan(shard_kills=[ShardKill(shard=victim, at_count=40)])
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=fleet, journal_fsync="never"
        )
        with faults.install(plan):
            for event in events:
                try:
                    service.ingest(event)
                except FaultInjected:
                    # restore and re-deliver: nothing accepted was lost,
                    # the killed event itself was never durable
                    service.restore_shard(victim)
                    service.ingest(event)
        service.flush()

        for key in LOCS:
            assert service.session(key).warnings == reference.session(key).warnings
        ours, theirs = service.summary(), reference.summary()
        assert (ours.n_events, ours.n_warnings) == (
            theirs.n_events,
            theirs.n_warnings,
        )
        service.close()

    def test_restore_without_fleet_dir_rejected(self, catalog):
        victim = LOCS[0]
        plan = FaultPlan(shard_kills=[ShardKill(shard=victim, at_count=1)])
        service = PredictionService(fast_config(), catalog=catalog)
        with faults.install(plan):
            with pytest.raises(FaultInjected):
                service.ingest(make_event(100.0, PRECURSOR_A, location=victim))
        with pytest.raises(ValueError, match="fleet directory"):
            service.restore_shard(victim)

    def test_restore_on_a_closed_service_is_rejected(self, catalog, tmp_path):
        """A restore racing shutdown must not reopen a shard's journal
        on a service that will never close it again."""
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=tmp_path / "fleet",
            journal_fsync="never",
        )
        for event in fleet_events(weeks=1)[:50]:
            service.ingest(event)
        service.checkpoint()
        service.close()
        key = service.shard_keys[0]
        before = service.session(key)
        with pytest.raises(RuntimeError, match="closed"):
            service.restore_shard(key)
        assert service.session(key) is before
        assert before.journal.closed

    def test_advance_and_flush_skip_down_shards(self, catalog, tmp_path):
        victim = LOCS[0]
        plan = FaultPlan(shard_kills=[ShardKill(shard=victim, at_count=2)])
        service = PredictionService(
            fast_config(), catalog=catalog, fleet_dir=tmp_path / "fleet",
            journal_fsync="never",
        )
        with faults.install(plan):
            service.ingest(make_event(100.0, PRECURSOR_A, location=victim))
            service.ingest(make_event(110.0, PRECURSOR_A, location=LOCS[1]))
            with pytest.raises(FaultInjected):
                service.ingest(make_event(120.0, PRECURSOR_B, location=victim))
        assert service.advance(500.0) == []
        assert service.flush() == []
        assert service.session(LOCS[1]).last_time == 500.0
        assert service.session(victim).last_time == 100.0
        service.close()


class TestLiveMetrics:
    def test_offline_replays_record_no_live_feeds(self, catalog):
        # The reviser replays the training log for its statistical and
        # distribution candidates; that replay is not live traffic, so
        # right after the initial training no event has been fed, and N
        # live events later the series read N.
        events = fleet_events(weeks=3)
        boundary = 2 * WEEK_SECONDS
        prefix = [e for e in events if e.timestamp < boundary]
        live = [e for e in events if e.timestamp >= boundary]
        with observe.use_registry(observe.MetricsRegistry()):
            with PredictionService(
                fast_config(), catalog=catalog, shards=2
            ) as service:
                service.ingest_batch(prefix)
                service.advance(boundary)
                assert all(
                    service.session(key).retrains and service.session(key).repository
                    for key in service.shard_keys
                )
                trained = service.merged_metrics()
                assert "predictor.feed" not in trained
                assert "predictor.warnings" not in trained
                warned = service.ingest_batch(live)
                fed = service.merged_metrics()
        assert warned
        assert fed["predictor.feed"]["count"] == len(live)
        assert fed["predictor.warnings"]["value"] == len(warned)
