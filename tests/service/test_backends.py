"""Tests for the pluggable shard placement seam (:mod:`backends`).

The inproc backend is exercised implicitly by every other service test;
these tests pin the seam itself — backend selection, pid surfacing, the
subprocess worker lifecycle (spawn, crash, reap, respawn), fault
injection across the process boundary, and worker metric reporting.
"""

import os
import signal
import time

import pytest

from repro import faults, observe
from repro.faults import FaultInjected, FaultPlan, ShardKill, WorkerKill
from repro.service import (
    InprocBackend,
    PredictionService,
    ShardDown,
    SubprocessBackend,
    make_backend,
)
from tests.conftest import make_event
from tests.service.test_service import (
    LOCS,
    PRECURSOR_A,
    fast_config,
    fleet_events,
    stream,
)


def wait_until(predicate, timeout=10.0, interval=0.02):
    """Poll ``predicate`` until true or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def process_gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    return False


class TestMakeBackend:
    def test_default_is_inproc(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_BACKEND", raising=False)
        assert isinstance(make_backend(None), InprocBackend)

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_BACKEND", "subprocess")
        assert isinstance(make_backend(None), SubprocessBackend)

    def test_by_name(self):
        assert isinstance(make_backend("inproc"), InprocBackend)
        assert isinstance(make_backend("subprocess"), SubprocessBackend)

    def test_instance_passthrough(self):
        backend = InprocBackend()
        assert make_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown shard backend"):
            make_backend("remote")

    def test_process_executor_request_coerced_to_serial(self):
        # The worker *is* the process-level parallelism: a nested pool
        # per shard would multiply processes for no additional cores.
        assert SubprocessBackend(executor="process").executor_kind == "serial"

    def test_inproc_shards_have_no_pid(self, catalog):
        with PredictionService(fast_config(), catalog=catalog) as service:
            service.ingest(fleet_events(weeks=1)[0])
            assert set(service.shard_pids().values()) == {None}


@pytest.mark.subprocess
class TestSubprocessLifecycle:
    def test_workers_have_live_distinct_pids(self, catalog):
        events = fleet_events(weeks=3)
        with PredictionService(
            fast_config(), catalog=catalog, backend="subprocess"
        ) as service:
            stream(service, events)
            pids = service.shard_pids()
            assert set(pids) == set(LOCS)
            assert all(isinstance(pid, int) for pid in pids.values())
            assert len(set(pids.values())) == len(LOCS)
            assert all(not process_gone(pid) for pid in pids.values())
            own = os.getpid()
            assert all(pid != own for pid in pids.values())

    def test_close_terminates_workers(self, catalog):
        service = PredictionService(
            fast_config(), catalog=catalog, backend="subprocess"
        )
        stream(service, fleet_events(weeks=2))
        pids = list(service.shard_pids().values())
        service.close()
        assert all(wait_until(lambda p=pid: process_gone(p)) for pid in pids)

    def test_backend_equivalence(self, catalog):
        """Placement is a deployment knob: warning-for-warning identical
        output from in-process shards and worker processes."""
        events = fleet_events(weeks=5)
        with PredictionService(fast_config(), catalog=catalog) as inproc:
            stream(inproc, events)
            w_inproc = {k: inproc.warnings(k) for k in inproc.shard_keys}
            s_inproc = inproc.summary()
        with PredictionService(
            fast_config(), catalog=catalog, backend="subprocess"
        ) as subproc:
            stream(subproc, events)
            w_subproc = {k: subproc.warnings(k) for k in subproc.shard_keys}
            s_subproc = subproc.summary()
        assert w_subproc == w_inproc
        assert s_subproc.n_events == s_inproc.n_events
        assert s_subproc.n_warnings == s_inproc.n_warnings

    def test_batched_delivery_matches_per_event(self, catalog):
        events = fleet_events(weeks=5)
        with PredictionService(
            fast_config(), catalog=catalog, backend="subprocess"
        ) as per_event:
            stream(per_event, events)
            w_single = {
                k: per_event.warnings(k) for k in per_event.shard_keys
            }
        with PredictionService(
            fast_config(), catalog=catalog, backend="subprocess"
        ) as batched:
            for i in range(0, len(events), 32):
                batched.ingest_batch(events[i : i + 32])
            batched.flush()
            w_batched = {k: batched.warnings(k) for k in batched.shard_keys}
        assert w_batched == w_single

    def test_retrains_happen_inside_workers(self, catalog):
        """Satellite regression: asking for process-level training
        parallelism under the subprocess backend must not nest a pool
        per worker — the coerced serial executor still retrains."""
        backend = SubprocessBackend(executor="process")
        events = fleet_events(weeks=6)
        with PredictionService(
            fast_config(), catalog=catalog, backend=backend
        ) as service:
            stream(service, events)
            retrains = [service.session(k).retrains for k in LOCS]
            warnings = [w for k in LOCS for w in service.warnings(k)]
        assert all(len(r) >= 1 for r in retrains)
        assert warnings


@pytest.mark.subprocess
class TestSubprocessCrashes:
    def test_sigkill_surfaces_as_shard_down(self, catalog, tmp_path):
        events = fleet_events(weeks=3)
        victim = LOCS[0]
        with PredictionService(
            fast_config(),
            catalog=catalog,
            fleet_dir=tmp_path / "fleet",
            backend="subprocess",
        ) as service:
            stream(service, events)
            os.kill(service.shard_pids()[victim], signal.SIGKILL)
            t_next = events[-1].timestamp + 60.0
            with pytest.raises(ShardDown) as exc_info:
                service.ingest(
                    make_event(t_next, PRECURSOR_A, location=victim)
                )
            assert exc_info.value.key == victim
            assert service.down_shards == {victim}
            # Other shards keep serving.
            service.ingest(
                make_event(t_next + 60.0, PRECURSOR_A, location=LOCS[1])
            )

    def test_reap_workers_detects_silent_death(self, catalog, tmp_path):
        victim = LOCS[2]
        with PredictionService(
            fast_config(),
            catalog=catalog,
            fleet_dir=tmp_path / "fleet",
            backend="subprocess",
        ) as service:
            stream(service, fleet_events(weeks=2))
            os.kill(service.shard_pids()[victim], signal.SIGKILL)
            # No delivery needed: the reaper notices on its own (the
            # supervisor calls this on every poll).  SIGKILL delivery
            # is asynchronous, so poll until the death is visible.
            reaped = []

            def saw_death():
                reaped.extend(service.reap_workers())
                return bool(reaped)

            assert wait_until(saw_death)
            assert reaped == [victim]
            assert victim in service.down_shards
            assert service.reap_workers() == []

    def test_restore_respawns_worker_from_journal(self, catalog, tmp_path):
        events = fleet_events(weeks=4)
        victim = LOCS[1]
        with PredictionService(
            fast_config(),
            catalog=catalog,
            fleet_dir=tmp_path / "fleet",
            backend="subprocess",
        ) as service:
            stream(service, events)
            delivered = sum(
                1 for e in events if service.router.key(e) == victim
            )
            old_pid = service.shard_pids()[victim]
            os.kill(old_pid, signal.SIGKILL)
            doomed = make_event(
                events[-1].timestamp + 60.0, PRECURSOR_A, location=victim
            )
            with pytest.raises(ShardDown):
                service.ingest(doomed)

            service.restore_shard(victim)
            assert service.down_shards == set()
            new_pid = service.shard_pids()[victim]
            assert new_pid is not None and new_pid != old_pid
            # Every event acked before the crash was journaled; the
            # respawned worker replays them all, then the killed event
            # (never durable) is re-delivered.
            assert service.session(victim).n_ingested == delivered
            service.ingest(doomed)
            assert service.session(victim).n_ingested == delivered + 1

    def test_worker_kill_fault_sigkills_live_worker(self, catalog, tmp_path):
        events = fleet_events(weeks=3)
        victim = LOCS[0]
        plan = FaultPlan(worker_kills=[WorkerKill(shard=victim, at_count=20)])
        with PredictionService(
            fast_config(),
            catalog=catalog,
            fleet_dir=tmp_path / "fleet",
            backend="subprocess",
        ) as service:
            with faults.install(plan):
                with pytest.raises(ShardDown) as exc_info:
                    for event in events:
                        service.ingest(event)
                assert exc_info.value.key == victim
                assert service.down_shards == {victim}
                # A real SIGKILL, not bookkeeping: the process is gone.
                pid = service.shard_pids()[victim]
                assert wait_until(lambda: process_gone(pid))

    def test_graceful_seal_keeps_shard_inspectable(self, catalog, tmp_path):
        """ShardKill drains the worker before it exits, so the downed
        shard's warnings/summary stay readable — matching the inproc
        backend, where the killed shard's session object survives."""
        events = fleet_events(weeks=3)
        victim = LOCS[1]
        plan = FaultPlan(shard_kills=[ShardKill(shard=victim, at_count=25)])
        with PredictionService(
            fast_config(),
            catalog=catalog,
            fleet_dir=tmp_path / "fleet",
            backend="subprocess",
        ) as service:
            with faults.install(plan):
                with pytest.raises(FaultInjected):
                    for event in events:
                        service.ingest(event)
            assert service.down_shards == {victim}
            assert isinstance(service.warnings(victim), list)
            summary = service.session(victim).summary()
            assert summary.n_events == 24  # the killed event never landed


@pytest.mark.subprocess
class TestSubprocessDurability:
    def test_checkpoint_recover_roundtrip(self, catalog, tmp_path):
        fleet = tmp_path / "fleet"
        events = fleet_events(weeks=4)
        service = PredictionService(
            fast_config(),
            catalog=catalog,
            fleet_dir=fleet,
            backend="subprocess",
        )
        stream(service, events)
        expected = {
            k: service.session(k).n_ingested for k in service.shard_keys
        }
        w_before = {k: service.warnings(k) for k in service.shard_keys}
        service.checkpoint()
        service.close()

        with PredictionService.recover(
            fleet, catalog=catalog, backend="subprocess"
        ) as recovered:
            assert {
                k: recovered.session(k).n_ingested
                for k in recovered.shard_keys
            } == expected
            assert {
                k: recovered.warnings(k) for k in recovered.shard_keys
            } == w_before
            assert all(
                pid is not None for pid in recovered.shard_pids().values()
            )

    def test_merged_metrics_sum_worker_series(self, catalog):
        events = fleet_events(weeks=3)
        # Reference: the same workload inproc, where sessions record
        # straight into the (scoped) parent registry.
        with observe.use_registry(observe.MetricsRegistry()) as reference:
            with PredictionService(fast_config(), catalog=catalog) as inproc:
                stream(inproc, events)
            expected = reference.snapshot()["predictor.feed"]["count"]
        assert expected > 0

        with observe.use_registry(observe.MetricsRegistry()):
            with PredictionService(
                fast_config(), catalog=catalog, backend="subprocess"
            ) as service:
                stream(service, events)
                pids = service.shard_pids()
                merged = service.merged_metrics()
                # The parent's own registry never saw these series.
                local = observe.get_registry().snapshot()
        assert "predictor.feed" not in local
        # Worker-side ingest instrumentation, summed across the fleet,
        # matches what the same workload records in-process.
        assert merged["predictor.feed"]["count"] == expected
        for key, pid in pids.items():
            series = merged[f'service.workers{{shard="{key}"}}']
            assert series["value"] == pid
