"""Multi-stream prediction service: N session cores behind one router.

The paper predicts failures for one Blue Gene/L system; a fleet runs one
prediction stream per machine/rack.  :class:`PredictionService` hosts N
:class:`~repro.core.online.OnlinePredictionSession` stacks, routes each
event to its shard by a partition key (default: the event's location),
and owns the fleet-level durability layout so the whole fleet
checkpoints and recovers as a unit:

* **routing** — a pure router (:mod:`repro.service.partition`) maps an
  event to a shard key; location routing creates shards lazily as new
  locations appear, hash routing folds locations into a fixed count.
  Every router is a pure function of the event's location, so
  :meth:`PredictionService.shard_key` memoizes it per location for the
  current router (a reshard or a recovery installs a new router and so
  starts a new memo);
* **pluggable shard placement** — the service speaks to shards only
  through :class:`~repro.service.backends.ShardHandle`.  The default
  :class:`~repro.service.backends.InprocBackend` hosts every stack in
  this process, sharing one retrain executor (so a 64-shard fleet does
  not spawn 64 process pools); the
  :class:`~repro.service.backends.SubprocessBackend` gives each shard a
  shared-nothing worker process with its own core, journal, and
  worker-local executor — N shards on N cores, no GIL contention;
* **fleet durability** — under ``fleet_dir`` each shard gets its own
  subdirectory (write-ahead journal + checkpoint file + a tiny
  ``shard.json`` identity record), and :meth:`checkpoint` finishes by
  writing an atomic service manifest.  :meth:`recover` rebuilds every
  shard crash-consistently — including shards created *after* the last
  manifest write, which are found by scanning the shard directory;
* **blast-radius isolation** — a chaos :class:`~repro.faults.ShardKill`
  (or a journal fault inside one shard) marks only that shard down;
  every other shard keeps serving, and :meth:`restore_shard` brings the
  victim back from its checkpoint + journal without touching the rest.

Per-shard throughput, latency and degraded-mode state are recorded as
labeled metrics (``service.events{shard="..."}``) through
:class:`~repro.observe.wrappers.MeteredSession`.

On-disk layout::

    fleet/
      manifest.json                  # atomic; written last on checkpoint
      shards/
        000-R01_M0_N04/
          shard.json                 # {"key": "R01-M0-N04"}
          checkpoint.json
          journal/journal-*.seg
"""

from __future__ import annotations

import json
import re
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults, observe
from repro.alerts import FailureWarning
from repro.core.config import FrameworkConfig
from repro.core.session import SessionSummary
from repro.parallel.executor import Executor
from repro.raslog.catalog import EventCatalog, default_catalog
from repro.raslog.events import RASEvent
from repro.resilience import checkpoint as ckpt
from repro.service.backends import (
    ShardBackend,
    ShardHandle,
    WorkerCrashed,
    make_backend,
)
from repro.service.partition import Router, make_router, router_from_spec

MANIFEST_FORMAT = "repro-service-manifest"
MANIFEST_VERSION = 2
#: manifest versions this build can recover from.  v1 (pre-resharding)
#: carries no ``epoch``/``migration``/``retain_journals`` keys and no
#: router rules; it reads as an epoch-0 fleet with no migration.
MANIFEST_READABLE_VERSIONS = (1, 2)
MANIFEST_NAME = "manifest.json"
SHARDS_DIRNAME = "shards"
SHARD_META_NAME = "shard.json"
CHECKPOINT_NAME = "checkpoint.json"
JOURNAL_DIRNAME = "journal"


class ShardDown(RuntimeError):
    """An event was routed to a shard that has been killed.

    The rest of the fleet is unaffected; bring the shard back with
    :meth:`PredictionService.restore_shard` (its accepted inputs are in
    its checkpoint + journal) and re-deliver the rejected event.
    """

    def __init__(self, key: str) -> None:
        super().__init__(
            f"shard {key!r} is down; restore_shard() to recover it"
        )
        self.key = key


def _read_json(path: Path, *, require_format: str | None = None) -> dict:
    """Load a fleet metadata document (manifest or ``shard.json``)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ckpt.CheckpointError(
                f"{path}: not valid JSON: {exc}"
            ) from exc
    if not isinstance(payload, dict):
        raise ckpt.CheckpointError(f"{path}: expected a JSON object")
    if require_format is not None and payload.get("format") != require_format:
        raise ckpt.CheckpointError(f"{path}: not a {require_format} file")
    return payload


def _slug(key: str) -> str:
    """Filesystem-safe fragment of a shard key (uniqueness comes from
    the index prefix, so lossy sanitization is fine)."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", key).strip("._-")
    return cleaned[:48] or "shard"


@dataclass
class FleetSummary:
    """Per-shard accounting plus fleet-level aggregates.

    Aggregate precision/recall are computed from summed match counts
    (micro-averaged), not averaged per-shard ratios — a shard with no
    warnings must not drag the fleet average.
    """

    shards: dict[str, SessionSummary] = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_events(self) -> int:
        return sum(s.n_events for s in self.shards.values())

    @property
    def n_fatal(self) -> int:
        return sum(s.n_fatal for s in self.shards.values())

    @property
    def n_warnings(self) -> int:
        return sum(s.n_warnings for s in self.shards.values())

    @property
    def n_quarantined(self) -> int:
        return sum(s.n_quarantined for s in self.shards.values())

    @property
    def n_retrains(self) -> int:
        return sum(len(s.retrains) for s in self.shards.values())

    @property
    def n_retrain_failures(self) -> int:
        return sum(len(s.retrain_failures) for s in self.shards.values())

    @property
    def true_positives(self) -> int:
        return sum(s.matching.true_positives for s in self.shards.values())

    @property
    def false_positives(self) -> int:
        return sum(s.matching.false_positives for s in self.shards.values())

    @property
    def false_negatives(self) -> int:
        return sum(s.matching.false_negatives for s in self.shards.values())

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0


class PredictionService:
    """Route a fleet's event stream to N independent session cores.

    ``backend`` decides where shards live: ``"inproc"`` (default) or
    ``"subprocess"``, a :class:`~repro.service.backends.ShardBackend`
    instance, or None to consult the ``REPRO_SERVICE_BACKEND``
    environment variable.  Inproc, every shard session shares
    ``executor`` (pass ``own_executor=True`` to have the service close
    it); under the subprocess backend each worker builds its own and
    ``executor`` is ignored.  All shards share the service ``origin``,
    so shard week boundaries stay aligned with the global stream.  With
    ``fleet_dir`` set, each shard journals write-ahead and
    :meth:`checkpoint`/:meth:`recover` round-trip the whole fleet.
    """

    def __init__(
        self,
        config: FrameworkConfig | None = None,
        catalog: EventCatalog | None = None,
        *,
        shard_by: str = "location",
        shards: int | None = None,
        router: Router | None = None,
        executor: Executor | None = None,
        own_executor: bool = False,
        origin: float = 0.0,
        fleet_dir: str | Path | None = None,
        journal_fsync: str | int = "always",
        retain_journals: bool = False,
        backend: str | ShardBackend | None = None,
    ) -> None:
        self.config = config or FrameworkConfig()
        self.catalog = catalog or default_catalog()
        self.router = router or make_router(shard_by, shards)
        self.origin = float(origin)
        self.fleet_dir = Path(fleet_dir) if fleet_dir is not None else None
        self.journal_fsync = journal_fsync
        #: never compact shard journals — keeps full from-record-0
        #: history so live resharding can always rebuild from it
        self.retain_journals = retain_journals
        #: completed migrations so far; bumped atomically at each
        #: reshard commit (the manifest write IS the commit point)
        self.epoch = 0
        #: in-flight migration record, mirrored in the manifest so a
        #: crash mid-handoff is rolled forward by :meth:`recover`
        self.migration: dict | None = None
        self._next_index = 0
        self._executor = executor
        self._own_executor = own_executor and executor is not None
        self._backend = make_backend(backend)
        self._backend.attach(self)
        self._shards: dict[str, ShardHandle] = {}
        self._down: set[str] = set()
        self._closed = False
        # Serializes the streaming surface against close()/checkpoint()/
        # resharding, so a concurrent close never tears a half-applied
        # batch (callers get either the full effect or a clean
        # "service is closed" RuntimeError).  RLock: checkpoint and the
        # reshard engine call locked methods from locked sections.
        self._lock = threading.RLock()
        if self.fleet_dir is not None:
            (self.fleet_dir / SHARDS_DIRNAME).mkdir(
                parents=True, exist_ok=True
            )
            # The manifest is written eagerly (here and on every shard
            # birth), so the fleet is recoverable from its first event —
            # not just from its first checkpoint.
            self._write_manifest()

    # -- routing ---------------------------------------------------------

    @property
    def router(self) -> Router:
        """The router events are sharded by."""
        return self._routing[0]

    @router.setter
    def router(self, router: Router) -> None:
        # The router and its memo are swapped as one pair, so a key
        # computed under the old router (on another thread, say) can only
        # land in the old memo.
        self._routing: tuple[Router, dict[str, str]] = (router, {})

    def shard_key(self, event: RASEvent) -> str:
        """The shard key of ``event`` under the current router.

        Memoized per location: every router is a pure function of the
        location, so the memo holds one entry per distinct location.
        """
        router, memo = self._routing
        key = memo.get(event.location)
        if key is None:
            key = memo[event.location] = router.key(event)
        return key

    # -- shard lifecycle ---------------------------------------------------

    @property
    def backend(self) -> ShardBackend:
        """The backend placing this fleet's shards."""
        return self._backend

    @property
    def shard_keys(self) -> list[str]:
        """Keys of all shards, in creation order."""
        return list(self._shards)

    @property
    def down_shards(self) -> set[str]:
        """Keys of shards currently marked down."""
        return set(self._down)

    @property
    def n_ingested(self) -> int:
        """Events accepted across the fleet (the resume/skip ledger)."""
        return sum(s.n_ingested for s in self._shards.values())

    def session(self, key: str):
        """The session view currently serving shard ``key``: the real
        :class:`~repro.core.online.OnlinePredictionSession` inproc, an
        RPC-backed read proxy under the subprocess backend."""
        return self._shards[key].session

    def shard_pids(self) -> dict[str, int | None]:
        """Worker pid per shard (None for in-process shards) — surfaced
        in ``health``/``fleet status`` so operators can correlate a
        shard with its OS process."""
        return {key: shard.pid for key, shard in self._shards.items()}

    def _shard_dir(self, index: int, key: str) -> Path | None:
        if self.fleet_dir is None:
            return None
        return self.fleet_dir / SHARDS_DIRNAME / f"{index:03d}-{_slug(key)}"

    def _make_shard(self, key: str) -> ShardHandle:
        index = self._next_index
        self._next_index += 1
        directory = self._shard_dir(index, key)
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
            ckpt.atomic_write_json(
                directory / SHARD_META_NAME,
                {"key": key, "index": index, "epoch": self.epoch},
            )
        shard = self._backend.create_shard(key, index, directory)
        self._shards[key] = shard
        if self.fleet_dir is not None:
            self._write_manifest()
        observe.gauge("service.shards").set(len(self._shards))
        return shard

    def _shard_for(self, event: RASEvent) -> ShardHandle:
        key = self.shard_key(event)
        if key in self._down:
            raise ShardDown(key)
        shard = self._shards.get(key)
        if shard is None:
            shard = self._make_shard(key)
        return shard

    def _mark_down(self, shard: ShardHandle) -> None:
        """A shard died: seal what remains, keep serving the rest.

        Sealing closes the shard's journal (and lets a still-live
        subprocess worker exit cleanly); a worker that is already gone
        seals as a no-op.  Idempotent per shard — the kill counter
        records each death once."""
        if shard.key in self._down:
            return
        self._down.add(shard.key)
        shard.seal()
        observe.counter("service.shard_kills", shard=shard.key).inc()

    def reap_workers(self) -> list[str]:
        """Mark shards whose worker process has died down; returns them.

        Crash detection is otherwise lazy (the next delivery to a dead
        worker fails); the supervisor calls this at the top of each poll
        so silent worker deaths feed its circuit breaker without waiting
        for traffic.  In-process shards have no separate process to lose
        and are never reaped here."""
        with self._lock:
            reaped = []
            for key, shard in self._shards.items():
                if key in self._down or shard.pid is None or shard.alive:
                    continue
                self._mark_down(shard)
                reaped.append(key)
            return reaped

    # -- streaming surface -------------------------------------------------

    def ingest(self, event: RASEvent) -> list[FailureWarning]:
        """Route one event to its shard; returns that shard's warnings.

        A :class:`~repro.faults.FaultInjected` raised by the chaos hook
        (or from inside the shard's stack, e.g. a journal fault) marks
        the shard down and propagates; other shards keep serving.  A
        dead worker process (crashed, or SIGKILLed by a
        :class:`~repro.faults.WorkerKill`) is detected here — the failed
        delivery marks the shard down and raises :class:`ShardDown`.
        """
        with self._lock:
            self._require_open()
            shard = self._shard_for(event)
            shard.routed += 1
            plan = faults.active()
            try:
                if plan is not None:
                    plan.on_shard_event(shard.key, shard.routed)
                    if plan.take_worker_kill(shard.key, shard.routed):
                        shard.kill()
                return shard.ingest(event)
            except faults.FaultInjected:
                self._mark_down(shard)
                raise
            except WorkerCrashed:
                self._mark_down(shard)
                raise ShardDown(shard.key) from None

    def ingest_batch(self, events: list[RASEvent]) -> list[FailureWarning]:
        """Route a batch of events; returns all new warnings.

        Events are grouped by shard key with per-shard arrival order
        preserved, and each shard's sub-batch goes through its session's
        batched path (one group-commit journal fsync per shard instead
        of one per event) — this is what the serving front-end's
        micro-batcher calls.  Delivery is scatter/gather: every shard's
        sub-batch is begun before the first one's warnings are
        collected, so under the subprocess backend all workers process
        one batch wave — including any retrains it triggers —
        concurrently.

        Routing is validated atomically up front: if *any* event targets
        a shard currently marked down, :class:`ShardDown` is raised
        before anything is applied, mirroring the session layer's
        nothing-on-error batch contract.  Failure isolation past that
        point is per shard: a chaos fault killing one shard mid-batch
        propagates after marking only that shard down — sub-batches
        already delivered to *other* shards stay applied, because each
        shard is an independent stream.
        """
        with self._lock:
            self._require_open()
            if not events:
                return []
            groups: dict[str, list[RASEvent]] = {}
            memo = self._routing[1]
            for event in events:
                # A memo hit skips the call; a miss fills the memo.
                key = memo.get(event.location) or self.shard_key(event)
                groups.setdefault(key, []).append(event)
            for key in groups:
                if key in self._down:
                    raise ShardDown(key)
            plan = faults.active()
            begun: list[ShardHandle] = []
            error: BaseException | None = None
            for key, batch in groups.items():
                shard = self._shards.get(key)
                if shard is None:
                    shard = self._make_shard(key)
                try:
                    if plan is not None:
                        for event in batch:
                            shard.routed += 1
                            plan.on_shard_event(key, shard.routed)
                            if plan.take_worker_kill(key, shard.routed):
                                shard.kill()
                    else:
                        shard.routed += len(batch)
                    shard.ingest_batch_begin(batch)
                except faults.FaultInjected as exc:
                    self._mark_down(shard)
                    error = exc
                    break
                except WorkerCrashed:
                    self._mark_down(shard)
                    error = ShardDown(key)
                    break
                begun.append(shard)
            # Gather every begun shard even on error: a pending reply
            # left in a surviving worker's pipe would desync its next
            # command.  The first error (scatter order, then gather
            # order) propagates after the drain.
            new: list[FailureWarning] = []
            for shard in begun:
                try:
                    new.extend(shard.ingest_batch_finish())
                except faults.FaultInjected as exc:
                    self._mark_down(shard)
                    error = error if error is not None else exc
                except WorkerCrashed:
                    self._mark_down(shard)
                    error = (
                        error if error is not None else ShardDown(shard.key)
                    )
            if error is not None:
                raise error
            return new

    def advance(self, now: float) -> list[FailureWarning]:
        """Move every live shard's clock (idle timer service).

        A worker found dead here is marked down and skipped; the fleet
        clock still advances everywhere else."""
        with self._lock:
            self._require_open()
            new: list[FailureWarning] = []
            for shard in list(self._shards.values()):
                if shard.key in self._down:
                    continue
                try:
                    new.extend(shard.advance(now))
                except WorkerCrashed:
                    self._mark_down(shard)
            return new

    def flush(self) -> list[FailureWarning]:
        """Drain every live shard's reorder buffer (end of stream)."""
        with self._lock:
            self._require_open()
            new: list[FailureWarning] = []
            for shard in list(self._shards.values()):
                if shard.key in self._down:
                    continue
                try:
                    new.extend(shard.flush())
                except WorkerCrashed:
                    self._mark_down(shard)
            return new

    def warnings(self, key: str) -> list[FailureWarning]:
        """Warnings accumulated by shard ``key``."""
        return self._shards[key].warnings()

    def summary(self) -> FleetSummary:
        """Per-shard summaries plus fleet aggregates, keyed by shard.

        A shard whose worker was hard-killed has no reachable state
        until :meth:`restore_shard` and is omitted (gracefully sealed
        shards still report their final snapshot)."""
        shards: dict[str, SessionSummary] = {}
        for key, shard in self._shards.items():
            try:
                shards[key] = shard.summary()
            except WorkerCrashed:
                continue
        return FleetSummary(shards=shards)

    @property
    def adaptive(self) -> bool:
        """Whether the fleet retrains on drift rather than a fixed cadence."""
        return self.config.retrain_trigger == "adaptive"

    def drift_status(self) -> dict[str, dict | None]:
        """Per-shard drift-detector/policy state, keyed by shard.

        Every value is None with the fixed trigger; with the adaptive
        trigger each shard evaluates its own stream, so shards can sit
        on different sides of a regime change at the same instant.
        """
        with self._lock:
            status: dict[str, dict | None] = {}
            for key, shard in self._shards.items():
                try:
                    status[key] = shard.drift_status()
                except WorkerCrashed:
                    status[key] = None
            return status

    def merged_metrics(self) -> dict[str, dict]:
        """Fleet-wide metrics view: the parent registry with every live
        worker's private series folded in (counters sum, histograms
        merge, gauges last-write).  A snapshot-shaped read-only view —
        the parent registry itself is never mutated, so repeated calls
        never double-count.  Inproc shards record directly into the
        parent registry and contribute no extra dump."""
        with self._lock:
            dumps = []
            for shard in self._shards.values():
                try:
                    dumps.append(shard.snapshot_metrics())
                except WorkerCrashed:
                    continue
            return observe.get_registry().merged_snapshot(dumps)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; streaming calls then raise."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this PredictionService is closed; events offered after "
                "close() would be silently lost"
            )

    def close(self) -> None:
        """Seal every shard, then the backend and owned executor.

        Sealing closes each shard's journal (and, under the subprocess
        backend, drains and joins its worker process).  Idempotent: a
        second close (e.g. the serve drain path and a ``with`` block
        both reaching it) is a no-op, so shards are never double-closed
        and the shared executor is released exactly once.  Close takes
        the service lock, so it serializes against an in-flight
        ``ingest_batch`` from another thread: the batch either fully
        applies (and its journal fds are still open while it does) or
        the batch never started and raises the closed error.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for shard in self._shards.values():
                shard.close()
            self._backend.close()
            if self._own_executor:
                self._own_executor = False
                assert self._executor is not None
                self._executor.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- fleet durability --------------------------------------------------

    def _require_fleet_dir(self) -> Path:
        if self.fleet_dir is None:
            raise ValueError(
                "this service has no fleet directory; pass fleet_dir= to "
                "enable fleet checkpoint/recovery"
            )
        return self.fleet_dir

    def checkpoint(self) -> dict:
        """Checkpoint every live shard, then the manifest; returns it.

        Down shards are skipped — their last checkpoint plus their
        journal already cover everything they accepted.  The manifest is
        written last (atomically), so a crash mid-checkpoint leaves a
        manifest that only references shard snapshots that fully exist.
        """
        with self._lock:
            self._require_open()
            self._require_fleet_dir()
            for shard in self._shards.values():
                if shard.key in self._down:
                    continue
                shard.checkpoint()
            manifest = self._write_manifest()
            observe.counter("service.checkpoints").inc()
            return manifest

    def _write_manifest(self) -> dict:
        fleet_dir = self.fleet_dir
        assert fleet_dir is not None
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "epoch": self.epoch,
            "migration": self.migration,
            "retain_journals": self.retain_journals,
            "router": self.router.spec(),
            "config_digest": ckpt.config_digest(self.config),
            "config": ckpt.config_to_dict(self.config),
            "origin": self.origin,
            "journal_fsync": (
                self.journal_fsync
                if isinstance(self.journal_fsync, int)
                else str(self.journal_fsync)
            ),
            "shards": [
                {
                    "key": shard.key,
                    "index": shard.index,
                    "dir": str(
                        shard.directory.relative_to(fleet_dir)
                        if shard.directory is not None
                        else ""
                    ),
                }
                for shard in sorted(
                    self._shards.values(), key=lambda s: s.index
                )
            ],
        }
        ckpt.atomic_write_json(fleet_dir / MANIFEST_NAME, manifest)
        return manifest

    def restore_shard(self, key: str):
        """Bring a down shard back from its checkpoint + journal.

        Under the subprocess backend this is a process respawn: the dead
        worker's SIGKILLed corpse is reaped and a fresh worker recovers
        from the shard directory.  Either way the restored session has
        seen exactly the inputs the dead one accepted (write-ahead
        journal replay past the checkpoint's recorded position); the
        event whose delivery killed the shard was never durable and must
        be re-delivered by the caller.  Returns the restored shard's
        session view.
        """
        with self._lock:
            self._require_fleet_dir()
            old = self._shards[key]
            if old.directory is None:
                raise ValueError(
                    f"shard {key!r} has no directory to restore from"
                )
            old.kill()
            shard = self._backend.recover_shard(key, old.index, old.directory)
            shard.routed = old.routed
            self._shards[key] = shard
            self._down.discard(key)
            observe.counter("service.shard_recoveries", shard=key).inc()
            return shard.session

    def restart_shard(self, key: str):
        """Drain one shard to disk and bring it back from its own state.

        The rolling-restart primitive: checkpoint the shard, seal it (a
        clean shutdown of just that shard — under the subprocess backend
        the worker process exits), then recover it through the same
        checkpoint+replay path a crash would use — so a rolling restart
        proves, shard by shard, that the fleet's durable state is
        sufficient to continue.  A shard already marked down skips the
        drain (there is nothing live to drain) and goes straight to
        recovery.  Returns the restarted shard's session view.
        """
        with self._lock:
            self._require_open()
            self._require_fleet_dir()
            shard = self._shards[key]
            if key not in self._down:
                shard.checkpoint()
                shard.seal()
                self._down.add(key)
            session = self.restore_shard(key)
            observe.counter("service.rolling_restarts", shard=key).inc()
            return session

    # -- live resharding ---------------------------------------------------

    def split_shard(self, key: str, parts: int) -> list[str]:
        """Split a hot shard into ``parts`` children; returns their keys.

        Checkpoint+journal handoff under a migration epoch — see
        :mod:`repro.service.resharding` for the step protocol and the
        crash-recovery contract.
        """
        from repro.service import resharding

        with self._lock:
            return resharding.split_shard(self, key, parts)

    def merge_shards(
        self, keys: list[str], target: str | None = None
    ) -> str:
        """Merge cold shards into one; returns the merged shard's key."""
        from repro.service import resharding

        with self._lock:
            return resharding.merge_shards(self, keys, target=target)

    @classmethod
    def recover(
        cls,
        fleet_dir: str | Path,
        config: FrameworkConfig | None = None,
        catalog: EventCatalog | None = None,
        *,
        executor: Executor | None = None,
        own_executor: bool = False,
        origin: float | None = None,
        journal_fsync: str | int | None = None,
        backend: "str | ShardBackend | None" = None,
    ) -> "PredictionService":
        """Crash-consistent recovery of the whole fleet.

        Reads the manifest (router spec, config, origin, migration
        epoch), then restores every shard found on disk — manifest-
        listed or not, because a shard created after the last manifest
        write still has its ``shard.json`` identity record and journal.
        Each shard resumes from its checkpoint (if one exists) and
        replays its journal past the recorded position; a shard killed
        before its first checkpoint replays its whole journal into a
        fresh session.

        Unlisted directories are epoch-gated: a directory whose
        ``shard.json`` epoch differs from the manifest's belongs to a
        migration — either a target half-built when the process died
        (newer epoch; the roll-forward below rebuilds it from scratch)
        or a retired source the cleanup step never reached (older
        epoch) — and is deleted, not resurrected.  If the manifest holds
        an in-flight migration record, recovery finishes the handoff
        (every step is idempotent), so the fleet always lands in the
        committed topology.

        ``config`` defaults to the manifest's; passing one asserts
        compatibility (digest mismatch raises
        :class:`~repro.resilience.CheckpointError`).
        """
        fleet_dir = Path(fleet_dir)
        manifest_path = fleet_dir / MANIFEST_NAME
        manifest = None
        if manifest_path.exists():
            manifest = _read_json(
                manifest_path, require_format=MANIFEST_FORMAT
            )
            if manifest.get("version") not in MANIFEST_READABLE_VERSIONS:
                raise ckpt.CheckpointError(
                    f"{manifest_path}: unsupported manifest version "
                    f"{manifest.get('version')!r} (this build reads "
                    f"versions "
                    f"{', '.join(map(str, MANIFEST_READABLE_VERSIONS))})"
                )
        router = None
        retain_journals = False
        epoch = 0
        migration = None
        if manifest is not None:
            router = router_from_spec(manifest["router"])
            if config is None:
                config = ckpt.config_from_dict(manifest["config"])
            elif ckpt.config_digest(config) != manifest["config_digest"]:
                raise ckpt.CheckpointError(
                    f"{manifest_path}: fleet manifest was written under a "
                    f"different configuration (digest mismatch)"
                )
            if origin is None:
                origin = manifest["origin"]
            if journal_fsync is None:
                journal_fsync = manifest["journal_fsync"]
            # v1 manifests predate resharding: epoch 0, no migration.
            retain_journals = manifest.get("retain_journals", False)
            epoch = manifest.get("epoch", 0)
            migration = manifest.get("migration")
        # Construct WITHOUT fleet_dir: the constructor's eager manifest
        # write would clobber the dead process's manifest — losing an
        # in-flight migration record before it can be rolled forward if
        # this recovery is itself killed.  The on-disk manifest stays
        # exactly as the crash left it until commit or checkpoint.
        service = cls(
            config,
            catalog=catalog,
            router=router,
            executor=executor,
            own_executor=own_executor,
            origin=origin if origin is not None else 0.0,
            journal_fsync=(
                journal_fsync if journal_fsync is not None else "always"
            ),
            retain_journals=retain_journals,
            backend=backend,
        )
        service.fleet_dir = fleet_dir
        (fleet_dir / SHARDS_DIRNAME).mkdir(parents=True, exist_ok=True)
        service.epoch = epoch
        service.migration = migration
        listed = (
            None
            if manifest is None
            else {entry["dir"] for entry in manifest["shards"]}
        )
        shards_root = fleet_dir / SHARDS_DIRNAME
        found: list[tuple[int, str, Path]] = []
        if shards_root.exists():
            for directory in sorted(shards_root.iterdir()):
                meta_path = directory / SHARD_META_NAME
                if not meta_path.exists():
                    continue
                meta = _read_json(meta_path)
                if listed is not None and (
                    str(directory.relative_to(fleet_dir)) not in listed
                ):
                    # Unlisted + wrong epoch = migration debris (see
                    # docstring); unlisted + current epoch = a shard
                    # born after the last manifest write, keep it.
                    if meta.get("epoch", epoch) != epoch:
                        shutil.rmtree(directory)
                        continue
                found.append((meta["index"], meta["key"], directory))
        found.sort()
        for index, key, directory in found:
            service._shards[key] = service._backend.recover_shard(
                key, index, directory
            )
        if found:
            service._next_index = max(index for index, _, _ in found) + 1
        observe.gauge("service.shards").set(len(service._shards))
        observe.counter("service.recoveries").inc()
        if service.migration is not None:
            # The process died mid-handoff: roll the migration forward
            # to its committed topology before serving anything.
            from repro.service import resharding

            resharding.resume_migration(service)
        return service


__all__ = [
    "CHECKPOINT_NAME",
    "FleetSummary",
    "JOURNAL_DIRNAME",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "MANIFEST_READABLE_VERSIONS",
    "MANIFEST_VERSION",
    "PredictionService",
    "SHARDS_DIRNAME",
    "SHARD_META_NAME",
    "ShardDown",
    "_slug",
]

