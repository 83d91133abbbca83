"""Shard worker: one shared-nothing process owning one session stack.

This is the child side of :class:`~repro.service.backends
.SubprocessBackend`.  The parent spawns one worker per shard with a
picklable :class:`WorkerSpec`; the worker builds (or recovers) its own
:class:`~repro.core.online.OnlinePredictionSession` — session core,
write-ahead journal, checkpoint wrapper, worker-local executor — and
then serves commands off a duplex pipe until told to ``seal``.

**Protocol.**  Requests are ``(op, args)`` tuples; every reply is
``(status, payload, n_ingested, injected)``:

* ``status`` — ``"ok"`` or ``"error"`` (payload is then the exception,
  re-raised parent-side so fault semantics match the inproc backend);
* ``n_ingested`` — the worker's accepted-event ledger, piggybacked on
  every reply so the parent's fleet accounting survives a later SIGKILL;
* ``injected`` — chaos-fault records added since the previous reply,
  folded into the parent's active plan so suites asserting on
  ``plan.injected`` see worker-side faults too.

**Process hygiene.**  The worker installs a fresh metrics registry
(shipped back via ``snapshot_metrics`` as a mergeable dump) and resets
the fault layer to the plan slice in its spec, so state inherited from a
forked parent never double-fires.  A broken pipe to the parent means the
parent is gone: the worker ``os._exit``\\ s *without* flushing — its
journal files may already have been reopened by a recovered service's
new worker, and flushing a stale buffered tail into them would corrupt
the very state recovery depends on.  The only clean exit is ``seal``,
which snapshots the session's final read-state for the parent, closes
the journal, and returns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any

from repro import faults, observe
from repro.core.config import FrameworkConfig
from repro.core.online import OnlinePredictionSession
from repro.observe.wrappers import MeteredSession
from repro.parallel.executor import make_executor
from repro.raslog.catalog import EventCatalog
from repro.resilience.journal import EventJournal, parse_fsync_policy

CHECKPOINT_NAME = "checkpoint.json"
JOURNAL_DIRNAME = "journal"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to own one shard — fully picklable,
    so every multiprocessing start method (fork/spawn/forkserver) works."""

    key: str
    index: int
    #: shard directory as a string (None = dirless: no journal/checkpoint)
    directory: str | None
    #: "create" for a fresh shard, "recover" for checkpoint+journal replay
    mode: str
    config: FrameworkConfig
    catalog: EventCatalog
    origin: float
    journal_fsync: str | int
    retain_journals: bool
    #: worker-local executor kind ("process" is coerced parent-side)
    executor_kind: str
    #: wrap the session in MeteredSession (off during resharding builds)
    metered: bool
    #: session-level chaos-fault slice (see FaultPlan.worker_plan)
    fault_plan: faults.FaultPlan | None


def _journal(spec: WorkerSpec) -> EventJournal | None:
    if spec.directory is None:
        return None
    return EventJournal(
        Path(spec.directory) / JOURNAL_DIRNAME,
        fsync=spec.journal_fsync,
        retain=spec.retain_journals,
    )


def _build_session(
    spec: WorkerSpec, executor
) -> OnlinePredictionSession:
    if spec.mode == "recover":
        assert spec.directory is not None, "cannot recover a dirless shard"
        return OnlinePredictionSession.recover(
            Path(spec.directory) / CHECKPOINT_NAME,
            _journal(spec),
            spec.config,
            catalog=spec.catalog,
            executor=executor,
            origin=spec.origin,
        )
    return OnlinePredictionSession(
        spec.config,
        catalog=spec.catalog,
        executor=executor,
        origin=spec.origin,
        journal=_journal(spec),
    )


class _Worker:
    """Per-process state + the op dispatch table."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.registry = observe.MetricsRegistry()
        observe.set_registry(self.registry)
        faults.reset(spec.fault_plan)
        self._injected_sent = 0
        self.executor = make_executor(spec.executor_kind)
        self.session = _build_session(spec, self.executor)
        self.metered: MeteredSession | None = None
        if spec.metered:
            self.metered = MeteredSession(
                self.session,
                prefix="service",
                degraded_of=self.session,
                shard=spec.key,
            )

    @property
    def target(self):
        return self.metered if self.metered is not None else self.session

    def injected_delta(self) -> list[str]:
        plan = faults.active()
        if plan is None:
            return []
        delta = plan.injected[self._injected_sent:]
        self._injected_sent = len(plan.injected)
        return list(delta)

    # -- ops ---------------------------------------------------------------

    def state(self) -> dict:
        session = self.session
        return {
            "n_ingested": session.n_ingested,
            "degraded": session.degraded,
            "current_week": session.current_week,
            "n_quarantined": session.n_quarantined,
        }

    def journal_start(self) -> int | None:
        journal = self.session.journal
        return None if journal is None else journal.start_position

    def checkpoint(self) -> dict:
        assert self.spec.directory is not None
        return self.session.checkpoint(
            Path(self.spec.directory) / CHECKPOINT_NAME
        )

    def finalize_build(self, journal_fsync: str | int) -> None:
        journal = self.session.journal
        assert journal is not None, "finalize_build on a dirless shard"
        journal.sync()
        journal.fsync_policy = parse_fsync_policy(journal_fsync)
        self.checkpoint()
        self.metered = MeteredSession(
            self.session,
            prefix="service",
            degraded_of=self.session,
            shard=self.spec.key,
        )

    def seal(self) -> dict:
        """Final read-state snapshot, then a clean shutdown.

        The parent caches this payload on the handle so reads on a
        sealed shard (warnings, summary, fleet accounting) keep working
        after the process is gone — matching the inproc backend, where
        the dead shard's session object remains inspectable.
        """
        session = self.session
        final = {
            "warnings": session.warnings,
            "summary": session.summary(),
            "retrains": session.retrains,
            "retrain_failures": session.retrain_failures,
            "drift_status": session.drift_status(),
            "state": self.state(),
            "journal_start": self.journal_start(),
            "snapshot_metrics": self.registry.dump(),
        }
        journal = session.journal
        if journal is not None and not journal.closed:
            journal.close()
        self.executor.close()
        return final

    def dispatch(self, op: str, args: tuple) -> Any:
        if op == "ingest":
            return self.target.ingest(args[0])
        if op == "ingest_batch":
            return self.target.ingest_batch(args[0])
        if op == "advance":
            return self.target.advance(args[0])
        if op == "flush":
            return self.target.flush()
        if op == "warnings":
            return self.session.warnings
        if op == "summary":
            return self.session.summary()
        if op == "retrains":
            return self.session.retrains
        if op == "retrain_failures":
            return self.session.retrain_failures
        if op == "drift_status":
            return self.session.drift_status()
        if op == "state":
            return self.state()
        if op == "journal_start":
            return self.journal_start()
        if op == "snapshot_metrics":
            return self.registry.dump()
        if op == "checkpoint":
            return self.checkpoint()
        if op == "finalize_build":
            return self.finalize_build(args[0])
        if op == "ping":
            return os.getpid()
        raise ValueError(f"unknown worker op {op!r}")


def _send(conn: Connection, status, payload, n_ingested, injected) -> bool:
    """Reply, downgrading unpicklable error payloads; False if the
    parent is gone."""
    try:
        conn.send((status, payload, n_ingested, injected))
        return True
    except (BrokenPipeError, OSError):
        return False
    except Exception:
        if status != "error":
            raise
        conn.send(
            (status, RuntimeError(repr(payload)), n_ingested, injected)
        )
        return True


def worker_main(spec: WorkerSpec, conn: Connection) -> None:
    """Child-process entry point: build the shard, serve the pipe."""
    try:
        worker = _Worker(spec)
    except BaseException as exc:  # startup failed: report, then die
        _send(conn, "error", exc, 0, [])
        os._exit(1)
    if not _send(
        conn, "ready", None, worker.session.n_ingested,
        worker.injected_delta(),
    ):
        os._exit(1)
    while True:
        try:
            op, args = conn.recv()
        except (EOFError, OSError):
            # Parent gone.  Exit WITHOUT flushing: a recovered service
            # may already own our journal files (see module docstring).
            os._exit(1)
        if op == "seal":
            try:
                final = worker.seal()
            except BaseException as exc:
                _send(
                    conn, "error", exc, worker.session.n_ingested,
                    worker.injected_delta(),
                )
                os._exit(1)
            _send(
                conn, "ok", final, worker.session.n_ingested,
                worker.injected_delta(),
            )
            break
        try:
            payload = worker.dispatch(op, args)
            status = "ok"
        except Exception as exc:
            payload, status = exc, "error"
        if not _send(
            conn, status, payload, worker.session.n_ingested,
            worker.injected_delta(),
        ):
            os._exit(1)
    conn.close()


__all__ = ["WorkerSpec", "worker_main"]
