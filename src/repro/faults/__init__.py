"""Deterministic fault injection for chaos testing.

The resilience contracts of the online session — degraded-mode
retraining, journal crash recovery, late-event quarantine — are
only trustworthy if they are exercised, so this package provides a
seedable :class:`FaultPlan` describing *when* the infrastructure should
misbehave, plus pure helpers that corrupt log lines and jitter
timestamps the way real collectors do.

A plan is activated with :func:`install` (a context manager); hook
points such as :meth:`repro.core.meta.MetaLearner.train` consult the
active plan and raise on a match::

    plan = FaultPlan(learner_crashes=[LearnerCrash(week=28, attempts=1)])
    with faults.install(plan):
        for event in log:
            session.ingest(event)   # week-28 retrain crashes once

Plans are deterministic: the same plan over the same stream injects the
same faults, so chaos tests replay exactly.  No plan is ever active
unless a test installs one — the hooks are a single ``is None`` check in
production.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.faults.corrupt import corrupt_lines, jitter_timestamps


class FaultInjected(RuntimeError):
    """An artificial failure raised by an installed :class:`FaultPlan`."""


@dataclass(frozen=True, slots=True)
class LearnerCrash:
    """Crash meta-training at ``week`` for its first ``attempts`` tries.

    ``attempts=1`` models a transient bug (the retry succeeds);
    ``attempts=10**9`` models a persistent one.  ``learner`` names the
    culprit in the raised message (provenance only — the crash surfaces
    from :meth:`MetaLearner.train` either way, exactly like a real
    learner exception).
    """

    week: int
    attempts: int = 1
    learner: str | None = None


@dataclass(frozen=True, slots=True)
class JournalFault:
    """Fault the write-ahead journal append of global record ``record``.

    ``mode="torn"`` writes only the first ``keep_bytes`` bytes of the
    framed record and then kills the journal (the append raises
    :class:`FaultInjected`), modelling a power loss mid-write — recovery
    must truncate the torn tail.  ``mode="bitflip"`` XORs ``flip_mask``
    into payload byte ``flip_byte`` and lets the append succeed,
    modelling bit rot — recovery must refuse to replay past it.
    """

    record: int
    mode: str = "torn"
    keep_bytes: int = 4
    flip_byte: int = 0
    flip_mask: int = 0x01

    def __post_init__(self) -> None:
        if self.mode not in ("torn", "bitflip"):
            raise ValueError(f"unknown journal fault mode {self.mode!r}")


@dataclass(frozen=True, slots=True)
class ShardKill:
    """Kill one fleet shard when its ``at_count``-th event is routed to it.

    The hook fires in :meth:`repro.service.PredictionService.ingest`
    *before* the event reaches the shard's session, so the killed
    event was never journaled — exactly the semantics of a process dying
    between receiving an input and accepting it: the event was never
    durable and its source must re-deliver it.  The service marks the
    shard down (its journal is closed, later events for it raise
    ``ShardDown``) while every other shard keeps serving.
    """

    shard: str
    at_count: int = 1

    def __post_init__(self) -> None:
        if self.at_count < 1:
            raise ValueError(
                f"at_count must be a positive ordinal, got {self.at_count}"
            )


@dataclass(frozen=True, slots=True)
class ReshardCrash:
    """Kill the process at a named live-resharding handoff step.

    The hook fires in :mod:`repro.service.resharding` *after* the named
    step's on-disk effects are durable and before the next step begins,
    so it models a process dying between handoff steps.  Steps, in
    order: ``"begin"`` (migration record in the manifest), ``"seal"``
    (source journals closed), ``"build"`` (target shards built and
    checkpointed), ``"commit"`` (manifest atomically switched to the new
    topology), ``"cleanup"`` (retired source directories removed).
    Every intermediate state must be recoverable by
    ``PredictionService.recover``, which rolls an in-flight migration
    forward; the ``injected`` guard keeps the re-run from crashing at
    the same step again.
    """

    step: str

    _STEPS = ("begin", "seal", "build", "commit", "cleanup")

    def __post_init__(self) -> None:
        if self.step not in self._STEPS:
            raise ValueError(
                f"unknown reshard step {self.step!r} "
                f"(expected one of {', '.join(self._STEPS)})"
            )


@dataclass(frozen=True, slots=True)
class ConnectionDrop:
    """Abruptly drop serving connection ``conn`` at its ``at_frame``-th frame.

    The hook fires in the server's read loop after the frame is counted
    but before it is dispatched, and the server aborts the transport
    (RST, no ``bye`` frame) — modelling a collector agent dying
    mid-conversation.  The dropped frame and everything the client had
    pipelined behind it were never accepted, so the client's
    unacknowledged tail covers exactly what must be re-sent.  ``conn``
    is the server's accept-order connection ordinal (0-based).
    """

    conn: int
    at_frame: int = 1

    def __post_init__(self) -> None:
        if self.at_frame < 1:
            raise ValueError(
                f"at_frame must be a positive ordinal, got {self.at_frame}"
            )


@dataclass
class FaultPlan:
    """A deterministic schedule of infrastructure misbehaviour.

    The plan tracks its own attempt counters, so "crash the first K
    attempts at week W" needs no cooperation from the code under test.
    Counters make a plan stateful: build a fresh one per scenario.
    """

    learner_crashes: list[LearnerCrash] = field(default_factory=list)
    journal_faults: list[JournalFault] = field(default_factory=list)
    shard_kills: list[ShardKill] = field(default_factory=list)
    connection_drops: list[ConnectionDrop] = field(default_factory=list)
    reshard_crashes: list[ReshardCrash] = field(default_factory=list)

    #: retrain attempts observed so far, per week
    train_attempts: dict[int, int] = field(default_factory=dict)
    #: faults actually raised, for test assertions
    injected: list[str] = field(default_factory=list)

    def on_train(self, week: int) -> None:
        """Hook: called by ``MetaLearner.train`` before training learners."""
        attempt = self.train_attempts.get(week, 0) + 1
        self.train_attempts[week] = attempt
        for crash in self.learner_crashes:
            if crash.week == week and attempt <= crash.attempts:
                who = crash.learner or "learner"
                record = f"train:{week}:{attempt}"
                self.injected.append(record)
                raise FaultInjected(
                    f"injected {who} crash at week {week} (attempt {attempt})"
                )

    def on_shard_event(self, shard: str, count: int) -> None:
        """Hook: called by ``PredictionService.ingest`` before delegating.

        ``count`` is the ordinal of this event among those routed to
        ``shard`` in this process.  A matching :class:`ShardKill` fires
        exactly once (re-delivery after recovery sees a higher ordinal
        and the ``injected`` guard, so the shard is not re-killed).
        """
        for kill in self.shard_kills:
            record = f"shard:{shard}:{kill.at_count}"
            if (
                kill.shard != shard
                or count != kill.at_count
                or record in self.injected
            ):
                continue
            self.injected.append(record)
            raise FaultInjected(
                f"injected shard kill on {shard!r} at routed event {count}"
            )

    def on_reshard_step(self, step: str) -> None:
        """Hook: called by the resharding engine after each handoff step.

        A matching :class:`ReshardCrash` fires exactly once — the
        recovery that rolls the migration forward re-walks the same
        steps, and the ``injected`` guard lets it pass the second time.
        """
        for crash in self.reshard_crashes:
            record = f"reshard:{crash.step}"
            if crash.step != step or record in self.injected:
                continue
            self.injected.append(record)
            raise FaultInjected(
                f"injected process kill after reshard step {step!r}"
            )

    def on_net_frame(self, conn: int, count: int) -> None:
        """Hook: called by the serving read loop per received frame.

        ``count`` is the 1-based ordinal of this frame on connection
        ``conn``.  A matching :class:`ConnectionDrop` fires exactly once;
        the server aborts that connection and keeps serving the rest.
        """
        for drop in self.connection_drops:
            record = f"net:{drop.conn}:{drop.at_frame}"
            if (
                drop.conn != conn
                or count != drop.at_frame
                or record in self.injected
            ):
                continue
            self.injected.append(record)
            raise FaultInjected(
                f"injected connection drop on conn {conn} at frame {count}"
            )

    def on_journal_append(
        self, index: int, framed: bytes
    ) -> tuple[bytes, str | None]:
        """Hook: called by ``EventJournal.append_batch`` once per framed
        record, with the record's global index.

        Returns ``(bytes_to_write, kill_message)``.  A non-None kill
        message tells the journal to write the batch's frames before
        this one plus the (partial) bytes, close itself and raise
        :class:`FaultInjected` — the torn-write crash.
        A bit flip mutates the bytes and lets the append succeed.
        """
        for fault in self.journal_faults:
            record = f"journal:{fault.mode}:{index}"
            if fault.record != index or record in self.injected:
                continue
            self.injected.append(record)
            if fault.mode == "bitflip":
                mutated = bytearray(framed)
                # Skip the 8-byte length+CRC header: rot the payload so
                # the stored CRC no longer matches.
                mutated[8 + fault.flip_byte] ^= fault.flip_mask
                return bytes(mutated), None
            return framed[: fault.keep_bytes], (
                f"injected torn write on journal record {index} "
                f"(kept {fault.keep_bytes} of {len(framed)} bytes)"
            )
        return framed, None


_lock = threading.Lock()
_active: FaultPlan | None = None


def active() -> FaultPlan | None:
    """The currently installed plan, or None (the production state)."""
    return _active


@contextmanager
def install(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of a ``with`` block."""
    global _active
    with _lock:
        if _active is not None:
            raise RuntimeError("a fault plan is already installed")
        _active = plan
    try:
        yield plan
    finally:
        with _lock:
            _active = None


__all__ = [
    "ConnectionDrop",
    "FaultInjected",
    "FaultPlan",
    "JournalFault",
    "LearnerCrash",
    "ReshardCrash",
    "ShardKill",
    "active",
    "corrupt_lines",
    "install",
    "jitter_timestamps",
]
