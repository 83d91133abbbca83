"""Live resharding: split a hot shard or merge cold ones, losslessly.

A shard's warnings are a function of its *combined* event stream — the
session is location-agnostic, so the state of a split child cannot
be carved out of the parent's session state.  What CAN reproduce it is
the parent's write-ahead journal: every input the parent ever accepted,
in acceptance order, from record 0 (shard journals are never compacted
past what resharding needs — see :attr:`EventJournal.retain` and the
``start_position`` check below).  Resharding is therefore a
**checkpoint+journal handoff**: build the target shards by replaying the
source journals through the *new* routing, checkpoint them, then switch
the manifest atomically.

The handoff runs in five idempotent steps, each durable before the next
begins, so a process death at any boundary is rolled forward by
:meth:`PredictionService.recover`:

1. **begin** — the migration record (epoch, kind, sources, targets,
   target indices) is written into the manifest.  From here on, recovery
   knows a migration is in flight and will re-run it.
2. **seal** — source journals are closed and the sources marked down;
   their on-disk history is now the frozen handoff substrate.
3. **build** — each target gets a fresh directory (wiped first, so a
   half-built target from a previous attempt cannot leak state), a fresh
   session with its own journal, and the source records replayed through
   the new routing rule; born targets are checkpointed.  A target that
   receives no events is discarded — it will be created lazily at its
   first event, exactly like a shard in a fleet born with this topology.
4. **commit** — the manifest is rewritten atomically with the new epoch,
   the routing rule appended, sources delisted and targets listed.  This
   single ``os.replace`` is the commit point: a crash before it recovers
   the old topology and re-runs the handoff; a crash after it recovers
   the new topology.
5. **cleanup** — retired source directories are deleted (their history
   lives on in the target journals).  Recovery deletes any the crash
   left behind (epoch-gated directory scan).

Equivalence contract: after a split or merge, the fleet's warnings are
warning-for-warning identical to a fleet *born* with the final topology
and fed the same stream (pinned by the chaos suite, which also kills the
process at every step boundary via :class:`repro.faults.ReshardCrash`
and injects :class:`repro.faults.ShardKill` mid-replay).

Merging requires ``reorder_slack == 0``: the rebuild interleaves the
source journals by ``(timestamp, record_id)`` with each journal's own
record order preserved, which reconstructs the original arrival order
only when every source stream is time-ordered.  (Splitting has no such
constraint — one source journal, already in acceptance order.)
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro import faults, observe
from repro.raslog.events import RASEvent
from repro.resilience import checkpoint as ckpt
from repro.resilience.journal import EventJournal
from repro.service.backends import ShardHandle
from repro.service.partition import RoutingRule, as_fleet
from repro.service.service import JOURNAL_DIRNAME, SHARD_META_NAME

if TYPE_CHECKING:
    from repro.service.service import PredictionService


class ReshardError(RuntimeError):
    """A split/merge that cannot be planned or executed."""


def _step(step: str) -> None:
    """Chaos hook: a :class:`~repro.faults.ReshardCrash` naming this
    step simulates the process dying right after the step's effects hit
    disk."""
    plan = faults.active()
    if plan is not None:
        plan.on_reshard_step(step)


# -- planning ----------------------------------------------------------------


def _require_ready(service: "PredictionService") -> None:
    service._require_open()
    service._require_fleet_dir()
    if service.migration is not None:
        raise ReshardError(
            f"a migration to epoch {service.migration['epoch']} is already "
            f"in flight; recover or finish it first"
        )


def _require_full_journal(service: "PredictionService", key: str) -> None:
    journal = service._shards[key].session.journal
    if journal is None:
        raise ReshardError(f"shard {key!r} has no journal to hand off")
    start = journal.start_position
    if start != 0:
        raise ReshardError(
            f"shard {key!r}'s journal starts at record {start}, not 0 — "
            f"its early history was compacted away; run the fleet with "
            f"retain_journals=True to keep shards splittable/mergeable"
        )


def split_shard(
    service: "PredictionService", key: str, parts: int
) -> list[str]:
    """Split shard ``key`` into ``parts`` children; returns child keys."""
    _require_ready(service)
    if parts < 2:
        raise ReshardError(f"a split needs >= 2 parts, got {parts}")
    if key not in service._shards:
        raise ReshardError(f"unknown shard {key!r}")
    _require_full_journal(service, key)
    targets = [f"{key}/{i}" for i in range(parts)]
    for child in targets:
        if child in service._shards:
            raise ReshardError(
                f"split target key {child!r} is already a shard"
            )
    migration = {
        "epoch": service.epoch + 1,
        "kind": "split",
        "sources": [key],
        "targets": targets,
        "indices": list(
            range(service._next_index, service._next_index + parts)
        ),
    }
    _execute(service, migration, begin=True)
    return targets


def merge_shards(
    service: "PredictionService",
    keys: list[str],
    target: str | None = None,
) -> str:
    """Merge shards ``keys`` into one; returns the merged shard's key."""
    _require_ready(service)
    if len(keys) < 2 or len(set(keys)) != len(keys):
        raise ReshardError(
            f"a merge needs >= 2 distinct source shards, got {keys!r}"
        )
    if service.config.reorder_slack > 0:
        raise ReshardError(
            "merging requires reorder_slack == 0: the rebuild interleaves "
            "source journals by event time, which is only the original "
            "arrival order when every source stream is time-ordered"
        )
    for key in keys:
        if key not in service._shards:
            raise ReshardError(f"unknown shard {key!r}")
        _require_full_journal(service, key)
    if target is None:
        target = f"merged-{service.epoch + 1:03d}"
    if target in service._shards or target in keys:
        raise ReshardError(f"merge target key {target!r} is already a shard")
    migration = {
        "epoch": service.epoch + 1,
        "kind": "merge",
        "sources": list(keys),
        "targets": [target],
        "indices": [service._next_index],
    }
    _execute(service, migration, begin=True)
    return target


def resume_migration(service: "PredictionService") -> None:
    """Roll an in-flight migration (found in the manifest) forward.

    Called by :meth:`PredictionService.recover` when the manifest holds
    a migration record: the process died somewhere after **begin**, and
    every later step is idempotent, so re-running them lands the fleet
    in the committed topology.
    """
    assert service.migration is not None
    _execute(service, service.migration, begin=False)


# -- execution ---------------------------------------------------------------


@dataclass
class _TargetBuild:
    """A target shard under construction during the build step."""

    key: str
    index: int
    directory: Path
    #: shard handle in build mode: journal fsync off, unmetered until
    #: :meth:`~repro.service.backends.ShardHandle.finalize_build`
    handle: ShardHandle
    #: True once the first event lands (unborn targets are discarded —
    #: a fleet born with this topology would create them lazily)
    born: bool = False
    #: replayed-event ordinal, for the ShardKill chaos hook
    routed: int = 0
    run: list[RASEvent] = field(default_factory=list)


def _execute(
    service: "PredictionService", migration: dict, *, begin: bool
) -> None:
    fleet_dir = service._require_fleet_dir()
    sources = list(migration["sources"])
    source_dirs = [service._shards[k].directory for k in sources]
    if any(d is None for d in source_dirs):
        raise ReshardError("resharding requires directory-backed shards")

    if begin:
        # Step 1: durably declare the migration so a crash anywhere past
        # this point is rolled forward, never half-abandoned.
        service.migration = migration
        service._write_manifest()
        _step("begin")

    # Step 2: freeze the handoff substrate.  Sealing closes each
    # source's journal (its on-disk journal is what the build
    # replays).  Sealed sources are
    # marked down — if the process lives through the handoff they are
    # replaced at commit; if it dies, recovery re-seals them.
    for key in sources:
        service._shards[key].seal()
        service._down.add(key)
    _step("seal")

    # Step 3: rebuild the targets from the sealed journals.
    targets = _build_targets(service, migration, source_dirs)
    _step("build")

    # Step 4: the atomic topology switch.
    rule = RoutingRule(
        kind=migration["kind"],
        sources=tuple(sources),
        targets=tuple(migration["targets"]),
    )
    service.router = as_fleet(service.router).with_rule(rule)
    for key in sources:
        service._shards.pop(key)
        service._down.discard(key)
    for build in targets:
        build.handle.routed = 0
        service._shards[build.key] = build.handle
    service.epoch = migration["epoch"]
    service.migration = None
    service._next_index = max(
        service._next_index, max(migration["indices"]) + 1
    )
    service._write_manifest()
    observe.counter(
        "service.reshards", kind=migration["kind"]
    ).inc()
    observe.gauge("service.shards").set(len(service._shards))
    _step("commit")

    # Step 5: the retired sources' history now lives in the target
    # journals; recovery deletes these directories if we die first.
    for directory in source_dirs:
        assert directory is not None
        if directory.exists():
            shutil.rmtree(directory)
    ckpt.fsync_directory(fleet_dir / "shards")
    _step("cleanup")


def _build_targets(
    service: "PredictionService",
    migration: dict,
    source_dirs: list[Path | None],
) -> list[_TargetBuild]:
    """Replay the sealed source journals into fresh target shards."""
    rule = RoutingRule(
        kind=migration["kind"],
        sources=tuple(migration["sources"]),
        targets=tuple(migration["targets"]),
    )
    builds: dict[str, _TargetBuild] = {}
    for key, index in zip(migration["targets"], migration["indices"]):
        directory = service._shard_dir(index, key)
        assert directory is not None
        if directory.exists():
            # A half-built target from an attempt the crash interrupted.
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        ckpt.atomic_write_json(
            directory / SHARD_META_NAME,
            {"key": key, "index": index, "epoch": migration["epoch"]},
        )
        # Build mode: replay with journal fsync off — every record is
        # still durable in the source journals until cleanup — and
        # metering disabled; finalize_build() below syncs once, restores
        # the fleet policy, and arms the meters before the target goes
        # live.
        handle = service._create_shard(key, index, directory, build=True)
        builds[key] = _TargetBuild(
            key=key, index=index, directory=directory, handle=handle
        )

    plan = faults.active()

    def flush_run(build: _TargetBuild) -> None:
        if not build.run:
            return
        events, build.run = build.run, []
        if plan is not None:
            for _ in events:
                build.routed += 1
                plan.on_shard_event(build.key, build.routed)
        else:
            build.routed += len(events)
        build.handle.ingest_batch(events)
        build.born = True

    # Only one build ever holds a pending run: runs exist to group
    # *consecutive* same-target ingests into one group-commit batch.
    current: _TargetBuild | None = None
    for record in _source_records(migration, source_dirs):
        kind = record.get("kind")
        if kind == "ingest":
            event = RASEvent.from_dict(record["event"])
            key = rule.apply(rule.sources[0], event.location)
            build = builds[key]
            if current is not None and current is not build:
                flush_run(current)
            build.run.append(event)
            current = build
        elif kind == "advance":
            if current is not None:
                flush_run(current)
                current = None
            for build in builds.values():
                if build.born:
                    build.handle.advance(record["now"])
        elif kind == "flush":
            if current is not None:
                flush_run(current)
                current = None
            for build in builds.values():
                if build.born:
                    build.handle.flush()
        else:
            raise ReshardError(f"unknown journal record kind {kind!r}")
    if current is not None:
        flush_run(current)

    born: list[_TargetBuild] = []
    for build in builds.values():
        if not build.born:
            build.handle.seal()
            shutil.rmtree(build.directory)
            continue
        build.handle.finalize_build(service.journal_fsync)
        born.append(build)
    return born


def _source_records(
    migration: dict, source_dirs: list[Path | None]
) -> Iterator[dict]:
    """The sealed sources' records, in original global acceptance order.

    One source (split): its journal order IS the acceptance order.
    Several (merge): a cursor merge that never reorders records within a
    journal and interleaves across journals by ``(timestamp, record_id)``
    — sound because merge demands time-ordered sources.  ``advance``
    records are broadcast writes (every live shard journals the same
    clock move), so when one is delivered, the matching record is
    consumed from every cursor that is parked on it.
    """
    journals = []
    try:
        for directory in source_dirs:
            assert directory is not None
            journals.append(
                EventJournal(directory / JOURNAL_DIRNAME, fsync="never")
            )
        if len(journals) == 1:
            for _index, record in journals[0].replay(0):
                yield record
            return
        cursors = [_Cursor(j.replay(0)) for j in journals]
        while True:
            head_keys = [
                (c.sort_key(), i)
                for i, c in enumerate(cursors)
                if c.head is not None
            ]
            if not head_keys:
                return
            _, winner = min(head_keys)
            record = cursors[winner].pop()
            if record.get("kind") == "advance":
                for cursor in cursors:
                    head = cursor.head
                    if (
                        cursor is not cursors[winner]
                        and head is not None
                        and head.get("kind") == "advance"
                        and head["now"] == record["now"]
                    ):
                        cursor.pop()
            yield record
    finally:
        for journal in journals:
            journal.close()


class _Cursor:
    """One journal's replay iterator with a peekable head."""

    def __init__(self, records: Iterator[tuple[int, dict]]) -> None:
        self._records = records
        self.head: dict | None = None
        self._advance()

    def _advance(self) -> None:
        entry = next(self._records, None)
        self.head = None if entry is None else entry[1]

    def pop(self) -> dict:
        assert self.head is not None
        record, self.head = self.head, None
        self._advance()
        return record

    def sort_key(self) -> tuple[float, int, int]:
        record = self.head
        assert record is not None
        kind = record.get("kind")
        if kind == "ingest":
            event = record["event"]
            return (event["timestamp"], 0, event["record_id"])
        if kind == "advance":
            # After same-time ingests: an event at t journaled before
            # advance(t) sits earlier in its own journal and the cursor
            # discipline already orders them; across journals, ingests
            # at t that the original stream placed after advance(t) are
            # *behind* their journal's own advance(t) record, so they
            # cannot surface early.
            return (record["now"], 1, 0)
        raise ReshardError(
            f"cannot merge journals containing {kind!r} records"
        )


__all__ = [
    "ReshardError",
    "merge_shards",
    "resume_migration",
    "split_shard",
]
