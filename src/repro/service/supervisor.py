"""Shard supervision: automatic restore with backoff + a circuit breaker.

A dead shard in :class:`~repro.service.PredictionService` stays dead
until someone calls ``restore_shard()`` — fine in a test, not in a
served fleet whose whole purpose is riding out the failures it predicts.
:class:`ShardSupervisor` closes the loop:

* **detection** — :meth:`poll` compares ``service.down_shards`` against
  its ledger and schedules a restore for every newly-down shard;
* **capped exponential backoff** — the k-th *consecutive* crash (within
  ``crash_window`` seconds of the last restore) waits
  ``min(backoff_base * 2**(k-1), backoff_cap)`` before the next restore
  attempt, so a flapping shard does not hot-loop through recovery;
* **circuit breaker** — past ``max_restarts`` consecutive crashes the
  shard is parked ``quarantined``: no further automatic restores, events
  routed to it keep failing per-event (the serving layer answers
  ``shard_down`` for exactly those events while the rest of the batch
  commits), until an operator calls :meth:`release`;
* **rolling restart** — :meth:`restart_plan` names the shards a
  rolling restart drains/checkpoints/rejoins one at a time through
  :meth:`PredictionService.restart_shard`, proving each shard's durable
  state can carry it while the rest keep serving.

The supervisor is a *pull*-model control loop: it only acts inside
:meth:`poll`, and never spawns threads, so the serving layer can run it
on the same engine thread that owns the service (no new locking domain)
and tests can drive it with a fake clock.

Observability: ``fleet.shard_restarts{shard=...}`` counts automatic
restores, ``fleet.restore_failures{shard=...}`` counts restore attempts
that themselves crashed, ``fleet.quarantines{shard=...}`` counts circuit
openings, and the ``fleet.quarantined`` gauge is the current number of
parked shards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro import observe

if TYPE_CHECKING:
    from repro.service.service import PredictionService

#: supervisor states a shard can be in
UP = "up"
DOWN = "down"
QUARANTINED = "quarantined"


@dataclass(frozen=True, slots=True)
class ShardHealth:
    """One shard's control-plane view, as reported by :meth:`status`."""

    key: str
    state: str
    #: successful automatic restores so far
    restarts: int
    #: consecutive crashes inside the current crash window
    crashes: int
    #: clock time of the last successful restore (None: never restored)
    last_restart: float | None
    #: clock time of the next scheduled restore attempt (None: none due)
    next_attempt: float | None
    #: message of the error that caused the last crash/failed restore
    last_error: str | None


@dataclass
class _Ledger:
    """Supervisor-private per-shard bookkeeping."""

    restarts: int = 0
    crashes: int = 0
    last_restart: float | None = None
    next_attempt: float | None = None
    quarantined: bool = False
    last_error: str | None = None
    pending: bool = field(default=False)


class ShardSupervisor:
    """Watch a service's shards; restore crashed ones, park flapping ones.

    ``clock`` defaults to :func:`time.monotonic`; tests inject a fake so
    backoff schedules are deterministic.  All methods must be called
    from the thread that owns the service (the supervisor adds no
    synchronization of its own beyond the service's internal lock).
    """

    def __init__(
        self,
        service: "PredictionService",
        *,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        max_restarts: int = 5,
        crash_window: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if backoff_base <= 0 or backoff_cap <= 0:
            raise ValueError("backoff_base and backoff_cap must be positive")
        if max_restarts < 1:
            raise ValueError(
                f"max_restarts must be >= 1, got {max_restarts}"
            )
        self.service = service
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_restarts = max_restarts
        self.crash_window = crash_window
        self._clock = clock
        self._ledger: dict[str, _Ledger] = {}

    # -- the control loop --------------------------------------------------

    def poll(self, now: float | None = None) -> list[str]:
        """One supervision tick; returns the keys restored this tick.

        Detects newly-down shards, schedules their restores with
        backoff, attempts the restores that have come due, and opens the
        circuit on shards that keep crashing.  Safe to call at any
        frequency — an early call just finds nothing due yet.
        """
        if now is None:
            now = self._clock()
        down = self.service.down_shards
        for key in sorted(down):
            entry = self._ledger.setdefault(key, _Ledger())
            if entry.pending or entry.quarantined:
                continue
            self._note_crash(entry, key, now, error=None)
        restored: list[str] = []
        for key, entry in self._ledger.items():
            if (
                not entry.pending
                or entry.quarantined
                or key not in down
                or entry.next_attempt is None
                or now < entry.next_attempt
            ):
                continue
            try:
                self.service.restore_shard(key)
            except Exception as exc:  # noqa: BLE001 — any restore crash
                observe.counter(
                    "fleet.restore_failures", shard=key
                ).inc()
                entry.pending = False
                self._note_crash(entry, key, now, error=str(exc))
            else:
                entry.pending = False
                entry.restarts += 1
                entry.last_restart = now
                entry.next_attempt = None
                restored.append(key)
                observe.counter("fleet.shard_restarts", shard=key).inc()
        self._update_gauge()
        return restored

    def _note_crash(
        self, entry: _Ledger, key: str, now: float, error: str | None
    ) -> None:
        """Record one observed crash; schedule a restore or open the
        circuit."""
        within_window = (
            entry.last_restart is not None
            and now - entry.last_restart <= self.crash_window
        )
        entry.crashes = entry.crashes + 1 if within_window or error else 1
        if error is not None:
            entry.last_error = error
        if entry.crashes > self.max_restarts:
            entry.quarantined = True
            entry.next_attempt = None
            entry.pending = False
            observe.counter("fleet.quarantines", shard=key).inc()
            return
        delay = min(
            self.backoff_cap,
            self.backoff_base * (2 ** (entry.crashes - 1)),
        )
        entry.next_attempt = now + delay
        entry.pending = True

    def _update_gauge(self) -> None:
        observe.gauge("fleet.quarantined").set(
            sum(1 for e in self._ledger.values() if e.quarantined)
        )

    # -- operator surface --------------------------------------------------

    def status(self) -> dict[str, ShardHealth]:
        """Every known shard's health, keyed by shard key."""
        report: dict[str, ShardHealth] = {}
        down = self.service.down_shards
        keys = list(self.service.shard_keys)
        keys.extend(k for k in self._ledger if k not in keys)
        for key in keys:
            entry = self._ledger.get(key, _Ledger())
            if entry.quarantined:
                state = QUARANTINED
            elif key in down:
                state = DOWN
            else:
                state = UP
            report[key] = ShardHealth(
                key=key,
                state=state,
                restarts=entry.restarts,
                crashes=entry.crashes,
                last_restart=entry.last_restart,
                next_attempt=entry.next_attempt,
                last_error=entry.last_error,
            )
        return report

    def quarantine(self, key: str) -> None:
        """Force a shard's circuit open: no automatic restores for it.

        Does not kill a live shard — it parks the *supervision* of a
        down or flapping one so an operator can investigate.
        """
        entry = self._ledger.setdefault(key, _Ledger())
        if not entry.quarantined:
            entry.quarantined = True
            entry.pending = False
            entry.next_attempt = None
            observe.counter("fleet.quarantines", shard=key).inc()
        self._update_gauge()

    def release(self, key: str) -> None:
        """Close a shard's circuit: reset its crash count and, if it is
        down, schedule an immediate restore attempt."""
        entry = self._ledger.setdefault(key, _Ledger())
        entry.quarantined = False
        entry.crashes = 0
        entry.last_error = None
        if key in self.service.down_shards:
            entry.next_attempt = self._clock()
            entry.pending = True
        self._update_gauge()

    def restart_plan(self) -> list[str]:
        """The shards a rolling restart touches, in order.

        Down and quarantined shards are skipped — a rolling restart
        proves the *healthy* fleet's durable state, it is not a recovery
        tool.  The serving layer restarts each planned shard with
        :meth:`PredictionService.restart_shard` in its own engine call,
        so the fleet keeps accepting traffic throughout.
        """
        down = self.service.down_shards
        return [
            key
            for key in self.service.shard_keys
            if key not in down
            and not self._ledger.get(key, _Ledger()).quarantined
        ]


__all__ = ["ShardHealth", "ShardSupervisor", "DOWN", "QUARANTINED", "UP"]
