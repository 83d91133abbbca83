"""Shard handles: one shard's session as the service drives it.

:class:`~repro.service.service.PredictionService` routes events; a
:class:`ShardHandle` is what an event is routed *to*: one
:class:`~repro.core.online.OnlinePredictionSession` (reordering,
journal) in the service's own process, plus the labeled
``service.*{shard="..."}`` series the handle records around it.
Routing, batch commit, checkpointing, supervision and resharding stream
through the handle and read through ``handle.session``.
"""

from __future__ import annotations

import time

from repro import observe
from repro.alerts import FailureWarning
from repro.core.online import OnlinePredictionSession
from repro.raslog.events import RASEvent
from repro.resilience.journal import parse_fsync_policy

CHECKPOINT_NAME = "checkpoint.json"
JOURNAL_DIRNAME = "journal"


class ShardHandle:
    """One shard: a session and its metering, in this process.

    A metered handle records, labeled ``shard=key``:

    * ``service.ingest`` — latency histogram of each batch ingest;
    * ``service.events`` — ingested-event counter;
    * ``service.warnings`` — raised-warning counter;
    * ``service.degraded`` — 1.0 while a retraining is owed.

    ``metered=False`` builds an unmetered shard (resharding's rebuild
    replay); :meth:`finalize_build` arms the meters.
    """

    def __init__(
        self,
        key: str,
        index: int,
        directory,
        session: OnlinePredictionSession,
        *,
        metered: bool = True,
    ) -> None:
        self.key = key
        self.index = index
        self.directory = directory
        self.session = session
        self.metered = metered
        #: events routed to this shard in this process (fault-hook ordinal)
        self.routed = 0
        self._pending_batch: list[FailureWarning] = []
        #: registry the cached instruments belong to (see _instrument)
        self._registry: observe.MetricsRegistry | None = None
        self._instruments: dict[str, object] = {}

    # -- metering ----------------------------------------------------------

    def _instrument(self, kind: str, suffix: str):
        """Instrument ``service.suffix`` of ``kind``, looked up once per
        registry (and created only once something is recorded)."""
        registry = observe.get_registry()
        if self._registry is not registry:
            self._registry, self._instruments = registry, {}
        instrument = self._instruments.get(suffix)
        if instrument is None:
            instrument = self._instruments[suffix] = getattr(registry, kind)(
                f"service.{suffix}", shard=self.key
            )
        return instrument

    def _record(self, new: list[FailureWarning], n_events: int) -> None:
        if n_events:
            self._instrument("counter", "events").inc(n_events)
        if new:
            self._instrument("counter", "warnings").inc(len(new))
        self._instrument("gauge", "degraded").set(
            1.0 if self.session.degraded else 0.0
        )

    # -- streaming ---------------------------------------------------------

    def ingest_batch(self, events: list[RASEvent]) -> list[FailureWarning]:
        if not self.metered:
            return self.session.ingest_batch(events)
        start = time.perf_counter()
        try:
            new = self.session.ingest_batch(events)
        finally:
            self._instrument("histogram", "ingest").observe(
                time.perf_counter() - start
            )
        self._record(new, len(events))
        return new

    def ingest_batch_begin(self, events: list[RASEvent]) -> None:
        """Deliver one shard's share of a fleet batch; the warnings wait
        for :meth:`ingest_batch_finish`.  The service begins every
        shard's share before it finishes the first, so a profile sees
        delivery and collection as two layers."""
        self._pending_batch = self.ingest_batch(events)

    def ingest_batch_finish(self) -> list[FailureWarning]:
        """Collect the warnings from the share begun last."""
        out, self._pending_batch = self._pending_batch, []
        return out

    def advance(self, now: float) -> list[FailureWarning]:
        new = self.session.advance(now)
        if self.metered:
            self._record(new, 0)
        return new

    def flush(self) -> list[FailureWarning]:
        new = self.session.flush()
        if self.metered:
            self._record(new, 0)
        return new

    # -- durability and lifecycle ------------------------------------------

    def checkpoint(self) -> dict:
        """Write the shard's checkpoint file; returns its payload."""
        assert self.directory is not None
        return self.session.checkpoint(self.directory / CHECKPOINT_NAME)

    def seal(self) -> None:
        """Freeze the shard: close its journal, so its on-disk state is
        the frozen handoff/restore substrate.  Idempotent."""
        journal = self.session.journal
        if journal is not None and not journal.closed:
            journal.close()

    def finalize_build(self, journal_fsync: str | int) -> None:
        """Resharding build epilogue: fsync the replayed journal,
        restore the fleet fsync policy, checkpoint, enable metering."""
        journal = self.session.journal
        assert journal is not None
        journal.sync()
        journal.fsync_policy = parse_fsync_policy(journal_fsync)
        self.checkpoint()
        self.metered = True


__all__ = ["CHECKPOINT_NAME", "JOURNAL_DIRNAME", "ShardHandle"]
