"""Shard handles: one shard's session stack as the service drives it.

:class:`~repro.service.service.PredictionService` routes events; a
:class:`ShardHandle` is what an event is routed *to*: one
:class:`~repro.core.online.OnlinePredictionSession` stack (reordering,
journal) in the service's own process, plus the
:class:`~repro.observe.wrappers.MeteredSession` that records its
``service.*{shard="..."}`` series.  Routing, batch commit,
checkpointing, supervision and resharding stream through the handle and
read through ``handle.session``.
"""

from __future__ import annotations

from repro.alerts import FailureWarning
from repro.core.online import OnlinePredictionSession
from repro.observe.wrappers import MeteredSession
from repro.raslog.events import RASEvent
from repro.resilience.journal import parse_fsync_policy

CHECKPOINT_NAME = "checkpoint.json"
JOURNAL_DIRNAME = "journal"


class ShardHandle:
    """One shard: a session stack and its metering, in this process.

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
        #: events routed to this shard in this process (fault-hook ordinal)
        self.routed = 0
        self._stream = self._meter() if metered else session
        self._pending_batch: list[FailureWarning] = []

    def _meter(self) -> MeteredSession:
        return MeteredSession(
            self.session,
            prefix="service",
            degraded_of=self.session,
            shard=self.key,
        )

    # -- streaming ---------------------------------------------------------

    def ingest(self, event: RASEvent) -> list[FailureWarning]:
        return self._stream.ingest(event)

    def ingest_batch(self, events: list[RASEvent]) -> list[FailureWarning]:
        return self._stream.ingest_batch(events)

    def ingest_batch_begin(self, events: list[RASEvent]) -> None:
        """Deliver one shard's share of a fleet batch; the warnings wait
        for :meth:`ingest_batch_finish`.  The service begins every
        shard's share before it finishes the first, so a profile sees
        delivery and collection as two layers."""
        self._pending_batch = self._stream.ingest_batch(events)

    def ingest_batch_finish(self) -> list[FailureWarning]:
        """Collect the warnings from the share begun last."""
        out, self._pending_batch = self._pending_batch, []
        return out

    def advance(self, now: float) -> list[FailureWarning]:
        return self._stream.advance(now)

    def flush(self) -> list[FailureWarning]:
        return self._stream.flush()

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
        self._stream = self._meter()


__all__ = ["CHECKPOINT_NAME", "JOURNAL_DIRNAME", "ShardHandle"]
