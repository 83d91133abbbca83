"""Metrics as a composable session layer.

:class:`MeteredSession` wraps any
:class:`~repro.core.session.StreamSession` layer and records labeled
instruments around it — per-call latency histograms, event/warning
counters, and a degraded-state gauge — without the wrapped layer knowing
it is being observed.  The fleet service wraps each shard's stack with
``MeteredSession(stack, shard=key)``, which is what makes per-shard
throughput visible in ``repro metrics`` output and benchmark JSON::

    service.ingest{shard="R01-M0-N04"}   # latency histogram
    service.events{shard="R01-M0-N04"}   # ingested-event counter
    service.degraded{shard="R01-M0-N04"} # 1.0 while retraining is owed
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro import observe

if TYPE_CHECKING:
    from repro.alerts import FailureWarning
    from repro.core.session import StreamSession
    from repro.raslog.events import RASEvent


class MeteredSession:
    """Record labeled throughput/latency/degraded metrics around a layer.

    ``prefix`` namespaces the instruments (default ``"session"``);
    ``labels`` become metric labels on every instrument, e.g.
    ``MeteredSession(stack, prefix="service", shard="R00")`` records
    ``service.events{shard="R00"}``.  ``degraded_of`` optionally names an
    object whose ``degraded`` attribute is mirrored into a gauge after
    every call (defaults to the wrapped layer itself).
    """

    def __init__(
        self,
        inner: "StreamSession",
        prefix: str = "session",
        degraded_of: object | None = None,
        **labels: object,
    ) -> None:
        self.inner = inner
        self.prefix = prefix
        self.labels = labels
        self._degraded_of = degraded_of if degraded_of is not None else inner
        self._registry: observe.MetricsRegistry | None = None
        self._cache: dict[str, object] = {}

    def _series(self, kind: str, suffix: str):
        """Instrument ``prefix.suffix`` of ``kind``, looked up once per
        registry (and created only once something is recorded)."""
        registry = observe.get_registry()
        if self._registry is not registry:
            self._registry, self._cache = registry, {}
        instrument = self._cache.get(suffix)
        if instrument is None:
            instrument = self._cache[suffix] = getattr(registry, kind)(
                f"{self.prefix}.{suffix}", **self.labels
            )
        return instrument

    def _record(self, new: "list[FailureWarning]", n_events: int) -> None:
        if n_events:
            self._series("counter", "events").inc(n_events)
        if new:
            self._series("counter", "warnings").inc(len(new))
        degraded = getattr(self._degraded_of, "degraded", None)
        if degraded is not None:
            self._series("gauge", "degraded").set(1.0 if degraded else 0.0)

    def _timed(self, ingest, arg) -> "list[FailureWarning]":
        start = time.perf_counter()
        try:
            return ingest(arg)
        finally:
            self._series("histogram", "ingest").observe(
                time.perf_counter() - start
            )

    def ingest(self, event: "RASEvent") -> "list[FailureWarning]":
        new = self._timed(self.inner.ingest, event)
        self._record(new, 1)
        return new

    def ingest_batch(self, events: "list[RASEvent]") -> "list[FailureWarning]":
        new = self._timed(self.inner.ingest_batch, events)
        self._record(new, len(events))
        return new

    def advance(self, now: float) -> "list[FailureWarning]":
        new = self.inner.advance(now)
        self._record(new, 0)
        return new

    def flush(self) -> "list[FailureWarning]":
        new = self.inner.flush()
        self._record(new, 0)
        return new


__all__ = ["MeteredSession"]
