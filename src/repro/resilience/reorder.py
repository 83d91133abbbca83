"""Bounded re-sequencing of late events.

Real cluster traces arrive late, duplicated and occasionally out of
order (network retries, per-node clock skew, batched forwarders).  A
strict monitor that raises on the first out-of-order event poisons the
whole stream; :class:`ReorderBuffer` instead holds events for up to
``slack`` seconds of disorder and releases them in timestamp order.

The watermark is ``max_seen - slack``: an event older than the watermark
arrived too late to re-sequence and is *quarantined* (returned as
dropped, never raised); everything else is buffered and released — in
sorted order, ties by arrival — once the watermark passes it.  The
watermark is monotone, so released events are guaranteed non-decreasing
in time, which is exactly the contract the downstream predictor needs.
"""

from __future__ import annotations

import heapq

from repro.raslog.events import RASEvent

#: How many quarantined (too-late) events a session keeps for inspection.
QUARANTINE_KEEP = 100


class ReorderBuffer:
    """Min-heap buffer releasing events once they clear the slack window."""

    def __init__(self, slack: float) -> None:
        if slack <= 0:
            raise ValueError(f"slack must be positive, got {slack}")
        self.slack = float(slack)
        self.max_seen = float("-inf")
        self.n_reordered = 0
        self.n_quarantined = 0
        self._seq = 0
        #: (timestamp, arrival sequence, event) min-heap
        self._heap: list[tuple[float, int, RASEvent]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def watermark(self) -> float:
        return self.max_seen - self.slack

    def push(self, event: RASEvent) -> tuple[list[RASEvent], list[RASEvent]]:
        """Accept one arrival; returns ``(ready, dropped)``.

        ``ready`` are buffered events now clear of the slack window, in
        timestamp order; ``dropped`` is the event itself when it arrived
        beyond the slack (quarantined).
        """
        if event.timestamp < self.watermark:
            self.n_quarantined += 1
            return [], [event]
        if event.timestamp < self.max_seen:
            self.n_reordered += 1
        heapq.heappush(self._heap, (event.timestamp, self._seq, event))
        self._seq += 1
        self.max_seen = max(self.max_seen, event.timestamp)
        return self._release(self.watermark), []

    def release_until(self, t: float) -> list[RASEvent]:
        """Release everything at or before ``t`` (a clock advance).

        The clock reaching ``t`` moves the watermark up to ``t`` itself:
        a deployment timer observed ``t``, so an event arriving later
        with a timestamp before ``t`` can no longer be re-sequenced and
        is quarantined — releasing it would hand the consumer an event
        older than everything already released at this call.
        """
        self.max_seen = max(self.max_seen, t + self.slack)
        return self._release(t)

    def drain(self) -> list[RASEvent]:
        """Release everything still buffered (end of stream / flush)."""
        return self._release(float("inf"))

    def _release(self, horizon: float) -> list[RASEvent]:
        ready: list[RASEvent] = []
        while self._heap and self._heap[0][0] <= horizon:
            ready.append(heapq.heappop(self._heap)[2])
        return ready

    def pending(self) -> list[RASEvent]:
        """Buffered events in release order, without removing them."""
        return [item[2] for item in sorted(self._heap)]
