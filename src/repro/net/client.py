"""Client library for the serving front-end.

:class:`PredictionClient` speaks the ndjson protocol
(:mod:`repro.net.protocol`) over blocking sockets, for producer scripts,
tests and the load benchmark.  It supports *pipelined* ingest: queue
many events with :meth:`~PredictionClient.send_event` (bounded by
``window`` outstanding acks) and collect results with
:meth:`~PredictionClient.wait_all`.

The client tracks the **unacknowledged tail**: every sent-but-unanswered
event stays in an ordered map until its ack arrives.  If the connection
dies — the server crashed, drained, or dropped it —
:attr:`~PredictionClient.unacked_events` holds exactly the events the
server never accepted, in send order.  Replaying that tail against a
recovered server is the client half of the lossless-handoff contract
(the server half is ack-after-commit).

Responses other than ``ack`` surface as :class:`Rejected` entries
(``overloaded`` and typed ``error`` frames both land there), so a
producer can distinguish "re-send later" (overloaded, draining) from
"fix your event" (bad-event).

Transient rejections are retried automatically: ``overloaded`` (load
shedding) and ``shard-down`` (a crashed shard the supervisor is about to
restore) answers trigger a re-send with jittered exponential backoff,
up to :attr:`RetryPolicy.max_attempts` sends per event.  Pass
``retry=None`` to get the raw single-shot behaviour back.  ``draining``
is *not* retried — the server is going away; replay the unacked tail
against its successor instead.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.serialization import warning_from_dict
from repro.net import protocol
from repro.net.protocol import FrameBuffer, ProtocolError
from repro.raslog.events import RASEvent

#: Default cap on pipelined, unacknowledged ingest frames.
DEFAULT_WINDOW = 128


class ServerClosed(ConnectionError):
    """The server ended the conversation (EOF or a ``bye`` frame)."""


@dataclass(frozen=True)
class Rejected:
    """One event the server answered with something other than ``ack``."""

    seq: int
    event: RASEvent
    frame: dict[str, Any]

    @property
    def overloaded(self) -> bool:
        """True when the rejection is load shedding — re-send later."""
        return self.frame.get("type") == "overloaded" or self.frame.get(
            "code"
        ) == protocol.ERR_DRAINING

    @property
    def transient(self) -> bool:
        """True when a retry against this same server could succeed:
        load shedding, or a shard crash the supervisor will repair."""
        return (
            self.frame.get("type") == "overloaded"
            or self.frame.get("code") == protocol.ERR_SHARD_DOWN
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for re-sending transiently rejected events.

    The k-th re-send of an event waits ``min(cap, base * 2**(k-1))``
    seconds, shaved by up to ``jitter`` (a fraction) at random so a
    window's worth of rejected events does not re-arrive as one
    synchronized thundering herd.  ``max_attempts`` counts total sends
    per event, the first included; events still rejected after the last
    attempt surface to the caller as usual.
    """

    max_attempts: int = 4
    base: float = 0.05
    cap: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base <= 0 or self.cap <= 0:
            raise ValueError("base and cap must be positive")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to wait before send number ``attempt + 1``."""
        raw = min(self.cap, self.base * (2 ** (attempt - 1)))
        return raw * (1 - self.jitter * rng.random())


class _ClientCore:
    """The client's socket-free protocol ledger: sequence numbers, the
    unacknowledged tail, rejections and pushed warnings."""

    def __init__(self) -> None:
        self._seq = 0
        #: seq -> event, in send order: the unacknowledged tail
        self._unacked: dict[int, RASEvent] = {}
        #: events answered with overloaded/error since the last drain
        self.rejected: list[Rejected] = []
        #: warnings pushed by the server (subscription or op acks)
        self.warnings: list[dict[str, Any]] = []
        self.said_bye = False

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    @property
    def unacked_events(self) -> list[RASEvent]:
        """Events sent but never acknowledged, in send order."""
        return list(self._unacked.values())

    @property
    def n_unacked(self) -> int:
        return len(self._unacked)

    def note_response(self, frame: dict[str, Any]) -> dict[str, Any] | None:
        """Account one server frame; returns it unless it was a push."""
        kind = frame.get("type")
        if kind == "warning":
            self.warnings.append(frame["warning"])
            return None
        if kind == "bye":
            self.said_bye = True
            return None
        seq = frame.get("seq")
        if kind == "ack":
            if seq in self._unacked:
                del self._unacked[seq]
            self.warnings.extend(frame.get("warnings", ()))
        elif kind in ("overloaded", "error") and seq in self._unacked:
            self.rejected.append(
                Rejected(seq=seq, event=self._unacked.pop(seq), frame=frame)
            )
        return frame


class PredictionClient:
    """Blocking-socket client; usable as a context manager.

    ``timeout`` bounds every socket operation; a quiet server raises
    ``socket.timeout`` (a ``ConnectionError`` subclass it is not — treat
    timeouts as "still pending", not as rejection).
    """

    def __init__(
        self, host: str, port: int, timeout: float | None = 30.0,
        window: int = DEFAULT_WINDOW,
        retry: RetryPolicy | None = RetryPolicy(),
    ) -> None:
        self.window = window
        self.retry = retry
        self.core = _ClientCore()
        self._buffer = FrameBuffer()
        self._frames: list[dict[str, Any]] = []
        #: seq -> sends so far, for events that have been re-sent
        self._attempts: dict[int, int] = {}
        self._rng = random.Random()
        self._sleep: Callable[[float], None] = time.sleep
        self._sock = socket.create_connection((host, port), timeout=timeout)

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _send(self, frame: dict[str, Any]) -> None:
        self._sock.sendall(protocol.encode_frame(frame))

    def _recv_frame(self) -> dict[str, Any]:
        """Next non-push frame from the server (pushes are stashed)."""
        while True:
            while self._frames:
                frame = self.core.note_response(self._frames.pop(0))
                if frame is not None:
                    return frame
            data = self._sock.recv(65536)
            if not data:
                raise ServerClosed("server closed the connection")
            for line in self._buffer.feed(data):
                if line is None:
                    raise ProtocolError(
                        protocol.ERR_FRAME_TOO_LARGE, "oversized server frame"
                    )
                self._frames.append(protocol.decode_frame(line))

    def _request(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Send one frame and wait for its seq-matched response."""
        seq = frame["seq"]
        self._send(frame)
        while True:
            response = self._recv_frame()
            if response.get("seq") == seq:
                if response.get("type") == "error":
                    raise ProtocolError(
                        response.get("code", protocol.ERR_INTERNAL),
                        response.get("error", "server error"),
                    )
                return response

    # -- unacknowledged-tail accounting --------------------------------------

    @property
    def unacked_events(self) -> list[RASEvent]:
        return self.core.unacked_events

    @property
    def rejected(self) -> list[Rejected]:
        return self.core.rejected

    @property
    def warnings(self) -> list[dict[str, Any]]:
        return self.core.warnings

    # -- ingest ---------------------------------------------------------------

    def send_event(self, event: RASEvent) -> int:
        """Pipeline one ingest frame; returns its seq without waiting.

        Blocks (reading responses) only when ``window`` acks are already
        outstanding, so producer memory and server queues stay bounded.
        """
        while self.core.n_unacked >= self.window:
            self._pump_one()
        seq = self.core.next_seq()
        self.core._unacked[seq] = event
        self._send({"type": "ingest", "seq": seq, "event": event.as_dict()})
        return seq

    def _pump_one(self) -> None:
        before = self.core.n_unacked
        while self.core.n_unacked == before:
            self._recv_frame()

    def wait_all(self) -> list[Rejected]:
        """Read responses until no ingest is outstanding.

        Transient rejections (:attr:`Rejected.transient`) are re-sent
        with the client's :class:`RetryPolicy` backoff until they ack or
        run out of attempts.  Returns (and clears) the rejections that
        survived; everything else was acked.  On a dead connection the
        remaining :attr:`unacked_events` plus :attr:`rejected` are the
        replay tail — rejections classified but not yet returned go back
        on the ledger, so no event silently disappears.
        """
        final: list[Rejected] = []
        pending: list[tuple[Rejected, int]] = []
        try:
            while True:
                while self.core.n_unacked:
                    self._recv_frame()
                rejected, self.core.rejected = self.core.rejected, []
                for rej in rejected:
                    attempts = self._attempts.pop(rej.seq, 1)
                    if (
                        self.retry is not None
                        and rej.transient
                        and attempts < self.retry.max_attempts
                    ):
                        pending.append((rej, attempts))
                    else:
                        final.append(rej)
                # Everything left in the ledger was acked this drain.
                self._attempts.clear()
                if not pending:
                    return final
                self._sleep(
                    max(self.retry.delay(a, self._rng) for _, a in pending)
                )
                while pending:
                    rej, attempts = pending[0]
                    seq = self.send_event(rej.event)
                    pending.pop(0)
                    self._attempts[seq] = attempts + 1
        except BaseException:
            # A resent event may already sit in the unacked ledger (the
            # send died after registering it) — don't double-count it.
            inflight = {id(e) for e in self.core._unacked.values()}
            self.core.rejected[:0] = final + [
                rej for rej, _ in pending if id(rej.event) not in inflight
            ]
            raise

    def ingest(self, event: RASEvent) -> dict[str, Any]:
        """Unpipelined convenience: send one event, wait for its answer."""
        seq = self.send_event(event)
        while seq in self.core._unacked:
            self._recv_frame()
        for i, rej in enumerate(self.core.rejected):
            if rej.seq == seq:
                return self.core.rejected.pop(i).frame
        return {"type": "ack", "seq": seq}

    def stream(
        self, events: list[RASEvent],
        on_reject: "Callable[[Rejected], None] | None" = None,
    ) -> int:
        """Pipeline a whole list; returns the number of acked events."""
        for event in events:
            self.send_event(event)
        rejected = self.wait_all()
        if on_reject is not None:
            for rej in rejected:
                on_reject(rej)
        return len(events) - len(rejected)

    # -- control plane --------------------------------------------------------

    def advance(self, now: float) -> list[dict[str, Any]]:
        """Move the fleet clock; returns the warnings it released."""
        response = self._request(
            {"type": "advance", "seq": self.core.next_seq(), "now": now}
        )
        return response.get("warnings", [])

    def flush(self) -> list[dict[str, Any]]:
        """End-of-stream: drain reorder buffers across the fleet."""
        response = self._request(
            {"type": "flush", "seq": self.core.next_seq()}
        )
        return response.get("warnings", [])

    def metrics(self) -> dict[str, Any]:
        """The server's ``repro.observe`` snapshot."""
        return self._request(
            {"type": "metrics", "seq": self.core.next_seq()}
        )["metrics"]

    def health(self) -> dict[str, Any]:
        return self._request({"type": "health", "seq": self.core.next_seq()})

    # -- fleet control plane --------------------------------------------------

    def fleet_status(self) -> dict[str, Any]:
        """Per-shard supervision state, migration epoch, in-flight moves."""
        return self._request(
            {"type": "fleet", "seq": self.core.next_seq(), "action": "status"}
        )

    def split_shard(self, shard: str, parts: int = 2) -> dict[str, Any]:
        """Live-split a hot shard into ``parts`` children."""
        return self._request(
            {
                "type": "fleet",
                "seq": self.core.next_seq(),
                "action": "split",
                "shard": shard,
                "parts": parts,
            }
        )

    def merge_shards(
        self, shards: list[str], target: str | None = None
    ) -> dict[str, Any]:
        """Live-merge cold shards into one."""
        frame: dict[str, Any] = {
            "type": "fleet",
            "seq": self.core.next_seq(),
            "action": "merge",
            "shards": list(shards),
        }
        if target is not None:
            frame["target"] = target
        return self._request(frame)

    def rolling_restart(self) -> dict[str, Any]:
        """Drain/checkpoint/rejoin every up shard, one at a time."""
        return self._request(
            {"type": "fleet", "seq": self.core.next_seq(), "action": "restart"}
        )

    def release_shard(self, shard: str) -> dict[str, Any]:
        """Close a quarantined shard's circuit breaker."""
        return self._request(
            {
                "type": "fleet",
                "seq": self.core.next_seq(),
                "action": "release",
                "shard": shard,
            }
        )

    # -- subscription ---------------------------------------------------------

    def subscribe(self) -> None:
        """Ask the server to push every new warning to this connection."""
        self._request({"type": "subscribe", "seq": self.core.next_seq()})

    def iter_warnings(self) -> Iterator[dict[str, Any]]:
        """Yield pushed warning payloads until the server goes away."""
        while True:
            yield from self._drain_stashed()
            try:
                self._recv_frame()
            except ServerClosed:
                yield from self._drain_stashed()
                return

    def _drain_stashed(self) -> Iterator[dict[str, Any]]:
        while self.core.warnings:
            yield self.core.warnings.pop(0)

    def decoded_warnings(self) -> list:
        """Accumulated warnings as :class:`FailureWarning` objects."""
        return [warning_from_dict(d) for d in self.core.warnings]


__all__ = [
    "DEFAULT_WINDOW",
    "PredictionClient",
    "Rejected",
    "RetryPolicy",
    "ServerClosed",
]
