"""Open-loop load generator for the served workload.

One asyncio task list on the caller's thread, two connections: a
producer that sends pre-encoded ``ingest`` frames on a fixed schedule
(event ``i`` is due at ``start + i / rate``, whatever the server is
doing), and a ``subscribe`` connection that timestamps every warning as
it arrives.  Every time is ``time.perf_counter()``, the clock the tracer
uses, so schedule, spans and acks are comparable.

The generator decodes server frames with :mod:`json` directly, not
through :func:`repro.net.protocol.decode_frame`: the traced run wraps
that function to time the *server's* decoding.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field

from repro.net.protocol import FrameBuffer, encode_frame

@dataclass
class LoadResult:
    """Per-event times of one open-loop phase (NaN where never seen)."""

    scheduled: list[float]
    sent: list[float]
    acked: list[float]
    rejected: int = 0
    #: (arrival time, warning dict) per warning frame received
    warnings: list[tuple[float, dict]] = field(default_factory=list)

    @property
    def n_acked(self) -> int:
        return sum(1 for t in self.acked if not math.isnan(t))


async def _read_frames(reader: asyncio.StreamReader, on_frame) -> None:
    buffer = FrameBuffer()
    while True:
        data = await reader.read(65536)
        if not data:
            return
        now = time.perf_counter()
        for line in buffer.feed(data):
            if line is not None and on_frame(now, json.loads(line)):
                return


async def _connect(host: str, port: int, subscribe: bool):
    reader, writer = await asyncio.open_connection(host, port)
    if subscribe:
        writer.write(encode_frame({"type": "subscribe", "seq": 0}))
        await writer.drain()
        line = await reader.readline()
        if json.loads(line).get("type") != "ack":
            raise RuntimeError(f"subscribe refused: {line!r}")
    return reader, writer


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _open_loop(
    host: str, port: int, frames: list[bytes], rate: float,
    expected_warnings, timeout: float,
) -> LoadResult:
    n = len(frames)
    nan = float("nan")
    result = LoadResult([nan] * n, [nan] * n, [nan] * n)
    answered = 0

    def on_reply(now: float, frame: dict) -> bool:
        nonlocal answered
        seq = frame.get("seq")
        if not isinstance(seq, int) or not 0 <= seq < n:
            return False
        if frame.get("type") == "ack":
            result.acked[seq] = now
        else:  # overloaded or error: the event was not accepted
            result.rejected += 1
        answered += 1
        return answered == n

    def on_warning(now: float, frame: dict) -> bool:
        if frame.get("type") == "warning":
            result.warnings.append((now, frame["warning"]))
        return False

    sub_reader, sub_writer = await _connect(host, port, subscribe=True)
    reader, writer = await _connect(host, port, subscribe=False)
    sub_task = asyncio.ensure_future(_read_frames(sub_reader, on_warning))
    ack_task = asyncio.ensure_future(_read_frames(reader, on_reply))
    try:
        start = time.perf_counter()
        for i, frame in enumerate(frames):
            due = start + i / rate
            result.scheduled[i] = due
            # Never early: an event's latency is timed from when it was due.
            while (ahead := due - time.perf_counter()) > 0:
                await writer.drain()
                await asyncio.sleep(ahead)
            # Stamped before the write: the server thread may read and
            # decode the frame before write() returns.
            result.sent[i] = time.perf_counter()
            writer.write(frame)
        await writer.drain()
        try:
            await asyncio.wait_for(asyncio.shield(ack_task), timeout)
        except asyncio.TimeoutError:
            pass  # unanswered ingests keep a NaN ack and count as failed
        # Warnings are published after the acks of the batch that raised
        # them; give the fan-out a moment to deliver the last ones.
        deadline = time.perf_counter() + timeout
        while (
            len(result.warnings) < expected_warnings()
            and time.perf_counter() < deadline
        ):
            await asyncio.sleep(0.005)
    finally:
        for task in (ack_task, sub_task):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
        await _close(writer)
        await _close(sub_writer)
    return result


def open_loop(
    host: str, port: int, frames: list[bytes], rate: float,
    expected_warnings, timeout: float = 30.0,
) -> LoadResult:
    """Send ``frames`` at ``rate`` per second; collect acks and warnings.

    ``expected_warnings()`` is polled after the last ack: the phase ends
    once that many warnings arrived on the subscriber, or ``timeout``
    seconds later.  Acks missing after ``timeout`` stay NaN; the caller
    counts them as failed.
    """
    return asyncio.run(
        _open_loop(host, port, frames, rate, expected_warnings, timeout)
    )
