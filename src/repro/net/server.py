"""Asyncio serving front-end: micro-batching, backpressure, graceful drain.

:class:`PredictionServer` puts a TCP surface (newline-delimited JSON,
:mod:`repro.net.protocol`) in front of a
:class:`~repro.service.PredictionService`, turning the in-process fleet
into something real log shippers can stream to.  The design splits work
across two threads:

* the **event loop** owns all sockets, parses frames, runs the
  micro-batcher and enforces backpressure — it never touches the
  prediction engine directly;
* a single-worker **engine executor** owns the ``PredictionService``.
  Every service call is submitted to it, so the engine is strictly
  single-threaded (FIFO submission order *is* engine order) and a
  multi-second retraining never stalls accepts, health checks or
  subscriber fan-out.

**Micro-batching.**  ``ingest`` frames are routed to their shard (the
router is pure, so routing is safe on the loop thread; the service's
per-location memo makes the engine's second routing a dict lookup) and
appended to a per-shard pending batch.  A batch commits when it reaches
``batch_size`` events or its oldest event has waited ``max_linger``
seconds, whichever is first, through
:meth:`PredictionService.ingest_batch` — one engine round-trip and, with
a fleet directory, one group-commit journal fsync for the whole batch.
Acks are sent only after the commit returns, so an acked event is a
durable event.  A per-shard asyncio lock serializes commits in arrival
order, preserving per-shard event order end to end.

**Backpressure.**  Two bounds, both answered with an explicit
``overloaded`` frame instead of unbounded buffering: a per-connection
cap on unacknowledged ingests (``max_unacked``) and a per-shard cap on
events pending or mid-commit (``max_pending``).  Slow ``subscribe``
consumers get a bounded fan-out queue; when it fills, warnings for that
subscriber are dropped and counted (``net.subscriber_dropped``) — a slow
dashboard must never stall ingest.

**Graceful drain.**  ``request_shutdown()`` (wired to SIGTERM/SIGINT by
``repro serve``) stops accepting connections, answers new ingests with
``error/draining``, commits every pending micro-batch, checkpoints every
shard (when the service has a fleet directory), closes the service and
says ``bye`` to every connection.  Events acked before the drain are on
disk; events never acked were never accepted, and producers re-send them
after ``repro recover`` — the lossless handoff the end-to-end test pins.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro import faults, observe
from repro.core.serialization import warning_to_dict
from repro.net import protocol
from repro.net.protocol import FrameBuffer, ProtocolError
from repro.raslog.events import RASEvent
from repro.service import (
    PredictionService,
    ReshardError,
    ShardDown,
    ShardSupervisor,
)

log = logging.getLogger(__name__)

#: Default micro-batch bounds: flush at this many events...
DEFAULT_BATCH_SIZE = 64
#: ...or once the oldest pending event has waited this long (seconds).
DEFAULT_MAX_LINGER = 0.02
#: Per-shard bound on events pending or mid-commit.
DEFAULT_MAX_PENDING = 1024
#: Per-connection bound on unacknowledged ingest frames.
DEFAULT_MAX_UNACKED = 1024
#: Per-subscriber bound on undelivered warning frames.
DEFAULT_SUBSCRIBER_QUEUE = 256
#: How often the shard supervisor polls, seconds.
DEFAULT_SUPERVISE_INTERVAL = 0.05


class _PendingEvent:
    """One accepted-but-uncommitted ingest: event plus its ack route."""

    __slots__ = ("event", "conn", "seq", "enqueued_at")

    def __init__(
        self, event: RASEvent, conn: "_Connection", seq: int, enqueued_at: float
    ) -> None:
        self.event = event
        self.conn = conn
        self.seq = seq
        self.enqueued_at = enqueued_at


class _Connection:
    """Loop-thread state for one client connection."""

    def __init__(
        self, server: "PredictionServer", conn_id: int,
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.id = conn_id
        self.reader = reader
        self.writer = writer
        self.frames = 0
        self.unacked = 0
        self.closed = False
        self.subscription: asyncio.Queue | None = None
        self._pump: asyncio.Task | None = None
        self._write_lock = asyncio.Lock()

    async def send(self, frame: dict[str, Any]) -> None:
        """Write one frame; a dead peer silently ends delivery."""
        if self.closed:
            return
        try:
            async with self._write_lock:
                self.writer.write(protocol.encode_frame(frame))
                await self.writer.drain()
        except (ConnectionError, RuntimeError):
            self.close()

    def subscribe(self, maxsize: int) -> None:
        if self.subscription is not None:
            return
        self.subscription = asyncio.Queue(maxsize=maxsize)
        self._pump = asyncio.get_running_loop().create_task(self._pump_warnings())
        self.server._subscribers.add(self)
        observe.gauge("net.subscribers").set(len(self.server._subscribers))

    async def _pump_warnings(self) -> None:
        assert self.subscription is not None
        while not self.closed:
            frame = await self.subscription.get()
            if frame is None:  # close sentinel
                break
            await self.send(frame)

    def close(self) -> None:
        """Tear down loop-side state; safe to call more than once."""
        if self.closed:
            return
        self.closed = True
        self.server._subscribers.discard(self)
        observe.gauge("net.subscribers").set(len(self.server._subscribers))
        if self.subscription is not None:
            # Wake the pump so it observes ``closed`` and exits.
            try:
                self.subscription.put_nowait(None)
            except asyncio.QueueFull:
                pass
        if self._pump is not None:
            self._pump.cancel()
        try:
            self.writer.close()
        except RuntimeError:
            pass


class _ShardQueue:
    """Pending micro-batch and commit bookkeeping for one shard key."""

    __slots__ = ("items", "timer", "inflight", "lock")

    def __init__(self) -> None:
        self.items: list[_PendingEvent] = []
        self.timer: asyncio.TimerHandle | None = None
        #: events pending in ``items`` plus events inside a running commit
        self.inflight = 0
        #: serializes commits for this shard, in batch arrival order
        self.lock = asyncio.Lock()


class PredictionServer:
    """Serve a :class:`PredictionService` over TCP (see module docs).

    The server takes ownership of ``service``: :meth:`shutdown` drains,
    checkpoints (when durable) and closes it.
    """

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_linger: float = DEFAULT_MAX_LINGER,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_unacked: int = DEFAULT_MAX_UNACKED,
        subscriber_queue: int = DEFAULT_SUBSCRIBER_QUEUE,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        checkpoint_every: int | None = None,
        supervisor: ShardSupervisor | None = None,
        supervise: bool = True,
        supervise_interval: float = DEFAULT_SUPERVISE_INTERVAL,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_linger < 0:
            raise ValueError(f"max_linger must be >= 0, got {max_linger}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and service.fleet_dir is None:
            raise ValueError(
                "checkpoint_every needs a service with a fleet directory"
            )
        self.service = service
        self.host = host
        self.port = port
        self.batch_size = batch_size
        self.max_linger = max_linger
        self.max_pending = max_pending
        self.max_unacked = max_unacked
        self.subscriber_queue = subscriber_queue
        self.max_frame_bytes = max_frame_bytes
        self.checkpoint_every = checkpoint_every
        # The control plane: restores crashed shards automatically and
        # quarantines flappers.  Needs a fleet directory (restore_shard
        # recovers from checkpoint + journal); memory-only services run
        # unsupervised.
        if supervisor is None and supervise and service.fleet_dir is not None:
            supervisor = ShardSupervisor(service)
        self.supervisor = supervisor
        self.supervise_interval = supervise_interval
        self._supervise_task: asyncio.Task | None = None

        #: counters reported by :meth:`serve` after the drain
        self.stats: dict[str, int] = {
            "accepted": 0, "shed": 0, "errors": 0, "connections": 0,
        }
        self.draining = False
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._engine = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._engine_open = True
        self._shards: dict[str, _ShardQueue] = {}
        self._conns: set[_Connection] = set()
        self._subscribers: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()
        self._next_conn_id = 0
        self._since_checkpoint = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves the actual port for port 0."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.supervisor is not None:
            self._supervise_task = self._loop.create_task(
                self._supervise_loop()
            )

    async def serve(
        self,
        ready: Callable[[], None] | None = None,
        install_signal_handlers: bool = False,
    ) -> dict[str, int]:
        """Run until :meth:`request_shutdown`, then drain; returns stats."""
        await self.start()
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.request_shutdown)
        if ready is not None:
            ready()
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        await self.shutdown()
        return dict(self.stats)

    def request_shutdown(self) -> None:
        """Begin a graceful drain; safe from signal handlers and threads.

        Idempotent even after the loop has exited, so callers may race a
        shutdown that is already complete.
        """
        loop, event = self._loop, self._shutdown_event
        if loop is None or event is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:  # loop closed between the check and the call
            pass

    async def shutdown(self) -> None:
        """Stop accepting, drain batches, checkpoint, close everything."""
        if self.draining:
            return
        self.draining = True
        observe.counter("net.drains").inc()
        if self._supervise_task is not None:
            self._supervise_task.cancel()
            try:
                await self._supervise_task
            except asyncio.CancelledError:
                pass
            self._supervise_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Commit every pending micro-batch (their producers get acks).
        await self._quiesce()
        if self.service.fleet_dir is not None:
            await self._run_engine(self.service.checkpoint)
        await self._run_engine(self.service.close)
        self._engine_open = False
        self._engine.shutdown(wait=True)
        for conn in list(self._conns):
            await conn.send({"type": "bye", "reason": "draining"})
            conn.close()
        self._conns.clear()

    # -- engine ------------------------------------------------------------

    async def _run_engine(self, fn: Callable, *args: Any) -> Any:
        """Run a service call on the single-threaded engine executor."""
        assert self._loop is not None
        return await self._loop.run_in_executor(self._engine, lambda: fn(*args))

    async def _supervise_loop(self) -> None:
        """Poll the shard supervisor on the engine thread until drain.

        Every poll is one engine round-trip, so supervision interleaves
        with micro-batch commits in FIFO order and never races the
        service from a second thread.
        """
        assert self.supervisor is not None
        while not self.draining:
            await asyncio.sleep(self.supervise_interval)
            if self.draining:
                return
            restored = await self._run_engine(self.supervisor.poll)
            for key in restored:
                observe.counter("net.shard_restores", shard=key).inc()

    async def _quiesce(self) -> None:
        """Commit all pending batches and wait for in-flight commits."""
        while True:
            for key in list(self._shards):
                self._flush_shard(key)
            tasks = [t for t in self._tasks if not t.done()]
            if not tasks:
                break
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(self, self._next_conn_id, reader, writer)
        self._next_conn_id += 1
        self._conns.add(conn)
        self.stats["connections"] += 1
        observe.counter("net.connections").inc()
        try:
            await self._read_loop(conn)
        except ConnectionError:
            pass
        except faults.FaultInjected:
            # Chaos: drop this connection abruptly (RST, no bye frame).
            observe.counter("net.dropped_connections").inc()
            transport = writer.transport
            if transport is not None:
                transport.abort()
        finally:
            self._conns.discard(conn)
            conn.close()

    async def _read_loop(self, conn: _Connection) -> None:
        buffer = FrameBuffer(self.max_frame_bytes)
        while not conn.closed:
            data = await conn.reader.read(65536)
            if not data:
                # EOF: any half-received frame still in the buffer was
                # never complete, so it is dropped unacknowledged — the
                # producer's replay contract covers it.
                break
            for line in buffer.feed(data):
                conn.frames += 1
                observe.counter("net.frames").inc()
                plan = faults.active()
                if plan is not None:
                    plan.on_net_frame(conn.id, conn.frames)
                if line is None:
                    await self._send_error(
                        conn, None, protocol.ERR_FRAME_TOO_LARGE,
                        f"frame exceeds {self.max_frame_bytes} bytes",
                    )
                    continue
                await self._dispatch(conn, line)

    async def _dispatch(self, conn: _Connection, line: bytes) -> None:
        try:
            frame = protocol.decode_frame(line)
            kind, seq = protocol.parse_request(frame)
        except ProtocolError as exc:
            await self._send_error(conn, None, exc.code, str(exc))
            return
        try:
            if kind == "ingest":
                await self._handle_ingest(conn, seq, frame)
            elif kind == "advance":
                await self._handle_advance(conn, seq, frame)
            elif kind == "flush":
                await self._handle_flush(conn, seq)
            elif kind == "subscribe":
                conn.subscribe(self.subscriber_queue)
                await conn.send({"type": "ack", "seq": seq})
            elif kind == "metrics":
                await self._handle_metrics(conn, seq)
            elif kind == "health":
                await self._handle_health(conn, seq)
            elif kind == "fleet":
                await self._handle_fleet(conn, seq, frame)
        except ProtocolError as exc:
            await self._send_error(conn, seq, exc.code, str(exc))
        except (ConnectionError, faults.FaultInjected):
            raise  # the connection is gone, or chaos is dropping it
        except Exception as exc:  # keep serving the connection
            log.exception("%s frame (seq %s) failed", kind, seq)
            await self._send_error(conn, seq, protocol.ERR_INTERNAL, str(exc))

    async def _send_error(
        self, conn: _Connection, seq: int | None, code: str, message: str
    ) -> None:
        self.stats["errors"] += 1
        observe.counter("net.errors", code=code).inc()
        await conn.send(
            {"type": "error", "seq": seq, "code": code, "error": message}
        )

    # -- ingest / micro-batching -------------------------------------------

    async def _handle_ingest(
        self, conn: _Connection, seq: int, frame: dict[str, Any]
    ) -> None:
        if self.draining:
            raise ProtocolError(
                protocol.ERR_DRAINING, "server is draining; re-send after recovery"
            )
        event = protocol.event_from_request(frame)
        key = self.service.shard_key(event)
        shard = self._shards.get(key)
        if shard is None:
            shard = self._shards[key] = _ShardQueue()
        if conn.unacked >= self.max_unacked:
            await self._shed(conn, seq, "connection", conn.unacked)
            return
        if shard.inflight >= self.max_pending:
            await self._shed(conn, seq, "shard", shard.inflight, key)
            return
        assert self._loop is not None
        conn.unacked += 1
        shard.inflight += 1
        observe.gauge("net.queue_depth", shard=key).set(shard.inflight)
        shard.items.append(
            _PendingEvent(event, conn, seq, self._loop.time())
        )
        if len(shard.items) >= self.batch_size:
            self._flush_shard(key)
        elif shard.timer is None:
            shard.timer = self._loop.call_later(
                self.max_linger, self._flush_shard, key
            )

    async def _shed(
        self, conn: _Connection, seq: int, scope: str, depth: int,
        key: str | None = None,
    ) -> None:
        self.stats["shed"] += 1
        observe.counter("net.shed", scope=scope).inc()
        frame: dict[str, Any] = {
            "type": "overloaded", "seq": seq, "scope": scope,
            "detail": f"{depth} events already pending",
        }
        if key is not None:
            frame["shard"] = key
        await conn.send(frame)

    def _flush_shard(self, key: str) -> None:
        """Move the shard's pending batch into a commit task."""
        shard = self._shards.get(key)
        if shard is None or not shard.items:
            return
        if shard.timer is not None:
            shard.timer.cancel()
            shard.timer = None
        items, shard.items = shard.items, []
        assert self._loop is not None
        task = self._loop.create_task(self._commit(key, shard, items))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _commit(
        self, key: str, shard: _ShardQueue, items: list[_PendingEvent]
    ) -> None:
        # The per-shard lock is granted in acquisition order, and commit
        # tasks are created in batch arrival order, so shard event order
        # survives concurrent commits.
        async with shard.lock:
            try:
                warnings = await self._run_engine(
                    self.service.ingest_batch, [it.event for it in items]
                )
            except (ValueError, ShardDown, faults.FaultInjected, RuntimeError):
                # The batch was rejected atomically; retry per event so
                # one bad producer frame cannot damn its batchmates.
                warnings = []
                await self._commit_singly(items)
            else:
                await self._acknowledge(items)
            finally:
                shard.inflight -= len(items)
                observe.gauge("net.queue_depth", shard=key).set(shard.inflight)
        observe.counter("net.batches").inc()
        observe.histogram("net.batch_size").observe(float(len(items)))
        if warnings:
            self._publish(warnings)
        await self._maybe_checkpoint(len(items))

    async def _commit_singly(self, items: list[_PendingEvent]) -> None:
        for item in items:
            try:
                warnings = await self._run_engine(
                    self.service.ingest, item.event
                )
            except ValueError as exc:
                await self._send_error(
                    item.conn, item.seq, protocol.ERR_BAD_EVENT, str(exc)
                )
                item.conn.unacked -= 1
            except (ShardDown, faults.FaultInjected) as exc:
                await self._send_error(
                    item.conn, item.seq, protocol.ERR_SHARD_DOWN, str(exc)
                )
                item.conn.unacked -= 1
            except Exception as exc:  # keep serving on engine bugs
                await self._send_error(
                    item.conn, item.seq, protocol.ERR_INTERNAL, str(exc)
                )
                item.conn.unacked -= 1
            else:
                await self._acknowledge([item])
                if warnings:
                    self._publish(warnings)

    async def _acknowledge(self, items: list[_PendingEvent]) -> None:
        assert self._loop is not None
        now = self._loop.time()
        latency = observe.histogram("net.ingest_latency")
        events = observe.counter("net.events")
        for item in items:
            self.stats["accepted"] += 1
            events.inc()
            latency.observe(now - item.enqueued_at)
            item.conn.unacked -= 1
            await item.conn.send({"type": "ack", "seq": item.seq})

    async def _maybe_checkpoint(self, accepted: int) -> None:
        every = self.checkpoint_every
        if every is None:
            return
        self._since_checkpoint += accepted
        if self._since_checkpoint >= every:
            self._since_checkpoint = 0
            await self._run_engine(self.service.checkpoint)

    # -- subscriber fan-out --------------------------------------------------

    def _publish(self, warnings: list) -> None:
        if not self._subscribers:
            return
        frames = [
            {"type": "warning", "warning": warning_to_dict(w)}
            for w in warnings
        ]
        observe.counter("net.warnings_published").inc(len(frames))
        for conn in list(self._subscribers):
            for frame in frames:
                assert conn.subscription is not None
                try:
                    conn.subscription.put_nowait(frame)
                except asyncio.QueueFull:
                    # A slow dashboard loses warnings, never stalls ingest.
                    observe.counter("net.subscriber_dropped").inc()

    # -- control-plane frames ------------------------------------------------

    async def _handle_advance(
        self, conn: _Connection, seq: int, frame: dict[str, Any]
    ) -> None:
        if self.draining:
            raise ProtocolError(protocol.ERR_DRAINING, "server is draining")
        now = frame.get("now")
        if not isinstance(now, (int, float)) or isinstance(now, bool):
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST, "advance frame needs a numeric 'now'"
            )
        # Barrier: everything enqueued before this frame commits first.
        await self._quiesce()
        try:
            warnings = await self._run_engine(self.service.advance, float(now))
        except ValueError as exc:
            raise ProtocolError(protocol.ERR_BAD_REQUEST, str(exc)) from exc
        self._publish(warnings)
        await conn.send(
            {
                "type": "ack", "seq": seq,
                "warnings": [warning_to_dict(w) for w in warnings],
            }
        )

    async def _handle_flush(self, conn: _Connection, seq: int) -> None:
        if self.draining:
            raise ProtocolError(protocol.ERR_DRAINING, "server is draining")
        await self._quiesce()
        warnings = await self._run_engine(self.service.flush)
        self._publish(warnings)
        await conn.send(
            {
                "type": "ack", "seq": seq,
                "warnings": [warning_to_dict(w) for w in warnings],
            }
        )

    async def _handle_metrics(self, conn: _Connection, seq: int) -> None:
        snapshot = await self._run_engine(self.service.merged_metrics)
        await conn.send({"type": "metrics", "seq": seq, "metrics": snapshot})

    def _shard_status(self) -> dict[str, dict[str, Any]]:
        """Per-shard up/down/quarantined view, supervisor-enriched."""
        if self.supervisor is not None:
            return {
                key: {
                    "state": health.state,
                    "restarts": health.restarts,
                    "last_restart": health.last_restart,
                    "last_error": health.last_error,
                }
                for key, health in self.supervisor.status().items()
            }
        down = self.service.down_shards
        return {
            key: {
                "state": "down" if key in down else "up",
                "restarts": 0,
                "last_restart": None,
                "last_error": None,
            }
            for key in self.service.shard_keys
        }

    async def _handle_health(self, conn: _Connection, seq: int) -> None:
        pending = sum(s.inflight for s in self._shards.values())
        payload = {
            "type": "health",
            "seq": seq,
            "status": "draining" if self.draining else "ok",
            "shards": len(self.service.shard_keys),
            "down_shards": sorted(self.service.down_shards),
            "shard_status": self._shard_status(),
            "accepted": self.stats["accepted"],
            "pending": pending,
            "subscribers": len(self._subscribers),
            "connections": len(self._conns),
            "retrain_trigger": self.service.config.retrain_trigger,
        }
        if self.service.adaptive:
            payload["drift"] = self.service.drift_status()
        await conn.send(payload)

    async def _handle_fleet(
        self, conn: _Connection, seq: int, frame: dict[str, Any]
    ) -> None:
        """Control plane: fleet status, live resharding, rolling restart.

        Mutating actions run on the engine executor, so they serialize
        with micro-batch commits; a rolling restart issues one engine
        call *per shard*, letting queued batches for other shards commit
        between restarts — the fleet keeps acking throughout.
        """
        action = frame.get("action")
        if action not in protocol.FLEET_ACTIONS:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                f"unknown fleet action {action!r}; expected one of "
                f"{sorted(protocol.FLEET_ACTIONS)}",
            )
        if action == "status":
            payload = {
                "type": "fleet",
                "seq": seq,
                "epoch": self.service.epoch,
                "migration": self.service.migration,
                    "shards": self._shard_status(),
                "retrain_trigger": self.service.config.retrain_trigger,
            }
            if self.service.adaptive:
                payload["drift"] = self.service.drift_status()
            await conn.send(payload)
            return
        if self.draining:
            raise ProtocolError(protocol.ERR_DRAINING, "server is draining")
        try:
            if action == "split":
                shard = frame.get("shard")
                parts = frame.get("parts", 2)
                if not isinstance(shard, str) or not isinstance(parts, int):
                    raise ProtocolError(
                        protocol.ERR_BAD_REQUEST,
                        "fleet split needs a 'shard' string and integer "
                        "'parts'",
                    )
                targets = await self._run_engine(
                    self.service.split_shard, shard, parts
                )
                result: dict[str, Any] = {"targets": targets}
            elif action == "merge":
                shards = frame.get("shards")
                if not isinstance(shards, list) or not all(
                    isinstance(k, str) for k in shards
                ):
                    raise ProtocolError(
                        protocol.ERR_BAD_REQUEST,
                        "fleet merge needs a 'shards' list of shard keys",
                    )
                target = await self._run_engine(
                    self.service.merge_shards,
                    shards,
                    frame.get("target"),
                )
                result = {"target": target}
            elif action == "restart":
                restarted = await self._rolling_restart()
                result = {"restarted": restarted}
            else:  # release
                shard = frame.get("shard")
                if not isinstance(shard, str):
                    raise ProtocolError(
                        protocol.ERR_BAD_REQUEST,
                        "fleet release needs a 'shard' string",
                    )
                if self.supervisor is None:
                    raise ProtocolError(
                        protocol.ERR_RESHARD, "this fleet is unsupervised"
                    )
                await self._run_engine(self.supervisor.release, shard)
                result = {"released": shard}
        except (ReshardError, ValueError, KeyError) as exc:
            raise ProtocolError(protocol.ERR_RESHARD, str(exc)) from exc
        result.update(
            {"type": "fleet", "seq": seq, "epoch": self.service.epoch}
        )
        await conn.send(result)

    async def _rolling_restart(self) -> list[str]:
        """Restart each up shard in its own engine call (traffic
        interleaves between shards)."""
        if self.supervisor is not None:
            plan = await self._run_engine(self.supervisor.restart_plan)
        else:
            down = self.service.down_shards
            plan = [
                k for k in self.service.shard_keys if k not in down
            ]
        restarted: list[str] = []
        for key in plan:
            await self._run_engine(self.service.restart_shard, key)
            restarted.append(key)
        return restarted


@contextmanager
def serve_in_thread(
    service: PredictionService, host: str = "127.0.0.1", port: int = 0,
    **kwargs: Any,
) -> Iterator[PredictionServer]:
    """Run a :class:`PredictionServer` on a background thread.

    The in-process harness used by tests and the load benchmark: yields
    the server once it is accepting (``server.port`` is resolved), and
    performs a full graceful drain — pending batches committed, shards
    checkpointed when durable, service closed — on exit.
    """
    server = PredictionServer(service, host=host, port=port, **kwargs)
    ready = threading.Event()
    failures: list[BaseException] = []

    def _run() -> None:
        try:
            asyncio.run(server.serve(ready=ready.set))
        except BaseException as exc:  # surface in the foreground thread
            failures.append(exc)
            ready.set()

    thread = threading.Thread(
        target=_run, name="repro-serve", daemon=True
    )
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("server failed to start within 30s")
    if failures:
        raise failures[0]
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=60)
        if failures:
            raise failures[0]


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_MAX_LINGER",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_MAX_UNACKED",
    "DEFAULT_SUBSCRIBER_QUEUE",
    "PredictionServer",
    "serve_in_thread",
]
