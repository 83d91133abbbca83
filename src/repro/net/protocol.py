"""Wire protocol of the serving front-end: newline-delimited JSON frames.

One frame is one JSON object on one line, terminated by ``\\n`` — the
format cluster log shippers (syslog relays, LogMaster-style collector
agents) already speak, so any language with a socket and a JSON encoder
can produce events.  The full frame reference with examples lives in
``docs/protocol.md``; this module is the single source of truth for
frame *shapes* shared by the server and both clients.

Request frames (client -> server), all carrying a client-chosen ``seq``
echoed back on the response::

    {"type": "ingest",    "seq": 7, "event": {...RASEvent.as_dict()...}}
    {"type": "advance",   "seq": 8, "now": 12345.0}
    {"type": "flush",     "seq": 9}
    {"type": "subscribe", "seq": 0}
    {"type": "metrics",   "seq": 1}
    {"type": "health",    "seq": 2}
    {"type": "fleet",     "seq": 3, "action": "status"}
    {"type": "fleet",     "seq": 4, "action": "split", "shard": "...", "parts": 2}
    {"type": "fleet",     "seq": 5, "action": "merge", "shards": [...]}
    {"type": "fleet",     "seq": 6, "action": "restart"}
    {"type": "fleet",     "seq": 7, "action": "release", "shard": "..."}

Response frames (server -> client)::

    {"type": "ack", "seq": 7}                      # ingest: durably accepted
    {"type": "ack", "seq": 8, "warnings": [...]}   # advance/flush/subscribe
    {"type": "overloaded", "seq": 7, "scope": "shard", "detail": "..."}
    {"type": "error", "seq": 7, "code": "bad-event", "error": "..."}
    {"type": "warning", "warning": {...}}          # pushed to subscribers
    {"type": "metrics", "seq": 1, "metrics": {...observe snapshot...}}
    {"type": "health", "seq": 2, "status": "ok", ...}
    {"type": "bye", "reason": "draining"}          # server is shutting down

An ``ack`` for an ``ingest`` frame means the event was *accepted*: it
reached its shard's session (and, with a fleet directory, its
write-ahead journal) as part of a committed micro-batch.  Events whose
frames were answered with ``overloaded``/``error`` — or never answered
at all, because the connection died or the server drained first — were
never accepted and must be re-sent by the producer.  That unacknowledged
tail is exactly what a producer replays after a crash.
"""

from __future__ import annotations

import json
from typing import Any

#: Largest accepted frame, bytes (sans newline).  An event record is a
#: few hundred bytes; anything near this bound is garbage or abuse.
MAX_FRAME_BYTES = 256 * 1024

#: Request frame types the server understands.
REQUEST_TYPES = frozenset(
    {"ingest", "advance", "flush", "subscribe", "metrics", "health", "fleet"}
)

#: Control-plane actions a ``fleet`` frame may carry.
FLEET_ACTIONS = frozenset(
    {"status", "split", "merge", "restart", "release"}
)

# Typed error codes carried by ``error`` responses.
ERR_BAD_FRAME = "bad-frame"  # not JSON / not an object / unknown type
ERR_BAD_REQUEST = "bad-request"  # well-formed frame, invalid fields
ERR_BAD_EVENT = "bad-event"  # event rejected by validation
ERR_FRAME_TOO_LARGE = "frame-too-large"
ERR_SHARD_DOWN = "shard-down"
ERR_DRAINING = "draining"  # server is shutting down; replay elsewhere
ERR_RESHARD = "reshard"  # a fleet split/merge/restart that cannot run
ERR_INTERNAL = "internal"


class ProtocolError(Exception):
    """A frame the server (or a client) refuses, with its typed code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def encode_frame(obj: dict[str, Any]) -> bytes:
    """Serialize one frame: compact JSON plus the line terminator."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one line into a frame object.

    Raises :class:`ProtocolError` (``bad-frame``) on malformed JSON or a
    non-object payload — garbage input must produce a typed error
    response, never tear down the connection.
    """
    try:
        obj = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(ERR_BAD_FRAME, f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            ERR_BAD_FRAME, f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def parse_request(obj: dict[str, Any]) -> tuple[str, int]:
    """Validate a request frame's envelope; returns ``(type, seq)``.

    Field payloads (``event``, ``now``) are validated by their handlers;
    this checks only what every request must carry.
    """
    kind = obj.get("type")
    if kind not in REQUEST_TYPES:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"unknown frame type {kind!r}; expected one of "
            f"{sorted(REQUEST_TYPES)}",
        )
    seq = obj.get("seq", 0)
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"seq must be a non-negative integer, got {seq!r}"
        )
    return kind, seq


#: RASEvent fields a producer sends as text.
_EVENT_STRING_FIELDS = ("event_type", "location", "entry_data")


def event_from_request(obj: dict[str, Any]):
    """Decode the ``event`` payload of an ``ingest`` frame to a RASEvent.

    Raises :class:`ProtocolError` (``bad-event``) on a missing, untyped
    or unconstructible payload, so a producer bug is answered with a
    typed error while the connection keeps serving.  The string fields
    must be strings that encode as UTF-8: JSON can carry a lone
    surrogate (``"\\ud800"``), which would otherwise fail later, in the
    router's or the journal's encoding, outside the request's error path.
    """
    from repro.raslog.events import RASEvent

    payload = obj.get("event")
    if not isinstance(payload, dict):
        raise ProtocolError(
            ERR_BAD_EVENT, "ingest frame carries no event object"
        )
    for name in _EVENT_STRING_FIELDS:
        if name not in payload:
            continue  # a missing field is RASEvent.from_dict's KeyError
        value = payload[name]
        if not isinstance(value, str):
            raise ProtocolError(
                ERR_BAD_EVENT, f"bad event: {name} must be a string"
            )
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ProtocolError(
                ERR_BAD_EVENT, f"bad event: {name} is not valid UTF-8"
            ) from exc
    try:
        return RASEvent.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(ERR_BAD_EVENT, f"bad event: {exc}") from exc


class FrameBuffer:
    """Incremental newline splitter with an oversized-frame firebreak.

    Feed raw socket chunks in; complete frames come out.  A frame longer
    than ``max_frame_bytes`` is discarded *without buffering it* (the
    partial bytes are dropped as they stream in) and surfaces as a
    ``None`` entry once its terminating newline arrives, so the
    connection survives and the server can answer ``frame-too-large`` in
    the right position of the response stream.  Empty lines are ignored
    (producers may use them as keepalives).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()
        self._discarding = False

    def feed(self, data: bytes) -> list[bytes | None]:
        """Append ``data``; returns completed frames (``None`` = oversized)."""
        self._buf += data
        out: list[bytes | None] = []
        while True:
            newline = self._buf.find(b"\n")
            if newline < 0:
                if self._discarding:
                    self._buf.clear()
                elif len(self._buf) > self.max_frame_bytes:
                    self._discarding = True
                    self._buf.clear()
                break
            line = bytes(self._buf[:newline])
            del self._buf[: newline + 1]
            if self._discarding:
                # Tail of a frame whose head was already dropped.
                self._discarding = False
                out.append(None)
            elif len(line) > self.max_frame_bytes:
                out.append(None)
            elif line:
                out.append(line)
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes of the (incomplete) frame currently buffered."""
        return len(self._buf)


__all__ = [
    "ERR_BAD_EVENT",
    "ERR_BAD_FRAME",
    "ERR_BAD_REQUEST",
    "ERR_DRAINING",
    "ERR_FRAME_TOO_LARGE",
    "ERR_INTERNAL",
    "ERR_RESHARD",
    "ERR_SHARD_DOWN",
    "FLEET_ACTIONS",
    "FrameBuffer",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "REQUEST_TYPES",
    "decode_frame",
    "encode_frame",
    "event_from_request",
    "parse_request",
]
