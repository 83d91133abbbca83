"""Network serving front-end for the prediction fleet.

The paper's framework is an online monitor; a deployment receives its
RAS stream from collector agents over the network, not from an
in-process loop.  This package is that surface:

* :mod:`repro.net.protocol` — the newline-delimited JSON wire format
  (``ingest`` / ``advance`` / ``flush`` / ``subscribe`` / ``metrics`` /
  ``health`` frames; see ``docs/protocol.md``);
* :mod:`repro.net.server` — :class:`PredictionServer`, the asyncio TCP
  front-end with per-shard micro-batching, bounded queues with explicit
  shed-load responses, warning fan-out to subscribers, and graceful
  drain-checkpoint-exit (behind ``repro serve``);
* :mod:`repro.net.client` — :class:`PredictionClient`, the one
  (blocking-socket) client: it tracks the unacknowledged tail a
  producer must replay after a failover and retries transient
  rejections (``overloaded`` / ``shard-down``) with jittered
  exponential backoff (:class:`RetryPolicy`).
"""

from repro.net.client import (
    PredictionClient,
    Rejected,
    RetryPolicy,
    ServerClosed,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameBuffer,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.net.server import PredictionServer, serve_in_thread

__all__ = [
    "FrameBuffer",
    "MAX_FRAME_BYTES",
    "PredictionClient",
    "PredictionServer",
    "ProtocolError",
    "Rejected",
    "RetryPolicy",
    "ServerClosed",
    "decode_frame",
    "encode_frame",
    "serve_in_thread",
]
