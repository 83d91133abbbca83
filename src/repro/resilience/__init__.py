"""Fault tolerance for long-lived online sessions.

Three capabilities, all wired through
:class:`~repro.core.online.OnlinePredictionSession`:

* **degraded-mode retraining** (:mod:`repro.resilience.degrade`) — a
  crashing retrain no longer kills the session; it keeps predicting
  with the previous rule set, records a :class:`RetrainFailure` and
  retries with capped exponential backoff;
* **checkpoint/resume** (:mod:`repro.resilience.checkpoint`) — the full
  session state round-trips through a versioned JSON file written
  atomically, and a resumed session continues byte-identically to an
  uninterrupted one;
* **late-event tolerance** (:mod:`repro.resilience.reorder`) — a bounded
  :class:`ReorderBuffer` re-sequences events that arrive within a
  configured slack and quarantines anything later, instead of raising;
* **write-ahead journaling** (:mod:`repro.resilience.journal`) — a
  segmented, checksummed :class:`EventJournal` records every accepted
  input before it is processed, so recovery (checkpoint + journal
  replay) is crash-consistent: no event between the last checkpoint and
  the crash is lost.

The matching chaos harness lives in :mod:`repro.faults`.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_READABLE_VERSIONS,
    CHECKPOINT_VERSION,
    CheckpointError,
    atomic_write_json,
    config_digest,
    config_from_dict,
    config_to_dict,
    fsync_directory,
    read_checkpoint,
)
from repro.resilience.degrade import RetrainFailure, backoff_delay
from repro.resilience.journal import (
    EventJournal,
    JournalCorruption,
    JournalError,
    parse_fsync_policy,
)
from repro.resilience.reorder import QUARANTINE_KEEP, ReorderBuffer

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_READABLE_VERSIONS",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "EventJournal",
    "JournalCorruption",
    "JournalError",
    "QUARANTINE_KEEP",
    "ReorderBuffer",
    "RetrainFailure",
    "atomic_write_json",
    "backoff_delay",
    "config_digest",
    "config_from_dict",
    "config_to_dict",
    "fsync_directory",
    "parse_fsync_policy",
    "read_checkpoint",
]
