"""Versioned, atomic checkpoint files for the online session.

A monitor that runs for months next to a production machine will be
restarted — deploys, node reboots, OOM kills — and must come back
without losing its monitoring state or re-streaming half a year of
events.  :meth:`OnlinePredictionSession.checkpoint` serializes the full
session (rules with provenance, predictor monitoring state, retrain
schedule and degraded-mode bookkeeping, accumulated warnings, fatal
bookkeeping, the event-history tail future retrainings need, and any
reorder-buffer residue) into one JSON document written atomically
(temp file + ``os.replace``), and :meth:`OnlinePredictionSession.resume`
rebuilds a session that continues *byte-identically* to one that never
stopped — the equivalence is pinned by tests.

The document carries a format name, a schema version and a digest of
the session's :class:`~repro.core.framework.FrameworkConfig`; loading
rejects unknown versions and mismatched configs instead of silently
resuming with different semantics.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from repro.core.serialization import (
    record_from_dict,
    record_to_dict,
    warning_from_dict,
    warning_to_dict,
)
from repro.core.tracking import ChurnRecord
from repro.raslog.events import RASEvent
from repro.resilience.degrade import (
    RetrainFailure,
    failure_from_dict,
    failure_to_dict,
)

CHECKPOINT_FORMAT = "repro-session-checkpoint"
#: Version written by this build.  v2 added the ``journal`` field (the
#: write-ahead-log position covered by the snapshot); v3 added the
#: ``adapt`` field (drift-detector and adaptive-retrain-policy state).
#: Older files — which simply predate those subsystems — are still
#: readable: a missing field means the feature was off or absent.
CHECKPOINT_VERSION = 3
CHECKPOINT_READABLE_VERSIONS = (1, 2, 3)


class CheckpointError(ValueError):
    """A checkpoint file that cannot (or must not) be resumed."""


def fsync_directory(path: str | Path) -> None:
    """Best-effort fsync of a directory entry.

    ``os.replace`` makes a rename atomic, but the *directory entry*
    itself only becomes durable once the directory is fsynced — without
    it a power loss can make a just-renamed file vanish.  Platforms
    without directory fds (no ``os.O_DIRECTORY``) silently skip.
    """
    flag = getattr(os, "O_DIRECTORY", None)
    if flag is None:  # pragma: no cover - non-POSIX platforms
        return
    try:
        fd = os.open(path, os.O_RDONLY | flag)
    except OSError:  # pragma: no cover - unreadable parent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: str | Path, payload: dict[str, Any]) -> None:
    """Write JSON durably: temp file + fsync + ``os.replace`` + dir fsync.

    A crash mid-write leaves either the previous checkpoint or none —
    never a torn file — and the directory fsync after the rename makes
    the *new* file survive a power loss too.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent or "."
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=None, separators=(",", ":"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent or ".")


def read_checkpoint(path: str | Path) -> dict[str, Any]:
    """Load and validate a checkpoint document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version = payload.get("version")
    if version not in CHECKPOINT_READABLE_VERSIONS:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(this build reads versions "
            f"{', '.join(map(str, CHECKPOINT_READABLE_VERSIONS))})"
        )
    return payload


# -- config identity ------------------------------------------------------


def config_to_dict(config) -> dict[str, Any]:
    """JSON-ready form of a :class:`FrameworkConfig`.

    ``learner_params`` must be JSON-serializable (it is for every
    registry learner); exotic param objects make a config un-checkpointable.

    The adaptive-retraining fields are emitted only when
    ``retrain_trigger`` is not ``"fixed"``: with the fixed trigger they
    are inert, and omitting them keeps the digest of every pre-existing
    (fixed-cadence) checkpoint valid under this build.
    """
    data = {
        "prediction_window": config.prediction_window,
        "retrain_weeks": config.retrain_weeks,
        "policy": {
            "kind": config.policy.kind,
            "length_weeks": config.policy.length_weeks,
        },
        "initial_train_weeks": config.initial_train_weeks,
        "use_reviser": config.use_reviser,
        "min_roc": config.min_roc,
        "ensemble": config.ensemble,
        "tick": config.tick,
        "dist_horizon_cap": config.dist_horizon_cap,
        "learners": list(config.learners),
        "learner_params": config.learner_params,
        "on_retrain_error": config.on_retrain_error,
        "reorder_slack": config.reorder_slack,
        "retrain_backoff_base": config.retrain_backoff_base,
        "retrain_backoff_cap": config.retrain_backoff_cap,
    }
    if config.retrain_trigger != "fixed":
        data["retrain_trigger"] = config.retrain_trigger
        data["adapt"] = {
            "mix_threshold": config.adapt_mix_threshold,
            "gap_threshold": config.adapt_gap_threshold,
            "rule_threshold": config.adapt_rule_threshold,
            "cooldown_weeks": config.adapt_cooldown_weeks,
            "max_interval_weeks": config.adapt_max_interval_weeks,
            "window_events": config.adapt_window_events,
            "hysteresis": config.adapt_hysteresis,
        }
    return data


def config_from_dict(data: dict[str, Any]):
    """Rebuild a :class:`FrameworkConfig` from :func:`config_to_dict`."""
    from repro.core.config import FrameworkConfig
    from repro.core.windows import TrainingPolicy

    data = dict(data)
    policy = data.pop("policy")
    adapt = data.pop("adapt", None)
    if adapt is not None:
        data.update({f"adapt_{key}": value for key, value in adapt.items()})
    return FrameworkConfig(
        policy=TrainingPolicy(
            kind=policy["kind"], length_weeks=policy["length_weeks"]
        ),
        learners=tuple(data.pop("learners")),
        **data,
    )


def config_digest(config) -> str:
    """Stable identity of a config, for checkpoint/resume compatibility."""
    blob = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- component codecs -----------------------------------------------------


def event_to_dict(event: RASEvent) -> dict[str, Any]:
    return event.as_dict()


def event_from_dict(data: dict[str, Any]) -> RASEvent:
    return RASEvent.from_dict(data)


def churn_to_dict(churn: ChurnRecord) -> dict[str, Any]:
    return {
        "week": churn.week,
        "unchanged": churn.unchanged,
        "added": churn.added,
        "removed_by_meta": churn.removed_by_meta,
        "removed_by_reviser": churn.removed_by_reviser,
    }


def churn_from_dict(data: dict[str, Any]) -> ChurnRecord:
    return ChurnRecord(
        week=data["week"],
        unchanged=data["unchanged"],
        added=data["added"],
        removed_by_meta=data["removed_by_meta"],
        removed_by_reviser=data["removed_by_reviser"],
    )


def retrain_event_to_dict(event) -> dict[str, Any]:
    return {
        "week": event.week,
        "train_span": list(event.train_span),
        "n_candidates": event.n_candidates,
        "n_kept": event.n_kept,
        "churn": churn_to_dict(event.churn),
        "generation_seconds": event.generation_seconds,
        "revise_seconds": event.revise_seconds,
        "learner_seconds": event.learner_seconds,
    }


def retrain_event_from_dict(data: dict[str, Any]):
    from repro.core.session import RetrainEvent

    return RetrainEvent(
        week=data["week"],
        train_span=tuple(data["train_span"]),
        n_candidates=data["n_candidates"],
        n_kept=data["n_kept"],
        churn=churn_from_dict(data["churn"]),
        generation_seconds=data["generation_seconds"],
        revise_seconds=data["revise_seconds"],
        learner_seconds=dict(data["learner_seconds"]),
    )


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_READABLE_VERSIONS",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "atomic_write_json",
    "fsync_directory",
    "churn_from_dict",
    "churn_to_dict",
    "config_digest",
    "config_from_dict",
    "config_to_dict",
    "event_from_dict",
    "event_to_dict",
    "failure_from_dict",
    "failure_to_dict",
    "read_checkpoint",
    "record_from_dict",
    "record_to_dict",
    "retrain_event_from_dict",
    "retrain_event_to_dict",
    "warning_from_dict",
    "warning_to_dict",
    "RetrainFailure",
]
