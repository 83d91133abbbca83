"""Degraded-mode bookkeeping for failed retrainings.

A long-lived monitor cannot afford to die because one retraining round
crashed (a learner bug, a reviser error).  With
``FrameworkConfig.on_retrain_error="degrade"`` the session keeps
predicting with the previous rule set, records a :class:`RetrainFailure`
and retries with capped exponential backoff.  This module holds the
shared record type and the backoff schedule; the state machine lives in
:class:`~repro.core.online.OnlinePredictionSession`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class RetrainFailure:
    """One failed retraining attempt, kept for post-mortem analysis.

    ``attempt`` counts consecutive failures since the last successful
    retraining (1 = first failure); ``time`` is the stream time at which
    the attempt ran.  The exception itself is kept as ``repr`` text so
    failure records serialize into checkpoints.
    """

    week: int
    error: str
    error_type: str
    attempt: int
    time: float


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Capped exponential backoff: ``min(base * 2**(attempt-1), cap)``."""
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    # Guard the shift: past ~60 doublings the float is astronomically
    # beyond any cap anyway, and 2.0**big overflows to inf harmlessly.
    exponent = min(attempt - 1, 64)
    return min(base * 2.0**exponent, cap)


def failure_to_dict(failure: RetrainFailure) -> dict[str, Any]:
    return {
        "week": failure.week,
        "error": failure.error,
        "error_type": failure.error_type,
        "attempt": failure.attempt,
        "time": failure.time,
    }


def failure_from_dict(data: dict[str, Any]) -> RetrainFailure:
    return RetrainFailure(
        week=data["week"],
        error=data["error"],
        error_type=data["error_type"],
        attempt=data["attempt"],
        time=data["time"],
    )
