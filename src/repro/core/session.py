"""The records an online session keeps and hands out.

:class:`RetrainEvent` is the telemetry of one retraining,
:class:`SessionSummary` is a session's accuracy accounting, and
:data:`WindowTuner` is the prediction-window hook a session may consult
at each retraining.  The session itself is
:class:`~repro.core.online.OnlinePredictionSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.meta import MetaLearner
from repro.core.reviser import Reviser
from repro.core.tracking import ChurnRecord
from repro.evaluation.matching import MatchResult
from repro.raslog.store import EventLog
from repro.resilience.degrade import RetrainFailure

#: Prediction-window hook: ``tuner(week, train_log, meta, reviser)``
#: returns the window ``Wp`` a retraining trains, revises and predicts with.
WindowTuner = Callable[[int, EventLog, MetaLearner, Reviser], float]


@dataclass
class RetrainEvent:
    """Telemetry of one retraining round."""

    week: int
    train_span: tuple[int, int]
    n_candidates: int
    n_kept: int
    churn: ChurnRecord
    generation_seconds: float
    revise_seconds: float
    #: per-learner training seconds
    learner_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class SessionSummary:
    """Accounting of a finished (or in-flight) session.

    ``precision``/``recall`` follow the paper's Section 5.1 formulas
    (true positives are correct *predictions*, false negatives are missed
    *failures*), matching
    :attr:`repro.core.framework.RunResult.overall`; the full
    :class:`MatchResult` is attached for coverage-based analysis.
    """

    n_events: int
    n_fatal: int
    n_warnings: int
    matching: MatchResult
    retrains: list[RetrainEvent] = field(default_factory=list)
    retrain_failures: list[RetrainFailure] = field(default_factory=list)
    n_quarantined: int = 0

    @property
    def precision(self) -> float:
        denom = self.matching.true_positives + self.matching.false_positives
        return self.matching.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.matching.true_positives + self.matching.false_negatives
        return self.matching.true_positives / denom if denom else 0.0


__all__ = ["RetrainEvent", "SessionSummary", "WindowTuner"]
