"""The paper's primary contribution: dynamic meta-learning for failure
prediction — meta-learner, reviser, predictor, knowledge repository and
the dynamic retraining framework (Section 4)."""

from repro.core.adaptive import (
    AdaptiveWindowFramework,
    AdaptiveWindowTuner,
    TuningDecision,
)
from repro.core.framework import (
    DynamicMetaLearningFramework,
    FrameworkConfig,
    RetrainEvent,
    RunResult,
    WeeklyMetrics,
)
from repro.core.online import OnlinePredictionSession, SessionSummary
from repro.core.session import SessionCore
from repro.core.serialization import (
    dump_repository,
    load_repository,
    rule_from_dict,
    rule_to_dict,
)
from repro.core.knowledge import KnowledgeRepository, RuleRecord
from repro.core.meta import MetaLearner, TrainingOutput
from repro.core.predictor import (
    ENSEMBLE_POLICIES,
    FailureWarning,
    Predictor,
    PredictorState,
)
from repro.core.reviser import DEFAULT_MIN_ROC, Reviser, RevisionResult
from repro.core.tracking import ChurnHistory, ChurnRecord, diff_rule_sets
from repro.core.windows import (
    TrainingPolicy,
    dynamic_months,
    dynamic_whole,
    static_initial,
)

__all__ = [
    "AdaptiveWindowFramework",
    "AdaptiveWindowTuner",
    "DEFAULT_MIN_ROC",
    "ENSEMBLE_POLICIES",
    "OnlinePredictionSession",
    "SessionCore",
    "SessionSummary",
    "TuningDecision",
    "dump_repository",
    "load_repository",
    "rule_from_dict",
    "rule_to_dict",
    "ChurnHistory",
    "ChurnRecord",
    "DynamicMetaLearningFramework",
    "FailureWarning",
    "FrameworkConfig",
    "KnowledgeRepository",
    "MetaLearner",
    "Predictor",
    "PredictorState",
    "RetrainEvent",
    "Reviser",
    "RevisionResult",
    "RuleRecord",
    "RunResult",
    "TrainingOutput",
    "TrainingPolicy",
    "WeeklyMetrics",
    "diff_rule_sets",
    "dynamic_months",
    "dynamic_whole",
    "static_initial",
]
