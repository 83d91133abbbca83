"""Evaluation: metrics, warning/failure matching, timelines, Venn
coverage and overhead measurement (Section 5)."""

from repro.evaluation.matching import (
    MatchResult,
    RuleScore,
    extract_failures,
    match_warnings,
    score_firings,
    score_rules,
)
from repro.evaluation.metrics import PrecisionRecall, combine
from repro.evaluation.overhead import OverheadRecord, measure_overhead
from repro.evaluation.reporting import compare_runs, learner_breakdown
from repro.evaluation.timeline import (
    mean_accuracy,
    rolling_metrics,
    series_arrays,
    trend_slope,
)
from repro.evaluation.venn import VennResult, venn_coverage

__all__ = [
    "MatchResult",
    "OverheadRecord",
    "PrecisionRecall",
    "RuleScore",
    "VennResult",
    "combine",
    "compare_runs",
    "extract_failures",
    "learner_breakdown",
    "match_warnings",
    "mean_accuracy",
    "measure_overhead",
    "rolling_metrics",
    "score_firings",
    "score_rules",
    "series_arrays",
    "trend_slope",
    "venn_coverage",
]
