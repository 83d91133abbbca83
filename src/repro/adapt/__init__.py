"""Online drift detection and adaptive retrain scheduling.

The paper's dynamic loop retrains on a fixed ``WR`` cadence — a
cost/accuracy compromise its own Figure 10 documents.  This package
closes the loop instead: three deterministic detectors watch the
filtered stream for regime change (event-mix divergence, inter-arrival
shift, rule hit-rate decay), and an :class:`AdaptiveRetrainPolicy`
with hysteresis, post-retrain cooldown and a ``WR_max`` safety net
turns their scores into retrain/skip decisions.
:class:`~repro.core.online.OnlinePredictionSession` consumes the
bundle through :class:`DriftMonitor` when
``FrameworkConfig.retrain_trigger`` is ``"adaptive"``; the default
``"fixed"`` path is untouched.
"""

from repro.adapt.detectors import (
    EventMixDetector,
    InterArrivalDetector,
    RuleHitRateDetector,
    js_divergence,
    ks_statistic,
)
from repro.adapt.policy import (
    CAUSE_INITIAL,
    CAUSE_MAX_INTERVAL,
    AdaptiveRetrainPolicy,
    DriftDecision,
    DriftMonitor,
)

__all__ = [
    "AdaptiveRetrainPolicy",
    "CAUSE_INITIAL",
    "CAUSE_MAX_INTERVAL",
    "DriftDecision",
    "DriftMonitor",
    "EventMixDetector",
    "InterArrivalDetector",
    "RuleHitRateDetector",
    "js_divergence",
    "ks_statistic",
]
