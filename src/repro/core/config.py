"""Configuration of the dynamic meta-learning engine, shared by the
session core and the batch framework that replays through it."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.predictor import ENSEMBLE_POLICIES
from repro.core.windows import TrainingPolicy, dynamic_months
from repro.learners.registry import DEFAULT_LEARNERS


@dataclass(frozen=True)
class FrameworkConfig:
    """All knobs of the framework, with the paper's defaults."""

    #: Prediction window ``Wp`` (= rule-generation window), seconds.
    prediction_window: float = 300.0
    #: Retraining window ``WR``, weeks.
    retrain_weeks: int = 4
    #: Training-set policy (paper default: most recent six months).
    policy: TrainingPolicy = field(default_factory=dynamic_months)
    #: Weeks of data accumulated before predictions start.
    initial_train_weeks: int = 26
    #: Whether the reviser filters candidate rules (Figure 11's ablation).
    use_reviser: bool = True
    min_roc: float = 0.7
    #: Expert-combination policy of the predictor.
    ensemble: str = "experts"
    #: Deployment-timer period for the time-triggered expert, seconds.
    tick: float | None = 60.0
    #: Cap on the distribution expert's warning horizon, seconds.
    dist_horizon_cap: float = 43200.0
    #: Base learners by registry name, in mixture-of-experts order.
    learners: tuple[str, ...] = DEFAULT_LEARNERS
    #: Extra constructor arguments per learner name.
    learner_params: dict[str, dict] = field(default_factory=dict)
    #: What a failed retraining does: ``"raise"`` propagates the error
    #: (fail-fast, the batch default pinned by the failure-injection
    #: tests); ``"degrade"`` keeps predicting with the previous rule set,
    #: records a :class:`~repro.resilience.RetrainFailure` and retries.
    on_retrain_error: str = "raise"
    #: Tolerated out-of-order arrival (seconds) in the online session.
    #: 0.0 keeps the strict behaviour: late events raise ``ValueError``.
    #: Positive values buffer events for re-sequencing; events later than
    #: the slack are quarantined instead of raised.
    reorder_slack: float = 0.0
    #: First retry delay (stream seconds) after a failed retraining.
    retrain_backoff_base: float = 60.0
    #: Cap on the exponential retry backoff (stream seconds).
    retrain_backoff_cap: float = 3600.0
    #: How retrainings are scheduled: ``"fixed"`` retrains every
    #: ``retrain_weeks`` (the paper's metronome); ``"adaptive"`` evaluates
    #: the :mod:`repro.adapt` drift detectors at every week boundary and
    #: retrains when patterns actually moved (with a cooldown after each
    #: retraining and a forced retrain at least every
    #: ``adapt_max_interval_weeks``).
    retrain_trigger: str = "fixed"
    #: Jensen–Shannon event-mix divergence that triggers a retrain.
    adapt_mix_threshold: float = 0.45
    #: KS inter-arrival-shift statistic that triggers a retrain.
    adapt_gap_threshold: float = 0.45
    #: Fraction of baseline rules decayed that triggers a retrain.
    adapt_rule_threshold: float = 0.6
    #: Weeks after a successful retraining during which drift triggers
    #: are suppressed (fresh rules re-baseline first).
    adapt_cooldown_weeks: int = 2
    #: A quiet stream still retrains at least every this many weeks
    #: (``WR_max``, the adaptive mode's safety net).
    adapt_max_interval_weeks: int = 8
    #: Sliding-window size (events / gap samples) of the drift detectors.
    adapt_window_events: int = 256
    #: Re-arm fraction: after a drift trigger, scores must fall below
    #: ``hysteresis`` × threshold before another drift trigger can fire.
    adapt_hysteresis: float = 0.6

    def __post_init__(self) -> None:
        if self.prediction_window <= 0:
            raise ValueError("prediction_window must be positive")
        if self.retrain_weeks < 1:
            raise ValueError("retrain_weeks must be >= 1")
        if self.initial_train_weeks < 1:
            raise ValueError("initial_train_weeks must be >= 1")
        if self.ensemble not in ENSEMBLE_POLICIES:
            raise ValueError(f"ensemble must be one of {ENSEMBLE_POLICIES}")
        if not self.learners:
            raise ValueError("need at least one learner")
        if self.tick is not None and self.tick <= 0:
            raise ValueError(f"tick must be positive or None, got {self.tick}")
        if not 0.0 <= self.min_roc <= 1.0:
            raise ValueError(f"min_roc must lie in [0, 1], got {self.min_roc}")
        if self.dist_horizon_cap <= 0:
            raise ValueError(
                f"dist_horizon_cap must be positive, got {self.dist_horizon_cap}"
            )
        if self.on_retrain_error not in ("raise", "degrade"):
            raise ValueError(
                f"on_retrain_error must be 'raise' or 'degrade', "
                f"got {self.on_retrain_error!r}"
            )
        if self.reorder_slack < 0:
            raise ValueError(
                f"reorder_slack must be >= 0, got {self.reorder_slack}"
            )
        if self.retrain_backoff_base <= 0:
            raise ValueError(
                f"retrain_backoff_base must be positive, "
                f"got {self.retrain_backoff_base}"
            )
        if self.retrain_backoff_cap < self.retrain_backoff_base:
            raise ValueError(
                f"retrain_backoff_cap ({self.retrain_backoff_cap}) must be "
                f">= retrain_backoff_base ({self.retrain_backoff_base})"
            )
        if self.retrain_trigger not in ("fixed", "adaptive"):
            raise ValueError(
                f"retrain_trigger must be 'fixed' or 'adaptive', "
                f"got {self.retrain_trigger!r}"
            )
        for name in (
            "adapt_mix_threshold",
            "adapt_gap_threshold",
            "adapt_rule_threshold",
            "adapt_hysteresis",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        if self.adapt_cooldown_weeks < 0:
            raise ValueError(
                f"adapt_cooldown_weeks must be >= 0, "
                f"got {self.adapt_cooldown_weeks}"
            )
        if self.adapt_max_interval_weeks <= self.adapt_cooldown_weeks:
            raise ValueError(
                f"adapt_max_interval_weeks "
                f"({self.adapt_max_interval_weeks}) must exceed "
                f"adapt_cooldown_weeks ({self.adapt_cooldown_weeks})"
            )
        if self.adapt_window_events < 16:
            raise ValueError(
                f"adapt_window_events must be >= 16, "
                f"got {self.adapt_window_events}"
            )

    def with_(self, **changes) -> "FrameworkConfig":
        """Functional update helper for experiment sweeps."""
        return replace(self, **changes)

