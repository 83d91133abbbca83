"""Probability-distribution base learner (Section 4.1, third base method).

Unlike the other two methods, which exploit *short-term* correlations, this
learner targets failures with no nearby precursor at all: it fits the
long-term distribution of inter-arrival times between adjacent fatal
events (Weibull / exponential / log-normal, chosen by maximum likelihood)
and warns whenever the elapsed time since the last failure makes the
fitted CDF exceed a threshold — the paper's example: with
``F(t) = 1 - exp(-(t/19984.8)^0.508)`` and threshold 0.6, a warning fires
once 20 000 s have passed since the last failure (F = 0.63).
"""

from __future__ import annotations

from repro.learners.base import BaseLearner
from repro.learners.fitting import (
    DISTRIBUTION_FAMILIES,
    FittedDistribution,
    fit_best,
)
from repro.learners.rules import DistributionRule, Rule
from repro.raslog.catalog import EventCatalog
from repro.raslog.store import EventLog


class DistributionLearner(BaseLearner):
    """Fits failure inter-arrivals and emits one threshold-crossing rule."""

    name = "distribution"

    def __init__(
        self,
        catalog: EventCatalog | None = None,
        threshold: float = 0.6,
        families: tuple[str, ...] = DISTRIBUTION_FAMILIES,
        min_samples: int = 10,
    ) -> None:
        super().__init__(catalog)
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
        if min_samples < 3:
            raise ValueError(f"min_samples must be >= 3, got {min_samples}")
        self.threshold = threshold
        self.families = families
        self.min_samples = min_samples
        #: Last fit, kept for inspection (Figure 5 reporting).
        self.last_fit: FittedDistribution | None = None

    def fit(self, log: EventLog, censor_below: float = 0.0) -> FittedDistribution:
        """Fit the inter-arrival distribution of the log's fatal events.

        ``censor_below`` drops gaps shorter than the given duration before
        fitting.  The learner's role in the ensemble is *long-term*
        behaviour — failures with no short-term precursor — and the
        sub-window gaps inside failure bursts are already the statistical
        learner's territory; censoring them keeps the two experts
        complementary.  Falls back to the uncensored sample when censoring
        leaves too few gaps.
        """
        fatal, _ = self.split_fatal(log)
        gaps = fatal.interarrivals()
        gaps = gaps[gaps > 0.0]
        censored = gaps[gaps > censor_below] if censor_below > 0.0 else gaps
        if len(censored) >= self.min_samples:
            gaps = censored
        if len(gaps) < self.min_samples:
            raise ValueError(
                f"not enough failure inter-arrivals to fit: {len(gaps)} "
                f"< {self.min_samples}"
            )
        fitted = fit_best(gaps, self.families)
        self.last_fit = fitted
        return fitted

    def train(self, log: EventLog, window: float) -> list[Rule]:
        try:
            fitted = self.fit(log, censor_below=window)
        except ValueError:
            return []
        return [
            DistributionRule(
                distribution=fitted.name,
                params=tuple(round(p, 6) for p in fitted.params),
                threshold=self.threshold,
                quantile_time=fitted.quantile(self.threshold),
            )
        ]
