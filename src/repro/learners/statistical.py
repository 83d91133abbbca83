"""Statistical-rule base learner (Section 4.1, second base method).

Exploits temporal correlation among fatal events: a significant share of
failures happen in close proximity (Figure 4), so the occurrence of several
failures inside the window is itself a predictor.  On the training set the
learner estimates, for each burst size ``k``::

    p(k) = P( another failure within Wp  |  k failures observed within Wp )

and emits a :class:`~repro.learners.rules.StatisticalRule` for every ``k``
whose probability clears the threshold (the paper's example: four failures
within 300 s ⇒ another failure with probability 0.99; default threshold
0.8).
"""

from __future__ import annotations

import numpy as np

from repro.learners.base import BaseLearner
from repro.learners.rules import Rule, StatisticalRule
from repro.raslog.catalog import EventCatalog
from repro.raslog.store import EventLog


class StatisticalRuleLearner(BaseLearner):
    """Learns burst-size rules over the fatal-event point process."""

    name = "statistical"

    def __init__(
        self,
        catalog: EventCatalog | None = None,
        threshold: float = 0.8,
        max_k: int = 8,
        min_samples: int = 5,
    ) -> None:
        super().__init__(catalog)
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
        if max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.threshold = threshold
        self.max_k = max_k
        self.min_samples = min_samples

    def burst_statistics(
        self, fatal_times: np.ndarray, window: float
    ) -> dict[int, tuple[int, int]]:
        """``k → (observations, followed)`` over the training fatals.

        For each fatal event at ``t`` let ``k`` be the number of fatals in
        ``(t - window, t]`` (including itself); the event counts toward
        every burst size ``1..k`` ("at least k failures inside the
        window"), and "followed" means another fatal occurred in
        ``(t, t + window]``.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        t = np.asarray(fatal_times, dtype=np.float64)
        stats: dict[int, tuple[int, int]] = {}
        if len(t) == 0:
            return stats
        lo = np.searchsorted(t, t - window, side="right")
        counts = np.arange(1, len(t) + 1) - lo  # fatals in (t-window, t]
        hi = np.searchsorted(t, t + window, side="right")
        followed = hi > np.arange(1, len(t) + 1)
        for k in range(1, self.max_k + 1):
            mask = counts >= k
            n = int(mask.sum())
            if n == 0:
                break
            stats[k] = (n, int(followed[mask].sum()))
        return stats

    def train(self, log: EventLog, window: float) -> list[Rule]:
        fatal, _ = self.split_fatal(log)
        stats = self.burst_statistics(fatal.timestamps, window)
        rules: list[Rule] = []
        for k, (n, followed) in sorted(stats.items()):
            if n < self.min_samples:
                continue
            p = followed / n
            if p >= self.threshold:
                rules.append(
                    StatisticalRule(k=k, window=window, probability=p)
                )
        return rules
