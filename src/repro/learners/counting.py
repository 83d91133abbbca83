"""Count-threshold base learner (a Section 7 "popularize the base
learners" extension).

The association learner keys on the *presence* of distinct precursor
types; this learner keys on the *volume* of a single type: a flood of the
same warning (correctable ECC, network retransmits) often precedes the
corresponding failure.  On the training set it builds, for each fatal
event, the multiset of non-fatal codes inside the rule-generation window,
and emits ``CountRule(code, n) → fatal`` for every (code, n) whose
support and confidence clear the thresholds — the same permissive-mine /
revise-later contract as the paper's own learners.
"""

from __future__ import annotations

from collections import Counter

from repro.learners.base import BaseLearner, precursor_spans
from repro.learners.rules import CountRule, Rule
from repro.raslog.catalog import EventCatalog
from repro.raslog.store import EventLog


class CountThresholdLearner(BaseLearner):
    """Mines ``n× code within Wp → fatal`` volume rules."""

    name = "count"

    def __init__(
        self,
        catalog: EventCatalog | None = None,
        min_support: float = 0.01,
        min_confidence: float = 0.2,
        min_count: int = 2,
        max_count: int = 32,
    ) -> None:
        super().__init__(catalog)
        if not 0.0 < min_support <= 1.0:
            raise ValueError(f"min_support must lie in (0, 1], got {min_support}")
        if not 0.0 < min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence must lie in (0, 1], got {min_confidence}"
            )
        if min_count < 2:
            raise ValueError(f"min_count must be >= 2, got {min_count}")
        if max_count < min_count:
            raise ValueError("max_count must be >= min_count")
        self.min_support = min_support
        self.min_confidence = min_confidence
        self.min_count = min_count
        self.max_count = max_count

    def window_counts(
        self, log: EventLog, window: float
    ) -> list[tuple[str, Counter]]:
        """Per fatal event: (fatal code, multiset of preceding non-fatals)."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        fatal, nonfatal = self.split_fatal(log)
        codes = [e.entry_data for e in nonfatal]
        return [
            (event.entry_data, Counter(codes[lo:hi]))
            for event, lo, hi in zip(fatal, *precursor_spans(fatal, nonfatal, window))
        ]

    def train(self, log: EventLog, window: float) -> list[Rule]:
        transactions = self.window_counts(log, window)
        n_tx = len(transactions)
        if n_tx == 0:
            return []

        # support count of (code, n, fatal): windows before `fatal` where
        # `code` appeared at least n times; and of (code, n) regardless of
        # the fatal type, for the confidence denominator.
        joint: Counter = Counter()
        marginal: Counter = Counter()
        for fatal_code, counts in transactions:
            for code, c in counts.items():
                top = min(c, self.max_count)
                for n in range(self.min_count, top + 1):
                    joint[(code, n, fatal_code)] += 1
                    marginal[(code, n)] += 1

        min_count_abs = self.min_support * n_tx
        rules: list[Rule] = []
        best_per_pair: dict[tuple[str, str], CountRule] = {}
        for (code, n, fatal_code), cnt in joint.items():
            if cnt < min_count_abs:
                continue
            confidence = cnt / marginal[(code, n)]
            if confidence < self.min_confidence:
                continue
            rule = CountRule(
                code=code,
                count=n,
                window=window,
                consequent=fatal_code,
                support=cnt / n_tx,
                confidence=confidence,
            )
            # Keep only the most specific useful threshold per
            # (code, fatal) pair: the largest n at maximal confidence —
            # lower thresholds fire strictly more often with no better
            # confidence, and the reviser scores one rule per key.
            prev = best_per_pair.get((code, fatal_code))
            if (
                prev is None
                or confidence > prev.confidence
                or (confidence == prev.confidence and n < prev.count)
            ):
                best_per_pair[(code, fatal_code)] = rule
        rules = sorted(
            best_per_pair.values(),
            key=lambda r: (-r.confidence, -r.support, r.key),
        )
        return rules
