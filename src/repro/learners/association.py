"""Association-rule base learner (Section 4.1, first base method).

For every fatal event in the training set, the non-fatal events preceding
it within the rule-generation window ``Wp`` form an *event set* (a
transaction, together with the fatal event itself).  Standard Apriori
mining over these transactions, with deliberately low support/confidence
thresholds to capture rare failure patterns, yields rules of the form::

    {networkWarningInterrupt, networkError} -> socketReadFailure: 1.00

The reviser later discards rules that turn out ineffective — the paper's
justification for mining permissively here.
"""

from __future__ import annotations

from repro.learners.apriori import apriori, association_rules_from
from repro.learners.base import BaseLearner, precursor_spans
from repro.learners.rules import AssociationRule, Rule
from repro.raslog.catalog import EventCatalog
from repro.raslog.store import EventLog


class AssociationRuleLearner(BaseLearner):
    """Mines ``{non-fatal precursors} → fatal`` rules with Apriori."""

    name = "association"

    def __init__(
        self,
        catalog: EventCatalog | None = None,
        min_support: float = 0.01,
        min_confidence: float = 0.1,
        max_antecedent: int = 3,
    ) -> None:
        super().__init__(catalog)
        if not 0.0 < min_support <= 1.0:
            raise ValueError(f"min_support must lie in (0, 1], got {min_support}")
        if not 0.0 < min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence must lie in (0, 1], got {min_confidence}"
            )
        if max_antecedent < 1:
            raise ValueError(f"max_antecedent must be >= 1, got {max_antecedent}")
        self.min_support = min_support
        self.min_confidence = min_confidence
        self.max_antecedent = max_antecedent

    def transactions(
        self, log: EventLog, window: float
    ) -> list[frozenset[str]]:
        """One event set per fatal event that has ≥ 1 precursor in ``Wp``.

        Each transaction holds the distinct non-fatal codes observed in
        ``[t_fatal - Wp, t_fatal)`` plus the fatal code itself.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        fatal, nonfatal = self.split_fatal(log)
        codes = [e.entry_data for e in nonfatal]
        out: list[frozenset[str]] = []
        for event, lo, hi in zip(fatal, *precursor_spans(fatal, nonfatal, window)):
            if hi > lo:
                out.append(frozenset((*codes[lo:hi], event.entry_data)))
        return out

    def train(self, log: EventLog, window: float) -> list[Rule]:
        tx = self.transactions(log, window)
        if not tx:
            return []
        itemsets = apriori(
            tx, self.min_support, max_len=self.max_antecedent + 1
        )
        fatal_codes = self.catalog.fatal_codes
        raw = association_rules_from(itemsets, fatal_codes, self.min_confidence)
        rules: list[Rule] = []
        for antecedent, consequent, support, confidence in raw:
            # Antecedents that themselves contain fatal codes are possible
            # when a failure precedes another; the paper's association
            # method correlates *non-fatal* precursors with fatals, so
            # restrict accordingly.
            if antecedent & fatal_codes:
                continue
            rules.append(
                AssociationRule(
                    antecedent=frozenset(antecedent),
                    consequent=str(consequent),
                    support=support,
                    confidence=confidence,
                )
            )
        rules.sort(key=lambda r: (-r.confidence, -r.support, r.key))
        return rules
