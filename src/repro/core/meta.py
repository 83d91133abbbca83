"""The meta-learner (Section 4.1, "Ensemble Learning").

Trains the base learners on the current training set and combines them
with the mixture-of-experts model: each base learner is an expert on a
portion of the feature space, and the combination rule selects the most
appropriate expert per instance.  The consultation order — association
rules on a non-fatal event, statistical rules on a fatal event, the
probability distribution as fallback — is fixed by verification on the
training data in the paper; here it is configurable (and exercised by the
ensemble-ordering ablation bench).

Base learners are independent, and the paper (Section 5.2.4) notes that
rule generation could run in parallel while the machine operates.  Here
they train one after another on the calling thread: the learners hold
the interpreter lock, so a thread pool measured no faster, and a process
pool was several times slower on the paper-sized traces.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro import faults, observe
from repro.core.knowledge import RuleRecord
from repro.learners.base import BaseLearner
from repro.learners.registry import DEFAULT_LEARNERS, create_learner
from repro.learners.rules import Rule
from repro.raslog.catalog import EventCatalog, default_catalog
from repro.raslog.store import EventLog


@dataclass
class TrainingOutput:
    """Per-learner rules from one meta-training round."""

    week: int
    rules_by_learner: dict[str, list[Rule]] = field(default_factory=dict)
    #: wall-clock seconds of the whole round (all learners + combination)
    seconds: float = 0.0
    #: wall-clock training seconds per base learner
    learner_seconds: dict[str, float] = field(default_factory=dict)

    def records(self) -> list[RuleRecord]:
        out: list[RuleRecord] = []
        seen = set()
        for learner, rules in self.rules_by_learner.items():
            for rule in rules:
                if rule.key in seen:
                    continue
                seen.add(rule.key)
                out.append(
                    RuleRecord(rule=rule, learner=learner, trained_at_week=self.week)
                )
        return out

    @property
    def n_rules(self) -> int:
        return len({r.key for rules in self.rules_by_learner.values() for r in rules})


class MetaLearner:
    """Trains and combines the base predictive methods."""

    def __init__(
        self,
        learners: Sequence[BaseLearner | str] = DEFAULT_LEARNERS,
        catalog: EventCatalog | None = None,
        learner_params: dict[str, dict] | None = None,
    ) -> None:
        if not learners:
            raise ValueError("need at least one base learner")
        self.catalog = catalog or default_catalog()
        params = learner_params or {}
        self.learners: list[BaseLearner] = []
        for item in learners:
            if isinstance(item, str):
                self.learners.append(
                    create_learner(item, catalog=self.catalog, **params.get(item, {}))
                )
            else:
                self.learners.append(item)
        names = [lr.name for lr in self.learners]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate learner names: {names}")

    @property
    def learner_names(self) -> list[str]:
        return [lr.name for lr in self.learners]

    def train(self, log: EventLog, window: float, week: int = 0) -> TrainingOutput:
        """Run every base learner on the training log, in order, and
        collect their candidate rules."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        plan = faults.active()
        if plan is not None:
            plan.on_train(week)
        with observe.span("meta.train") as sp:
            output = TrainingOutput(week=week)
            for learner in self.learners:
                t0 = time.perf_counter()
                rules = learner.train(log, window)
                seconds = time.perf_counter() - t0
                output.rules_by_learner[learner.name] = list(rules)
                output.learner_seconds[learner.name] = seconds
                observe.histogram(f"meta.train.{learner.name}").observe(seconds)
        output.seconds = sp.seconds
        return output
