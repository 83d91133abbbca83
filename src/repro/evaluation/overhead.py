"""Operation-overhead measurement (Table 5).

Times the two halves of the paper's cost model separately: *rule
generation* (per base learner, plus ensemble & revise) and *rule matching*
(the event-driven predictor replaying a stream).  The paper's Observation
#8: matching is trivial (dozens of seconds on 2008 hardware) while
generation grows with the training-set size — and can run in parallel
with production operation, so it is not part of the online overhead.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.learners.base import BaseLearner
from repro.raslog.catalog import EventCatalog, default_catalog
from repro.raslog.store import EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


@dataclass
class OverheadRecord:
    """Wall-clock seconds for one training-size point of Table 5."""

    training_weeks: int
    n_training_events: int
    #: learner name -> rule-generation seconds
    generation: dict[str, float] = field(default_factory=dict)
    ensemble_and_revise: float = 0.0
    rule_matching: float = 0.0
    n_rules: int = 0
    n_matched_events: int = 0

    @property
    def total_generation(self) -> float:
        return sum(self.generation.values()) + self.ensemble_and_revise


#: Runs of each learner per training size; the fastest one is reported.
GENERATION_REPEATS = 3


def _timed(fn: Callable, *args, repeats: int = 1) -> tuple[object, float]:
    """``(fn(*args), wall seconds)``: the fastest of ``repeats`` calls,
    each timed with the cyclic garbage collector paused, as :mod:`timeit`
    does.  A collection of the caller's whole heap that happens to fall
    inside one call would otherwise be charged to it (on a large heap,
    several times the call's own cost)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn(*args)
            best = min(best, time.perf_counter() - t0)
        return result, best
    finally:
        if enabled:
            gc.enable()


def measure_overhead(
    learners: list[BaseLearner],
    training_log: EventLog,
    matching_log: EventLog,
    window: float,
    training_weeks: int,
    catalog: EventCatalog | None = None,
    min_roc: float = 0.7,
    tick: float | None = 60.0,
) -> OverheadRecord:
    """Time generation on ``training_log`` and matching on ``matching_log``.

    A learner's rules are a pure function of the training log, so each
    learner is timed as the fastest of :data:`GENERATION_REPEATS` runs;
    revision and matching run once.
    """
    # Imported here to keep the evaluation package importable from within
    # repro.core (the reviser consumes repro.evaluation.matching).
    from repro.core.knowledge import RuleRecord  # noqa: PLC0415
    from repro.core.predictor import Predictor  # noqa: PLC0415
    from repro.core.reviser import Reviser  # noqa: PLC0415

    catalog = catalog or default_catalog()
    record = OverheadRecord(
        training_weeks=training_weeks, n_training_events=len(training_log)
    )

    rules_by_learner: dict[str, list] = {}
    for learner in learners:
        rules_by_learner[learner.name], record.generation[learner.name] = _timed(
            learner.train, training_log, window, repeats=GENERATION_REPEATS
        )

    records: list[RuleRecord] = []
    seen = set()
    for name, rules in rules_by_learner.items():
        for rule in rules:
            if rule.key not in seen:
                seen.add(rule.key)
                records.append(
                    RuleRecord(rule=rule, learner=name, trained_at_week=0)
                )

    reviser = Reviser(min_roc=min_roc, catalog=catalog, tick=tick)
    revision, record.ensemble_and_revise = _timed(
        reviser.revise, records, training_log, window
    )
    record.n_rules = len(revision.kept)

    predictor = Predictor(
        [r.rule for r in revision.kept],
        window=window,
        catalog=catalog,
    )  # default horizon cap; overhead depends only on rule volume
    if len(matching_log):
        predictor.state.clock = float(matching_log.timestamps[0])
    _, record.rule_matching = _timed(predictor.replay, matching_log, tick)
    record.n_matched_events = len(matching_log)
    return record
