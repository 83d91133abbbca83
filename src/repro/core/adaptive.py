"""Adaptive prediction-window tuning (the paper's first future-work item).

Section 7: "in the current design, the prediction window size is fixed.
Our on-going work includes adaptively changing this window size such that
the system can automatically tune its size to reduce the training cost,
without sacrificing the prediction accuracy."

:class:`AdaptiveWindowTuner` implements that idea with a validation
split: at each retraining the candidate windows are scored by training on
the head of the training window and measuring prediction accuracy on its
tail, and the *smallest* window whose F1 is within ``tolerance`` of the
best is selected — smaller windows mean shorter event histories to
maintain and cheaper online matching (the paper's stated motivation for
not simply using two-hour windows everywhere).
:class:`AdaptiveWindowFramework` plugs the tuner into the dynamic
framework as the session's window hook: at every retraining the chosen
window becomes the one used for training, revising, re-priming and
prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import FrameworkConfig
from repro.core.framework import DynamicMetaLearningFramework
from repro.core.meta import MetaLearner
from repro.core.predictor import Predictor
from repro.core.reviser import Reviser
from repro.evaluation.matching import extract_failures, match_warnings
from repro.raslog.catalog import EventCatalog
from repro.raslog.store import EventLog

#: The paper's Figure 13 sweep, reused as the default candidate set.
DEFAULT_CANDIDATES: tuple[float, ...] = (300.0, 900.0, 1800.0, 3600.0, 7200.0)


@dataclass
class TuningDecision:
    """Outcome of one window-tuning round."""

    week: int
    chosen: float
    #: candidate window -> (precision, recall, f1) on the validation tail
    scores: dict[float, tuple[float, float, float]] = field(default_factory=dict)


class AdaptiveWindowTuner:
    """Chooses ``Wp`` by validation accuracy, preferring small windows."""

    def __init__(
        self,
        candidates: tuple[float, ...] = DEFAULT_CANDIDATES,
        validation_fraction: float = 0.25,
        tolerance: float = 0.03,
        tick: float | None = 60.0,
    ) -> None:
        if len(candidates) < 2:
            raise ValueError("need at least two candidate windows")
        if sorted(candidates) != list(candidates):
            raise ValueError("candidate windows must be ascending")
        if not 0.0 < validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")
        if tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")
        self.candidates = tuple(float(c) for c in candidates)
        self.validation_fraction = validation_fraction
        self.tolerance = tolerance
        self.tick = tick

    def _split(self, train_log: EventLog) -> tuple[EventLog, EventLog]:
        start, end = train_log.span
        cut = end - (end - start) * self.validation_fraction
        return train_log.between(start, cut), train_log.between(cut, end + 1.0)

    def _score(
        self,
        window: float,
        meta: MetaLearner,
        reviser: Reviser,
        head: EventLog,
        tail: EventLog,
        catalog: EventCatalog,
        ensemble: str,
        dist_horizon_cap: float,
    ) -> tuple[float, float, float]:
        output = meta.train(head, window)
        revision = reviser.revise(output.records(), head, window)
        predictor = Predictor(
            [r.rule for r in revision.kept],
            window=window,
            catalog=catalog,
            ensemble=ensemble,
            dist_horizon_cap=dist_horizon_cap,
        )
        if len(tail):
            predictor.state.clock = float(tail.timestamps[0]) - 1.0
        warnings = predictor.replay(tail, tick=self.tick)
        fatal_times, fatal_codes = extract_failures(tail, catalog)
        result = match_warnings(warnings, fatal_times, fatal_codes)
        tp = result.true_positives
        p = tp / result.n_warnings if result.n_warnings else 0.0
        denom = tp + result.false_negatives
        r = tp / denom if denom else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) else 0.0
        return (p, r, f1)

    def choose(
        self,
        week: int,
        train_log: EventLog,
        meta: MetaLearner,
        reviser: Reviser,
        catalog: EventCatalog,
        ensemble: str = "experts",
        dist_horizon_cap: float = 43200.0,
    ) -> TuningDecision:
        """Score every candidate and pick the smallest near-best window."""
        head, tail = self._split(train_log)
        decision = TuningDecision(week=week, chosen=self.candidates[0])
        if len(head) == 0 or len(tail) == 0:
            return decision  # not enough data to tune; keep the smallest
        for window in self.candidates:
            decision.scores[window] = self._score(
                window, meta, reviser, head, tail, catalog,
                ensemble, dist_horizon_cap,
            )
        best_f1 = max(f1 for _, _, f1 in decision.scores.values())
        for window in self.candidates:  # ascending: smallest wins ties
            if decision.scores[window][2] >= best_f1 - self.tolerance:
                decision.chosen = window
                break
        return decision


class AdaptiveWindowFramework(DynamicMetaLearningFramework):
    """Dynamic framework with per-retraining window tuning."""

    def __init__(
        self,
        config: FrameworkConfig | None = None,
        catalog: EventCatalog | None = None,
        tuner: AdaptiveWindowTuner | None = None,
    ) -> None:
        super().__init__(config, catalog)
        self.tuner = tuner or AdaptiveWindowTuner(tick=self.config.tick)
        self.decisions: list[TuningDecision] = []

    def _window_tuner(
        self, week: int, train_log: EventLog, meta: MetaLearner, reviser: Reviser
    ) -> float:
        decision = self.tuner.choose(
            week,
            train_log,
            meta,
            reviser,
            self.catalog,
            ensemble=self.config.ensemble,
            dist_horizon_cap=self.config.dist_horizon_cap,
        )
        self.decisions.append(decision)
        return decision.chosen
