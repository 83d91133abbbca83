"""Fixed-cadence vs drift-triggered retraining on a named scenario.

This is the measurement behind the adaptive-retraining claim: on a
trace with one known regime change (:mod:`repro.raslog.scenarios`),
stream the same clean log through two otherwise-identical sessions —
one retraining every ``WR`` weeks, one on the
:class:`~repro.adapt.policy.AdaptiveRetrainPolicy` — and compare what
each paid (retraining count) for what it got (post-shift recall).
``tests/adapt/test_scenarios.py`` pins the result for both scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.adapt.policy import CAUSE_INITIAL
from repro.core.config import FrameworkConfig
from repro.core.online import OnlinePredictionSession
from repro.evaluation.matching import match_warnings
from repro.raslog.generator import SyntheticLog
from repro.raslog.scenarios import get_scenario
from repro.utils.timeutil import WEEK_SECONDS


@dataclass(frozen=True, slots=True)
class ArmOutcome:
    """What one retraining policy did on the scenario trace."""

    trigger: str
    n_retrains: int
    retrain_weeks: tuple[int, ...]
    n_warnings: int
    recall: float
    precision: float
    post_shift_recall: float
    post_shift_precision: float
    #: adaptive arm only — weekly drift-evaluation accounting
    drift: dict[str, Any] | None = None


@dataclass(frozen=True, slots=True)
class ScenarioComparison:
    """Both arms plus the derived headline numbers."""

    scenario: str
    shift_week: int
    fixed: ArmOutcome
    adaptive: ArmOutcome
    #: week of the first drift-caused retraining at/after the shift,
    #: or None if the detectors never fired
    trigger_week: int | None = None
    #: evaluation weeks between the shift and that retraining (the
    #: earliest possible value is 1: the first boundary *after* a week
    #: of drifted data has streamed)
    trigger_delay_weeks: int | None = None
    #: fraction of the fixed cadence's retrainings the policy skipped
    retrains_saved_ratio: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)


def _stream(
    config: FrameworkConfig, syn: SyntheticLog
) -> OnlinePredictionSession:
    session = OnlinePredictionSession(config, catalog=syn.catalog)
    for event in syn.clean:
        session.ingest(event)
    return session


def _post_shift(
    session: OnlinePredictionSession, syn: SyntheticLog, shift_week: int
):
    """Accuracy restricted to the post-shift tail of the trace."""
    shift_t = shift_week * WEEK_SECONDS
    warnings = [w for w in session.warnings if w.time >= shift_t]
    keep = syn.fatal_times >= shift_t
    times = np.asarray(syn.fatal_times[keep], dtype=np.float64)
    codes = [c for c, k in zip(syn.fatal_codes, keep) if k]
    return match_warnings(warnings, times, codes), len(warnings)


def _outcome(
    session: OnlinePredictionSession, syn: SyntheticLog, shift_week: int
) -> ArmOutcome:
    summary = session.summary()
    post, _ = _post_shift(session, syn, shift_week)
    return ArmOutcome(
        trigger=session.config.retrain_trigger,
        n_retrains=len(session.retrains),
        retrain_weeks=tuple(r.week for r in session.retrains),
        n_warnings=summary.n_warnings,
        recall=summary.matching.recall,
        precision=summary.matching.precision,
        post_shift_recall=post.recall,
        post_shift_precision=post.precision,
        drift=session.drift_status(),
    )


def compare_on_scenario(
    scenario: str = "reconfiguration",
    *,
    scale: float = 1.0,
    seed: int | None = None,
    initial_train_weeks: int = 4,
    retrain_weeks: int = 4,
    adapt_overrides: dict[str, Any] | None = None,
) -> ScenarioComparison:
    """Run both retraining policies over one scenario trace.

    ``retrain_weeks`` is both the fixed arm's cadence and (by default)
    well below the adaptive arm's ``WR_max`` safety net, so every
    retraining the adaptive arm performs beyond the initial one is a
    decision, not a schedule.
    """
    pack = get_scenario(scenario)
    syn = pack.generate(scale=scale, seed=seed)

    fixed_config = FrameworkConfig(
        initial_train_weeks=initial_train_weeks,
        retrain_weeks=retrain_weeks,
    )
    adaptive_config = FrameworkConfig(
        initial_train_weeks=initial_train_weeks,
        retrain_weeks=retrain_weeks,
        retrain_trigger="adaptive",
        **(adapt_overrides or {}),
    )

    fixed = _outcome(_stream(fixed_config, syn), syn, pack.shift_week)
    adaptive_session = _stream(adaptive_config, syn)
    adaptive = _outcome(adaptive_session, syn, pack.shift_week)

    status = adaptive_session.drift_status() or {}
    trigger_week: int | None = None
    for entry in status.get("triggers", ()):
        if entry["cause"] != CAUSE_INITIAL and entry["week"] >= pack.shift_week:
            trigger_week = entry["week"]
            break
    delay = None if trigger_week is None else trigger_week - pack.shift_week
    saved = (
        1.0 - adaptive.n_retrains / fixed.n_retrains
        if fixed.n_retrains
        else 0.0
    )
    return ScenarioComparison(
        scenario=scenario,
        shift_week=pack.shift_week,
        fixed=fixed,
        adaptive=adaptive,
        trigger_week=trigger_week,
        trigger_delay_weeks=delay,
        retrains_saved_ratio=saved,
        extras={
            "scale": scale,
            "seed": pack.seed if seed is None else seed,
            "n_events": len(syn.clean),
            "n_fatal": syn.n_fatal,
        },
    )


__all__ = ["ArmOutcome", "ScenarioComparison", "compare_on_scenario"]
