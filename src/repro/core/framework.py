"""The dynamic meta-learning framework (Figure 1, right half).

Orchestrates the full loop of the paper: every ``WR`` weeks (the
retraining window) the meta-learner re-trains the base learners on the
training set chosen by the window policy, the reviser filters the
candidate rules by ROC analysis, the knowledge repository is swapped to
the surviving rules (with churn recorded for Figure 12), and the
event-driven predictor keeps monitoring the stream, emitting warnings
whenever a rule matches within the prediction window ``Wp``.

There is one engine: :meth:`DynamicMetaLearningFramework.run` replays a
complete log through a :class:`~repro.core.session.SessionCore`, the
same state machine that serves online streams, and then scores the
warnings week by week.  Batch and streamed runs therefore share every
retraining decision — fixed cadence or drift-triggered, and degraded
mode's capped-backoff retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import FrameworkConfig
from repro.core.predictor import FailureWarning
from repro.core.session import RetrainEvent, SessionCore, WindowTuner
from repro.core.tracking import ChurnHistory
from repro.evaluation.matching import extract_failures, match_warnings
from repro.evaluation.metrics import PrecisionRecall
from repro.evaluation.timeline import WeeklyMetrics
from repro.resilience.degrade import RetrainFailure
from repro.raslog.catalog import EventCatalog, default_catalog
from repro.raslog.store import EventLog
from repro.utils.timeutil import WEEK_SECONDS


class NothingToEvaluate(ValueError):
    """A run whose evaluation range holds no week."""


@dataclass
class RunResult:
    """Everything a framework run produces."""

    config: FrameworkConfig
    warnings: list[FailureWarning]
    weekly: list[WeeklyMetrics]
    churn: ChurnHistory
    retrains: list[RetrainEvent]
    overall: PrecisionRecall
    start_week: int
    end_week: int
    #: retrainings that failed (only populated with ``on_retrain_error="degrade"``)
    retrain_failures: list[RetrainFailure] = field(default_factory=list)

    def series(self, metric: str) -> tuple[list[int], list[float]]:
        """(weeks, values) of ``"precision"`` or ``"recall"``."""
        if metric not in ("precision", "recall"):
            raise ValueError(f"metric must be precision or recall, got {metric!r}")
        return (
            [w.week for w in self.weekly],
            [getattr(w, metric) for w in self.weekly],
        )


class DynamicMetaLearningFramework:
    """Top-level entry point reproducing the paper's prediction engine."""

    #: Optional prediction-window tuner consulted at each retraining
    #: (see :class:`~repro.core.adaptive.AdaptiveWindowFramework`).
    _window_tuner: WindowTuner | None = None

    def __init__(
        self,
        config: FrameworkConfig | None = None,
        catalog: EventCatalog | None = None,
    ) -> None:
        self.config = config or FrameworkConfig()
        self.catalog = catalog or default_catalog()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """A no-op: a framework holds no resources between runs.  Kept
        with the ``with`` form for callers written against it."""

    def __enter__(self) -> "DynamicMetaLearningFramework":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- main loop -----------------------------------------------------------

    def run(
        self,
        log: EventLog,
        start_week: int | None = None,
        end_week: int | None = None,
    ) -> RunResult:
        """Train-and-predict over ``log``.

        Weeks before ``start_week`` (default: the configured initial
        training period) are training-only; prediction and evaluation run
        from ``start_week`` to ``end_week`` (default: end of log).  Trailing
        weeks before ``end_week`` that hold no events still get their
        scheduled retrainings, but the deployment timer is not run
        through them.
        """
        cfg = self.config
        start = cfg.initial_train_weeks if start_week is None else start_week
        end = log.n_weeks if end_week is None else end_week
        if start < 1:
            raise ValueError(f"start_week must be >= 1, got {start}")
        if end <= start:
            raise NothingToEvaluate(
                f"nothing to evaluate: end_week {end} <= start_week {start}"
            )

        core = SessionCore(
            cfg if start_week is None else cfg.with_(initial_train_weeks=start),
            catalog=self.catalog,
            origin=log.origin,
            window_tuner=self._window_tuner,
        )
        core.ingest_batch(log.slice_weeks(0, end))
        core.cross_boundaries(log.origin + (end - 1) * WEEK_SECONDS)

        weekly, overall = self._evaluate(log, core.warnings, start, end)
        return RunResult(
            config=cfg,
            warnings=core.warnings,
            weekly=weekly,
            churn=core.churn,
            retrains=core.retrains,
            overall=overall,
            start_week=start,
            end_week=end,
            retrain_failures=core.retrain_failures,
        )

    # -- evaluation ------------------------------------------------------------

    def _evaluate(
        self,
        log: EventLog,
        warnings: list[FailureWarning],
        start_week: int,
        end_week: int,
    ) -> tuple[list[WeeklyMetrics], PrecisionRecall]:
        fatal_times, fatal_codes = extract_failures(log, self.catalog)
        result = match_warnings(warnings, fatal_times, fatal_codes)

        def week_of(t: float) -> int:
            return int((t - log.origin) // WEEK_SECONDS)

        weekly: list[WeeklyMetrics] = []
        per_week_tp = {w: 0 for w in range(start_week, end_week)}
        per_week_fp = dict(per_week_tp)
        per_week_fn = dict(per_week_tp)
        per_week_warn = dict(per_week_tp)
        per_week_fatal = dict(per_week_tp)

        for i, w in enumerate(warnings):
            wk = week_of(w.time)
            if wk not in per_week_tp:
                continue
            per_week_warn[wk] += 1
            if result.matched[i]:
                per_week_tp[wk] += 1
            else:
                per_week_fp[wk] += 1
        for j, t in enumerate(fatal_times):
            wk = week_of(float(t))
            if wk not in per_week_fn:
                continue
            per_week_fatal[wk] += 1
            if not result.covered[j]:
                per_week_fn[wk] += 1

        for wk in range(start_week, end_week):
            weekly.append(
                WeeklyMetrics(
                    week=wk,
                    counts=PrecisionRecall(
                        tp=per_week_tp[wk], fp=per_week_fp[wk], fn=per_week_fn[wk]
                    ),
                    n_warnings=per_week_warn[wk],
                    n_fatal=per_week_fatal[wk],
                )
            )
        overall = PrecisionRecall(
            tp=sum(per_week_tp.values()),
            fp=sum(per_week_fp.values()),
            fn=sum(per_week_fn.values()),
        )
        return weekly, overall
