"""Alignment of warnings with actual failures.

Implements the accounting behind the paper's metrics (Section 5.1):

* a warning is a **true positive** when a fatal event occurs within its
  prediction window ``(t, t + Wp]`` (and, for type-specific rules, the
  fatal event has the predicted type);
* a fatal event is **covered** (counted toward recall) when at least one
  warning was raised within ``Wp`` before it;
* uncovered fatal events are **false negatives**, unmatched warnings are
  **false positives**.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.alerts import FailureWarning
from repro.learners.rules import ANY_FAILURE
from repro.raslog.catalog import EventCatalog
from repro.raslog.store import EventLog


@dataclass
class MatchResult:
    """Outcome of matching a batch of warnings against the failure record."""

    n_warnings: int
    n_fatal: int
    #: per-warning hit flags, aligned with the input order
    matched: np.ndarray
    #: per-fatal coverage flags, aligned with ``fatal_times``
    covered: np.ndarray
    fatal_times: np.ndarray

    @property
    def true_positives(self) -> int:
        return int(self.matched.sum())

    @property
    def false_positives(self) -> int:
        return self.n_warnings - self.true_positives

    @property
    def covered_failures(self) -> int:
        return int(self.covered.sum())

    @property
    def false_negatives(self) -> int:
        return self.n_fatal - self.covered_failures

    @property
    def precision(self) -> float:
        """Correct predictions over all predictions made."""
        if self.n_warnings == 0:
            return 0.0
        return self.true_positives / self.n_warnings

    @property
    def recall(self) -> float:
        """Covered failures over all failures."""
        if self.n_fatal == 0:
            return 0.0
        return self.covered_failures / self.n_fatal


def extract_failures(
    log: EventLog, catalog: EventCatalog
) -> tuple[np.ndarray, list[str]]:
    """(times, codes) of the catalog-fatal events of a categorized log."""
    fatal = log.fatal(catalog)
    return fatal.timestamps, [e.entry_data for e in fatal]


def _check_record(times: np.ndarray, fatal_codes: Sequence[str] | None) -> None:
    if len(times) > 1 and np.any(np.diff(times) < 0):
        raise ValueError("fatal_times must be sorted ascending")
    if fatal_codes is not None and len(fatal_codes) != len(times):
        raise ValueError(
            f"fatal_codes length {len(fatal_codes)} != times length {len(times)}"
        )


def _rows_by_code(fatal_codes: Sequence[str]) -> dict[str, np.ndarray]:
    """Fatal code -> the (ascending) rows of the failures of that code."""
    rows: dict[str, list[int]] = {}
    for j, code in enumerate(fatal_codes):
        rows.setdefault(code, []).append(j)
    return {code: np.array(r, dtype=np.intp) for code, r in rows.items()}


_NO_ROWS = np.zeros(0, dtype=np.intp)
_TIME = attrgetter("time")
_DEADLINE = attrgetter("deadline")


def _hits(
    times: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which windows ``(start, end]`` hold one of the sorted ``times``, and
    which times some window holds.

    One ``searchsorted`` per side bounds every window's run of times;
    a difference array over the runs of the hit windows gives coverage.
    """
    lo = np.searchsorted(times, starts, side="right")
    hi = np.searchsorted(times, ends, side="right")
    hit = hi > lo
    n = len(times)
    depth = np.cumsum(
        np.bincount(lo[hit], minlength=n + 1)
        - np.bincount(hi[hit], minlength=n + 1)
    )
    return hit, depth[:n] > 0


def _match(
    warnings: Sequence[FailureWarning],
    times: np.ndarray,
    rows_of: dict[str, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(matched, covered) flags of ``warnings`` against the failures at
    ``times``.  ``rows_of`` (see :func:`_rows_by_code`) makes a typed
    warning match only failures of its predicted type; ``None`` lets any
    failure satisfy any warning."""
    starts = np.fromiter(map(_TIME, warnings), np.float64, len(warnings))
    ends = np.fromiter(map(_DEADLINE, warnings), np.float64, len(warnings))
    if rows_of is None:
        return _hits(times, starts, ends)
    by_type: dict[str, list[int]] = {}
    for i, w in enumerate(warnings):
        by_type.setdefault(w.predicted, []).append(i)
    matched = np.zeros(len(warnings), dtype=bool)
    covered = np.zeros(len(times), dtype=bool)
    for predicted, idx in by_type.items():
        rows = (
            slice(None) if predicted == ANY_FAILURE
            else rows_of.get(predicted, _NO_ROWS)
        )
        hit, cov = _hits(times[rows], starts[idx], ends[idx])
        matched[idx] = hit
        covered[rows] |= cov
    return matched, covered


def match_warnings(
    warnings: Sequence[FailureWarning],
    fatal_times: np.ndarray,
    fatal_codes: Sequence[str] | None = None,
) -> MatchResult:
    """Match warnings against the (sorted) fatal-event record.

    ``fatal_codes`` enables type-aware matching for warnings that predict
    a specific fatal type; when omitted, any failure inside the window
    satisfies any warning.
    """
    times = np.asarray(fatal_times, dtype=np.float64)
    _check_record(times, fatal_codes)
    rows_of = None if fatal_codes is None else _rows_by_code(fatal_codes)
    matched, covered = _match(warnings, times, rows_of)
    return MatchResult(
        n_warnings=len(warnings),
        n_fatal=len(times),
        matched=matched,
        covered=covered,
        fatal_times=times,
    )


@dataclass
class RuleScore:
    """Per-rule confusion counts, the reviser's input (Algorithm 1).

    Following the paper's metric definitions, the precision term counts
    *predictions* (warnings) while the recall term counts *failures*:
    ``tp``/``fp`` are matched/unmatched warnings, ``covered`` is the number
    of target failures the rule anticipated, and ``fn`` the target
    failures it missed (targets are the rule's predicted fatal type, or
    every failure for untyped rules).
    """

    tp: int = 0
    fp: int = 0
    covered: int = 0
    fn: int = 0

    @property
    def m1(self) -> float:
        """Precision term of Algorithm 1: TP / (TP + FP) over warnings."""
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def m2(self) -> float:
        """Recall term of Algorithm 1: covered / (covered + FN) failures."""
        denom = self.covered + self.fn
        return self.covered / denom if denom else 0.0

    @property
    def roc(self) -> float:
        """``sqrt(m1² + m2²)`` — distance from the ROC-space origin."""
        return float(np.hypot(self.m1, self.m2))


def score_firings(
    rules: Sequence[tuple[str, np.ndarray, np.ndarray]],
    fatal_times: np.ndarray,
    fatal_codes: Sequence[str],
) -> list[RuleScore]:
    """Per-rule confusion counts of warnings given as arrays.

    Each rule is ``(predicted, starts, ends)``: the times of its warnings
    and their deadlines.  A rule's ``tp``/``fp`` are its warnings that
    did/did not see a failure of the predicted type (any failure, for
    ``ANY_FAILURE`` rules) in ``(start, end]``, ``covered`` the target
    failures some warning saw, and ``fn`` the rest.  A rule without
    warnings scores zero throughout: it cannot demonstrate effectiveness.
    """
    times = np.asarray(fatal_times, dtype=np.float64)
    _check_record(times, fatal_codes)
    rows_of = _rows_by_code(fatal_codes)
    scores = []
    for predicted, starts, ends in rules:
        if not len(starts):
            scores.append(RuleScore())
            continue
        target = (
            times if predicted == ANY_FAILURE
            else times[rows_of.get(predicted, _NO_ROWS)]
        )
        hit, covered = _hits(target, starts, ends)
        tp = int(hit.sum())
        n_covered = int(covered.sum())
        scores.append(
            RuleScore(
                tp=tp,
                fp=len(starts) - tp,
                covered=n_covered,
                fn=len(target) - n_covered,
            )
        )
    return scores


def score_rules(
    warnings: Sequence[FailureWarning],
    fatal_times: np.ndarray,
    fatal_codes: Sequence[str],
) -> dict[tuple, RuleScore]:
    """Split a union-mode warning stream into per-rule confusion counts.

    Warnings are grouped by ``rule_key`` (a key fixes the prediction, as
    it does for a real rule) and each group is scored by
    :func:`score_firings`.
    """
    by_rule: dict[tuple, list[FailureWarning]] = {}
    for w in warnings:
        by_rule.setdefault(w.rule_key, []).append(w)
    rules = [
        (
            group[0].predicted,
            np.fromiter(map(_TIME, group), np.float64, len(group)),
            np.fromiter(map(_DEADLINE, group), np.float64, len(group)),
        )
        for group in by_rule.values()
    ]
    return dict(zip(by_rule, score_firings(rules, fatal_times, fatal_codes)))
