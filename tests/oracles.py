"""Reference implementations of the retraining kernels, one item, window
or warning at a time.

The production kernels are vectorized: Apriori counts with transaction
bitmasks, the association learner bounds its windows with two array
``searchsorted`` calls, rule scoring matches each rule's warnings in one
pass, and the reviser scores its rules from the training log's columns.
These are the direct loops they replaced, kept as oracles: property
tests compare the kernels with them on random inputs, and
:func:`patched` swaps them all into the program so a whole session can
be run both ways.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable, Iterable, Sequence
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from repro.alerts import FailureWarning
from repro.core.knowledge import RuleRecord
from repro.core.predictor import Predictor
from repro.core.reviser import Reviser
from repro.evaluation.matching import MatchResult, RuleScore
from repro.learners.apriori import ItemsetCounts
from repro.learners.association import AssociationRuleLearner
from repro.learners.rules import ANY_FAILURE
from repro.raslog.catalog import EventCatalog
from repro.raslog.store import EventLog

# -- Apriori: level-wise, counted by subset tests ------------------------


def _candidates(
    frequent_k: list[frozenset], frequent_set: set[frozenset], k: int
) -> list[frozenset]:
    sorted_items = sorted(tuple(sorted(s)) for s in frequent_k)
    out: list[frozenset] = []
    n = len(sorted_items)
    for i in range(n):
        a = sorted_items[i]
        for j in range(i + 1, n):
            b = sorted_items[j]
            if a[: k - 1] != b[: k - 1]:
                break
            candidate = frozenset(a) | frozenset(b)
            if all(
                frozenset(sub) in frequent_set
                for sub in combinations(sorted(candidate), k)
            ):
                out.append(candidate)
    return out


def apriori(
    transactions: Sequence[Iterable[Hashable]],
    min_support: float,
    max_len: int | None = None,
) -> ItemsetCounts:
    """Apriori that counts each candidate by a subset test against every
    transaction."""
    tx = [frozenset(t) for t in transactions]
    n = len(tx)
    result: dict[frozenset, int] = {}
    if n == 0:
        return ItemsetCounts(counts=result, n_transactions=0)
    min_count = min_support * n
    item_counts: dict[Hashable, int] = defaultdict(int)
    for t in tx:
        for item in t:
            item_counts[item] += 1
    frequent = [
        frozenset((item,)) for item, c in item_counts.items() if c >= min_count
    ]
    for s in frequent:
        (item,) = s
        result[s] = item_counts[item]
    k = 1
    while frequent and (max_len is None or k < max_len):
        candidates = _candidates(frequent, set(frequent), k)
        if not candidates:
            break
        counts: dict[frozenset, int] = defaultdict(int)
        for t in tx:
            for c in candidates:
                if c <= t:
                    counts[c] += 1
        frequent = [c for c in candidates if counts[c] >= min_count]
        for c in frequent:
            result[c] = counts[c]
        k += 1
    return ItemsetCounts(counts=result, n_transactions=n)


# -- Fatal split and association transactions ----------------------------


def fatal(log: EventLog, catalog: EventCatalog) -> EventLog:
    return log.filter(
        lambda e: e.entry_data in catalog and catalog.is_fatal_code(e.entry_data)
    )


def nonfatal(log: EventLog, catalog: EventCatalog) -> EventLog:
    return log.filter(
        lambda e: not (
            e.entry_data in catalog and catalog.is_fatal_code(e.entry_data)
        )
    )


def split_fatal(log: EventLog, catalog: EventCatalog) -> tuple[EventLog, EventLog]:
    return fatal(log, catalog), nonfatal(log, catalog)


def transactions(
    learner: AssociationRuleLearner, log: EventLog, window: float
) -> list[frozenset[str]]:
    """One event set per fatal event, each window bounded by its own
    scalar ``searchsorted`` calls."""
    fatal_log = fatal(log, learner.catalog)
    nonfatal_log = nonfatal(log, learner.catalog)
    nf_times = nonfatal_log.timestamps
    out: list[frozenset[str]] = []
    for event in fatal_log:
        lo = int(np.searchsorted(nf_times, event.timestamp - window, "left"))
        hi = int(np.searchsorted(nf_times, event.timestamp, "left"))
        if hi <= lo:
            continue
        items = {nonfatal_log[i].entry_data for i in range(lo, hi)}
        items.add(event.entry_data)
        out.append(frozenset(items))
    return out


# -- Matching and rule scoring, one warning at a time ---------------------


def match_warnings(
    warnings: Sequence[FailureWarning],
    fatal_times: np.ndarray,
    fatal_codes: Sequence[str] | None = None,
) -> MatchResult:
    times = np.asarray(fatal_times, dtype=np.float64)
    matched = np.zeros(len(warnings), dtype=bool)
    covered = np.zeros(len(times), dtype=bool)
    for i, w in enumerate(warnings):
        lo = int(np.searchsorted(times, w.time, side="right"))
        hi = int(np.searchsorted(times, w.deadline, side="right"))
        if hi <= lo:
            continue
        if w.predicted == ANY_FAILURE or fatal_codes is None:
            matched[i] = True
            covered[lo:hi] = True
        else:
            hit = False
            for j in range(lo, hi):
                if fatal_codes[j] == w.predicted:
                    covered[j] = True
                    hit = True
            matched[i] = hit
    return MatchResult(
        n_warnings=len(warnings),
        n_fatal=len(times),
        matched=matched,
        covered=covered,
        fatal_times=times,
    )


def score_rules(
    warnings: Sequence[FailureWarning],
    fatal_times: np.ndarray,
    fatal_codes: Sequence[str],
) -> dict[tuple, RuleScore]:
    by_rule: dict[tuple, list[FailureWarning]] = {}
    for w in warnings:
        by_rule.setdefault(w.rule_key, []).append(w)
    times = np.asarray(fatal_times, dtype=np.float64)
    codes = list(fatal_codes)
    scores: dict[tuple, RuleScore] = {}
    for key, group in by_rule.items():
        result = match_warnings(group, times, codes)
        predicted = group[0].predicted
        if predicted == ANY_FAILURE:
            n_target = len(times)
            covered = result.covered_failures
        else:
            target = np.fromiter(
                (c == predicted for c in codes), dtype=bool, count=len(codes)
            )
            n_target = int(target.sum())
            covered = int((result.covered & target).sum())
        scores[key] = RuleScore(
            tp=result.true_positives,
            fp=result.false_positives,
            covered=covered,
            fn=n_target - covered,
        )
    return scores


# -- Replay through the live entry point ----------------------------------


def replay(
    predictor: Predictor, log: EventLog, tick: float | None = 60.0
) -> list:
    """A replay that feeds each event through :meth:`Predictor.feed`."""
    warnings: list = []
    for event in log:
        warnings.extend(predictor.feed(event, tick))
    return warnings


def reviser_score(
    reviser: Reviser, records: list[RuleRecord], log: EventLog, window: float
) -> dict[tuple, RuleScore]:
    """:meth:`Reviser.score` as a single union-mode predictor pass over
    the training log: every rule fires independently, and each rule's
    counts come from its own warnings."""
    predictor = Predictor(
        [r.rule for r in records],
        window=window,
        catalog=reviser.catalog,
        ensemble="union",
        dist_horizon_cap=reviser.dist_horizon_cap,
    )
    warnings = replay(predictor, log, tick=reviser.tick)
    failures = fatal(log, reviser.catalog)
    scores = score_rules(
        warnings, failures.timestamps, [e.entry_data for e in failures]
    )
    # A rule that never fired scores zero throughout.
    for record in records:
        scores.setdefault(record.key, RuleScore())
    return scores


@contextmanager
def patched():
    """Run the program with every oracle above in place of the kernel it
    checks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.learners.association.apriori", apriori)
        mp.setattr(AssociationRuleLearner, "transactions", transactions)
        mp.setattr(EventLog, "fatal", fatal)
        mp.setattr(EventLog, "nonfatal", nonfatal)
        mp.setattr(EventLog, "split_fatal", split_fatal)
        mp.setattr(Reviser, "score", reviser_score)
        mp.setattr(Predictor, "replay", replay)
        yield
