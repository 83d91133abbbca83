"""Level-wise Apriori frequent-itemset mining.

A from-scratch implementation of the classic algorithm (Agrawal & Srikant)
used by the association-rule learner.  Items are arbitrary hashables.
Each level joins the frequent k-itemsets that share their first k-1
(sorted) items into (k+1)-candidates.

Counting is vertical: each item keeps the ids of the transactions that
contain it as the set bits of one Python int, so the transactions holding
an itemset are the AND of its items' masks and its count is that AND's
``bit_count()``.  A (k+1)-candidate's mask is the AND of the masks of the
two k-itemsets it joins, so each candidate costs one AND over
``n_transactions / 64`` machine words instead of a subset test against
every transaction.  The classic subset prune is skipped: a candidate
never counts more than any of its subsets, so one with an infrequent
subset fails the support test anyway, and the AND is cheaper than the
k-1 subset lookups that would have rejected it first.

Failure prediction mines *rare* patterns, so ``min_support`` is typically
very low (the paper uses 0.01) and the practical guard is ``max_len`` on
itemset size rather than support pruning alone.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ItemsetCounts:
    """Frequent itemsets with absolute counts over ``n_transactions``."""

    counts: dict[frozenset, int]
    n_transactions: int

    def support(self, itemset: Iterable[Hashable]) -> float:
        key = frozenset(itemset)
        if self.n_transactions == 0:
            return 0.0
        return self.counts.get(key, 0) / self.n_transactions

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, itemset: Iterable[Hashable]) -> bool:
        return frozenset(itemset) in self.counts


def _candidates(
    frequent_k: Iterable[frozenset], k: int
) -> list[tuple[frozenset, frozenset, frozenset]]:
    """Join step: (k+1)-candidates from frequent k-itemsets that share
    their first k-1 items, each with the two k-itemsets it joins."""
    # Canonical sorted-tuple form for prefix joining.
    sorted_items = sorted((tuple(sorted(s)), s) for s in frequent_k)
    out: list[tuple[frozenset, frozenset, frozenset]] = []
    n = len(sorted_items)
    for i in range(n):
        a, set_a = sorted_items[i]
        for j in range(i + 1, n):
            b, set_b = sorted_items[j]
            if a[: k - 1] != b[: k - 1]:
                break  # sorted order: no further shared prefix
            out.append((set_a | set_b, set_a, set_b))
    return out


def apriori(
    transactions: Sequence[Iterable[Hashable]],
    min_support: float,
    max_len: int | None = None,
) -> ItemsetCounts:
    """All itemsets with support ≥ ``min_support`` (and size ≤ ``max_len``).

    Support is the fraction of transactions containing the itemset.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError(f"min_support must lie in (0, 1], got {min_support}")
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")

    # Vertical layout: item -> bitmask of the transactions holding it.
    masks: dict[Hashable, int] = {}
    n = 0
    for t in transactions:
        bit = 1 << n
        for item in frozenset(t):
            masks[item] = masks.get(item, 0) | bit
        n += 1
    result: dict[frozenset, int] = {}
    if n == 0:
        return ItemsetCounts(counts=result, n_transactions=0)
    min_count = min_support * n

    # L1; ``tids`` holds the transaction mask of each frequent itemset.
    tids: dict[frozenset, int] = {}
    for item, mask in masks.items():
        count = mask.bit_count()
        if count >= min_count:
            s = frozenset((item,))
            tids[s] = mask
            result[s] = count

    k = 1
    while tids and (max_len is None or k < max_len):
        candidates = _candidates(tids, k)
        if not candidates:
            break
        level: dict[frozenset, int] = {}
        for c, a, b in candidates:
            mask = tids[a] & tids[b]
            count = mask.bit_count()
            if count >= min_count:
                level[c] = mask
                result[c] = count
        tids = level
        k += 1

    return ItemsetCounts(counts=result, n_transactions=n)


def association_rules_from(
    itemsets: ItemsetCounts,
    consequents: Iterable[Hashable],
    min_confidence: float,
) -> list[tuple[frozenset, Hashable, float, float]]:
    """Rules ``antecedent → consequent`` targeted at given consequents.

    Returns ``(antecedent, consequent, support, confidence)`` tuples for
    every frequent itemset containing exactly one consequent item, where
    ``confidence = support(itemset) / support(antecedent)``.  Antecedent
    supports of frequent itemsets are always available by the Apriori
    downward-closure property.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ValueError(
            f"min_confidence must lie in (0, 1], got {min_confidence}"
        )
    targets = set(consequents)
    out: list[tuple[frozenset, Hashable, float, float]] = []
    for itemset, count in itemsets.counts.items():
        inside = itemset & targets
        if len(inside) != 1:
            continue
        (consequent,) = inside
        antecedent = itemset - {consequent}
        if not antecedent:
            continue
        ante_count = itemsets.counts.get(antecedent)
        if ante_count is None:  # pragma: no cover - guaranteed by closure
            continue
        confidence = count / ante_count
        if confidence >= min_confidence:
            support = count / itemsets.n_transactions
            out.append((antecedent, consequent, support, confidence))
    return out
