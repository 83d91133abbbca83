"""Unit and property tests for the Apriori miner, including a brute-force
cross-check."""

from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learners.apriori import apriori, association_rules_from


def brute_force(transactions, min_support, max_len=None):
    """Reference implementation: enumerate every candidate itemset."""
    tx = [frozenset(t) for t in transactions]
    items = sorted(set(chain.from_iterable(tx)))
    n = len(tx)
    out = {}
    top = len(items) if max_len is None else min(max_len, len(items))
    for k in range(1, top + 1):
        for combo in combinations(items, k):
            s = frozenset(combo)
            count = sum(1 for t in tx if s <= t)
            if count >= min_support * n and count > 0:
                out[s] = count
    return out


class TestAprioriBasics:
    def test_classic_example(self):
        tx = [
            {"bread", "milk"},
            {"bread", "diapers", "beer", "eggs"},
            {"milk", "diapers", "beer", "cola"},
            {"bread", "milk", "diapers", "beer"},
            {"bread", "milk", "diapers", "cola"},
        ]
        result = apriori(tx, min_support=0.6)
        assert result.counts[frozenset({"bread"})] == 4
        assert result.counts[frozenset({"milk", "diapers"})] == 3
        assert frozenset({"beer", "milk"}) not in result.counts  # support 0.4

    def test_support_accessor(self):
        result = apriori([{"a"}, {"a", "b"}], min_support=0.5)
        assert result.support({"a"}) == 1.0
        assert result.support({"a", "b"}) == 0.5
        assert result.support({"zzz"}) == 0.0

    def test_empty_transactions(self):
        result = apriori([], min_support=0.5)
        assert len(result) == 0
        assert result.support({"a"}) == 0.0

    def test_max_len_limits_size(self):
        tx = [{"a", "b", "c"}] * 4
        result = apriori(tx, min_support=0.5, max_len=2)
        assert all(len(s) <= 2 for s in result.counts)
        assert frozenset({"a", "b"}) in result.counts

    def test_min_support_validation(self):
        with pytest.raises(ValueError, match="min_support"):
            apriori([{"a"}], min_support=0.0)

    def test_max_len_validation(self):
        with pytest.raises(ValueError, match="max_len"):
            apriori([{"a"}], min_support=0.5, max_len=0)

    def test_contains(self):
        result = apriori([{"a", "b"}], min_support=0.5)
        assert {"a"} in result
        assert {"c"} not in result

    def test_downward_closure(self):
        tx = [{"a", "b", "c"}, {"a", "b"}, {"a", "c"}, {"b", "c"}]
        result = apriori(tx, min_support=0.25)
        for itemset in result.counts:
            for k in range(1, len(itemset)):
                for sub in combinations(sorted(itemset), k):
                    assert frozenset(sub) in result.counts


@st.composite
def transaction_sets(draw):
    n_items = draw(st.integers(min_value=1, max_value=6))
    items = [f"i{k}" for k in range(n_items)]
    # Past 64 transactions the masks span several machine words.
    n_tx = draw(st.integers(min_value=1, max_value=200))
    return [
        frozenset(draw(st.sets(st.sampled_from(items), min_size=1, max_size=n_items)))
        for _ in range(n_tx)
    ]


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(transaction_sets(), st.floats(min_value=0.05, max_value=1.0))
    def test_matches_reference(self, tx, min_support):
        fast = apriori(tx, min_support)
        slow = brute_force(tx, min_support)
        assert fast.counts == slow

    @settings(max_examples=30, deadline=None)
    @given(transaction_sets(), st.integers(min_value=1, max_value=3))
    def test_matches_reference_with_max_len(self, tx, max_len):
        fast = apriori(tx, 0.1, max_len=max_len)
        slow = brute_force(tx, 0.1, max_len=max_len)
        assert fast.counts == slow

    @settings(max_examples=40, deadline=None)
    @given(transaction_sets(), st.data())
    def test_min_support_on_an_itemset_count(self, tx, data):
        counts = sorted(set(brute_force(tx, 1 / len(tx)).values()))
        min_support = data.draw(st.sampled_from(counts)) / len(tx)
        assert apriori(tx, min_support).counts == brute_force(tx, min_support)

    def test_threshold_count_is_frequent_across_words(self):
        # 128 transactions: min_support 0.25 is exactly 32 of them, and
        # the pairs' transactions straddle the 64-bit word boundary.
        tx = [{"x"} for _ in range(128)]
        for i in range(50, 82):  # 32 transactions hold {a, b}
            tx[i] = {"a", "b"}
        for i in range(82, 113):  # 31 hold {a, c}
            tx[i] = {"a", "c"}
        tx[113] = {"a"}
        tx[114] = {"c"}  # c alone is frequent: 32
        result = apriori(tx, min_support=0.25)
        assert result.counts[frozenset({"a", "b"})] == 32
        assert result.counts[frozenset({"c"})] == 32
        assert frozenset({"a", "c"}) not in result.counts
        assert result.counts[frozenset({"a"})] == 64
        assert result.counts == brute_force(tx, 0.25)


class TestRuleGeneration:
    def test_targeted_rules(self):
        tx = [
            {"w1", "w2", "FATAL"},
            {"w1", "w2", "FATAL"},
            {"w1", "w3"},
            {"w2", "FATAL"},
        ]
        itemsets = apriori(tx, min_support=0.25)
        rules = association_rules_from(itemsets, {"FATAL"}, min_confidence=0.5)
        as_dict = {(frozenset(a), c): (s, conf) for a, c, s, conf in rules}
        support, confidence = as_dict[(frozenset({"w2"}), "FATAL")]
        assert confidence == pytest.approx(1.0)
        assert support == pytest.approx(0.75)
        # w1 -> FATAL has confidence 2/3
        _, conf_w1 = as_dict[(frozenset({"w1"}), "FATAL")]
        assert conf_w1 == pytest.approx(2 / 3)

    def test_consequent_only_itemsets_excluded(self):
        tx = [{"FATAL"}, {"FATAL"}]
        itemsets = apriori(tx, min_support=0.5)
        rules = association_rules_from(itemsets, {"FATAL"}, min_confidence=0.1)
        assert rules == []

    def test_multi_consequent_itemsets_excluded(self):
        tx = [{"w", "F1", "F2"}] * 3
        itemsets = apriori(tx, min_support=0.5)
        rules = association_rules_from(itemsets, {"F1", "F2"}, 0.1)
        # only single-consequent itemsets produce rules
        assert all(c in ("F1", "F2") for _, c, _, _ in rules)
        assert all(not (a & {"F1", "F2"}) for a, _, _, _ in rules)

    def test_min_confidence_filters(self):
        tx = [{"w", "FATAL"}, {"w"}, {"w"}, {"w"}]
        itemsets = apriori(tx, min_support=0.25)
        none = association_rules_from(itemsets, {"FATAL"}, min_confidence=0.5)
        some = association_rules_from(itemsets, {"FATAL"}, min_confidence=0.2)
        assert none == []
        assert len(some) == 1

    def test_validation(self):
        itemsets = apriori([{"a"}], 0.5)
        with pytest.raises(ValueError, match="min_confidence"):
            association_rules_from(itemsets, {"a"}, 0.0)
