"""Unit tests for the meta-learner."""

import pytest

from repro.core.meta import MetaLearner
from repro.learners.base import BaseLearner
from repro.learners.rules import StatisticalRule


class _CountingLearner(BaseLearner):
    name = "counting"

    def __init__(self, catalog=None):
        super().__init__(catalog)
        self.calls = 0

    def train(self, log, window):
        self.calls += 1
        return [StatisticalRule(k=9, window=window, probability=0.99)]


class TestConstruction:
    def test_by_name(self, catalog):
        ml = MetaLearner(("association", "statistical"), catalog=catalog)
        assert ml.learner_names == ["association", "statistical"]

    def test_by_instance(self, catalog):
        learner = _CountingLearner(catalog)
        ml = MetaLearner([learner], catalog=catalog)
        assert ml.learners[0] is learner

    def test_mixed(self, catalog):
        ml = MetaLearner(["association", _CountingLearner(catalog)], catalog=catalog)
        assert ml.learner_names == ["association", "counting"]

    def test_learner_params_forwarded(self, catalog):
        ml = MetaLearner(
            ("association",),
            catalog=catalog,
            learner_params={"association": {"min_support": 0.5}},
        )
        assert ml.learners[0].min_support == 0.5

    def test_empty_rejected(self, catalog):
        with pytest.raises(ValueError, match="at least one"):
            MetaLearner((), catalog=catalog)

    def test_duplicate_names_rejected(self, catalog):
        with pytest.raises(ValueError, match="duplicate"):
            MetaLearner(
                [_CountingLearner(catalog), _CountingLearner(catalog)],
                catalog=catalog,
            )


class TestTraining:
    def test_all_learners_invoked(self, catalog, mid_trace):
        learner = _CountingLearner(catalog)
        ml = MetaLearner([learner], catalog=catalog)
        out = ml.train(mid_trace.clean.slice_weeks(0, 4), 300.0, week=4)
        assert learner.calls == 1
        assert out.week == 4
        assert out.rules_by_learner["counting"]

    def test_records_deduplicate_by_key(self, catalog, mid_trace):
        # two learners emitting the same rule key produce one record
        a, b = _CountingLearner(catalog), _CountingLearner(catalog)
        b.name = "counting2"
        ml = MetaLearner([a, b], catalog=catalog)
        out = ml.train(mid_trace.clean.slice_weeks(0, 2), 300.0)
        assert out.n_rules == 1
        assert len(out.records()) == 1

    def test_records_carry_provenance(self, catalog, mid_trace):
        ml = MetaLearner(("statistical",), catalog=catalog)
        out = ml.train(mid_trace.clean.slice_weeks(0, 8), 300.0, week=8)
        for record in out.records():
            assert record.learner == "statistical"
            assert record.trained_at_week == 8

    def test_invalid_window(self, catalog, mid_trace):
        ml = MetaLearner(catalog=catalog)
        with pytest.raises(ValueError, match="window"):
            ml.train(mid_trace.clean, 0.0)

    def test_full_ensemble_produces_all_kinds(self, catalog, mid_trace):
        ml = MetaLearner(catalog=catalog)
        out = ml.train(mid_trace.clean.slice_weeks(0, 26), 300.0)
        assert out.rules_by_learner["association"]
        assert out.rules_by_learner["statistical"]
        assert out.rules_by_learner["distribution"]

    def test_learner_bugs_still_propagate(self, catalog):
        class _Bug(BaseLearner):
            name = "bug"

            def train(self, log, window):
                raise ZeroDivisionError("task bug")

        from tests.conftest import make_log

        meta = MetaLearner([_Bug(catalog)], catalog=catalog)
        with pytest.raises(ZeroDivisionError):
            meta.train(make_log([(10.0, "KERNEL-N-000", {})]), 300.0)
