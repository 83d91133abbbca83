"""Unit tests for the learner registry and the extension point."""

import pytest

from repro.learners.base import BaseLearner
from repro.learners.registry import (
    DEFAULT_LEARNERS,
    available_learners,
    create_learner,
    register_learner,
)


class TestDefaults:
    def test_paper_order(self):
        assert DEFAULT_LEARNERS == ("association", "statistical", "distribution")

    def test_all_registered(self):
        for name in DEFAULT_LEARNERS:
            assert name in available_learners()

    def test_create_builds_correct_types(self, catalog):
        from repro.learners.association import AssociationRuleLearner

        learner = create_learner("association", catalog=catalog)
        assert isinstance(learner, AssociationRuleLearner)
        assert learner.catalog is catalog

    def test_create_passes_kwargs(self, catalog):
        learner = create_learner("association", catalog=catalog, min_support=0.2)
        assert learner.min_support == 0.2

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown learner"):
            create_learner("neural-net")


class _ToyLearner(BaseLearner):
    name = "toy"

    def train(self, log, window):
        return []


class TestRegistration:
    def test_register_and_create(self, catalog):
        register_learner("toy-test", _ToyLearner, overwrite=True)
        learner = create_learner("toy-test", catalog=catalog)
        assert isinstance(learner, _ToyLearner)

    def test_duplicate_rejected(self):
        register_learner("toy-dup", _ToyLearner, overwrite=True)
        with pytest.raises(ValueError, match="already registered"):
            register_learner("toy-dup", _ToyLearner)

    def test_overwrite_allowed(self):
        register_learner("toy-ow", _ToyLearner, overwrite=True)
        register_learner("toy-ow", _ToyLearner, overwrite=True)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_learner("", _ToyLearner)


class TestBaseLearnerHelpers:
    def test_split_fatal(self, catalog, log_factory):
        from repro.raslog.events import Severity

        log = log_factory(
            [
                (1.0, "KERNEL-F-000", {"severity": Severity.FATAL}),
                (2.0, "KERNEL-N-000", {"severity": Severity.INFO}),
            ]
        )
        learner = _ToyLearner(catalog)
        fatal, nonfatal = learner.split_fatal(log)
        assert len(fatal) == 1 and len(nonfatal) == 1

    def test_repr(self, catalog):
        assert "toy" in repr(_ToyLearner(catalog))

    def test_default_catalog_used(self):
        from repro.raslog.catalog import default_catalog

        assert _ToyLearner().catalog is default_catalog()
