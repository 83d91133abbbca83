"""End-to-end equivalence of the vectorized retraining kernels.

A whole framework run, once with the program's kernels and once with the
one-at-a-time oracles of :mod:`tests.oracles` patched in, on fixed SDSC
and ANL traces: every retraining must mine the same candidates, keep the
same rules with the same training-set scores, and the runs must raise
the same warnings.
"""

import pytest

from repro.core.framework import DynamicMetaLearningFramework, FrameworkConfig
from repro.core.reviser import Reviser
from repro.raslog.generator import GeneratorConfig, generate_log
from repro.raslog.profiles import ANL_PROFILE, SDSC_PROFILE
from tests import oracles

TRACES = {
    "SDSC": (SDSC_PROFILE, GeneratorConfig(scale=1.0, weeks=20, seed=11)),
    "ANL": (ANL_PROFILE, GeneratorConfig(scale=0.3, weeks=20, seed=3)),
}


def _run(trace):
    """(run result, per retraining: the kept records' scores)."""
    kept = []
    revise = Reviser.revise

    def spy(self, records, log, window):
        result = revise(self, records, log, window)
        kept.append([(r.key, r.tp, r.fp, r.fn, r.roc) for r in result.kept])
        return result

    config = FrameworkConfig(initial_train_weeks=8, retrain_weeks=4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Reviser, "revise", spy)
        run = DynamicMetaLearningFramework(config, catalog=trace.catalog).run(
            trace.clean
        )
    return run, kept


@pytest.fixture(scope="module", params=sorted(TRACES))
def runs(request):
    profile, config = TRACES[request.param]
    trace = generate_log(profile, config)
    fast = _run(trace)
    with oracles.patched():
        slow = _run(trace)
    return fast, slow


def _retrains(run):
    return [
        (r.week, r.train_span, r.n_candidates, r.n_kept, r.churn)
        for r in run.retrains
    ]


class TestRetrainEquivalence:
    def test_same_retrain_events(self, runs):
        (fast, _), (slow, _) = runs
        assert len(fast.retrains) >= 3
        assert _retrains(fast) == _retrains(slow)

    def test_same_kept_records_and_scores(self, runs):
        (_, fast), (_, slow) = runs
        assert any(fast)
        assert fast == slow

    def test_same_warnings(self, runs):
        (fast, _), (slow, _) = runs
        assert fast.warnings
        assert fast.warnings == slow.warnings
