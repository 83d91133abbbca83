"""End-to-end integration tests: raw log → preprocessing → dynamic
meta-learning → evaluation, exercising the whole Figure 1 pipeline."""

import pytest

from repro import (
    DynamicMetaLearningFramework,
    FrameworkConfig,
    GeneratorConfig,
    PreprocessingPipeline,
    SDSC_PROFILE,
    generate_log,
    static_initial,
)
from repro.evaluation import mean_accuracy


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def trace(self):
        # full calibrated volume; short enough to keep the raw log small
        return generate_log(
            SDSC_PROFILE,
            GeneratorConfig(scale=1.0, weeks=36, seed=99, duplicates=True),
        )

    def test_raw_to_predictions(self, trace):
        """The paper's full loop, starting from the duplicated raw dump."""
        pipeline = PreprocessingPipeline(trace.catalog)
        pre = pipeline.run(trace.raw)
        assert pre.compression_rate > 0.9

        config = FrameworkConfig(initial_train_weeks=20, retrain_weeks=4)
        framework = DynamicMetaLearningFramework(config, catalog=trace.catalog)
        result = framework.run(pre.clean)
        assert len(result.warnings) > 0
        assert result.overall.precision > 0.3
        assert result.overall.recall > 0.15

    def test_preprocessed_run_remains_effective(self, trace):
        """Filtering coalesces some same-type burst failures (as it did in
        the paper's cleaning), which weakens the statistical signal — but
        the framework must still predict usefully on the filtered log."""
        config = FrameworkConfig(initial_train_weeks=20)
        pre = PreprocessingPipeline(trace.catalog).run(trace.raw)
        from_raw = DynamicMetaLearningFramework(
            config, catalog=trace.catalog
        ).run(pre.clean)
        from_truth = DynamicMetaLearningFramework(
            config, catalog=trace.catalog
        ).run(trace.clean)
        p1, r1 = mean_accuracy(from_raw.weekly)
        p2, r2 = mean_accuracy(from_truth.weekly)
        assert p1 > 0.3 and r1 > 0.15
        assert p2 > 0.3 and r2 > 0.15


class TestPaperHeadlines:
    """The paper's headline claims, on the mid-size SDSC trace."""

    @pytest.fixture(scope="class")
    def log(self, mid_trace):
        return mid_trace.clean

    def test_dynamic_beats_static_late(self, mid_trace, log):
        dyn = DynamicMetaLearningFramework(
            FrameworkConfig(initial_train_weeks=20), catalog=mid_trace.catalog
        ).run(log)
        sta = DynamicMetaLearningFramework(
            FrameworkConfig(initial_train_weeks=20, policy=static_initial(5)),
            catalog=mid_trace.catalog,
        ).run(log)
        # over the last weeks of the trace, dynamic retraining wins
        tail_dyn = mean_accuracy(dyn.weekly[-10:])
        tail_sta = mean_accuracy(sta.weekly[-10:])
        assert tail_dyn[1] >= tail_sta[1] - 0.05  # recall
        assert tail_dyn[0] >= tail_sta[0] - 0.05  # precision

    def test_prediction_after_short_training(self, mid_trace, log):
        """The framework gives usable predictions after ~8 weeks of data
        (the paper: >43 % of failures captured after only two weeks)."""
        result = DynamicMetaLearningFramework(
            FrameworkConfig(initial_train_weeks=8), catalog=mid_trace.catalog
        ).run(log, end_week=20)
        _, recall = mean_accuracy(result.weekly)
        assert recall > 0.3

    def test_runtime_overhead_headline(self, mid_trace, log):
        """Online rule matching is far below the paper's 1-minute bound."""
        import time

        from repro.core.predictor import Predictor
        from repro.core.session import SessionCore
        from repro.utils.timeutil import WEEK_SECONDS

        core = SessionCore(catalog=mid_trace.catalog, origin=log.origin)
        for event in log.slice_weeks(0, 26):
            core.ingest(event)
        core.cross_boundaries(log.origin + 26 * WEEK_SECONDS)
        [event] = core.retrains
        predictor = Predictor(core.repository.rules(), 300.0, mid_trace.catalog)
        week = log.week(27)
        predictor.state.clock = float(week.timestamps[0]) - 1.0
        t0 = time.perf_counter()
        predictor.replay(week)
        assert time.perf_counter() - t0 < 60.0
        assert event.n_kept > 0
