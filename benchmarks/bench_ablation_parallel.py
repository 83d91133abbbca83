"""Ablation — serial vs parallel rule generation.

The paper notes rule generation can run in parallel while the machine
operates.  Base learners are independent, so the meta-learner fans their
training out through an executor; this bench compares backends on a large
training set and checks they produce identical rule sets.
"""

import time

from conftest import SEED, run_once

from repro.core.meta import MetaLearner
from repro.experiments.config import make_log
from repro.parallel.executor import SerialExecutor, ThreadExecutor
from repro.utils.tables import TableResult


def _run_backends():
    syn = make_log("SDSC", seed=SEED, weeks=104)
    train_log = syn.clean.slice_weeks(0, 104)
    timings = {}
    outputs = {}
    for name, executor in (
        ("serial", SerialExecutor()),
        ("thread", ThreadExecutor(max_workers=3)),
    ):
        meta = MetaLearner(catalog=syn.catalog, executor=executor)
        t0 = time.perf_counter()
        outputs[name] = meta.train(train_log, 300.0)
        timings[name] = time.perf_counter() - t0
        executor.close()
    return timings, outputs


def test_ablation_parallel_rule_generation(benchmark, show):
    timings, outputs = run_once(benchmark, _run_backends)

    table = TableResult(
        title="Ablation: rule-generation executors (SDSC, 104 weeks)",
        columns=["executor", "seconds", "n_rules"],
    )
    for name, seconds in timings.items():
        table.add_row(
            executor=name,
            seconds=round(seconds, 3),
            n_rules=outputs[name].n_rules,
        )

    # identical rule sets regardless of backend
    keys = {
        name: {
            r.key
            for rules in out.rules_by_learner.values()
            for r in rules
        }
        for name, out in outputs.items()
    }
    assert keys["serial"] == keys["thread"]
    # no pathological slowdown from the parallel path
    assert timings["thread"] < 10 * max(timings["serial"], 1e-3)

    show(table)
