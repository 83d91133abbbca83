"""Bench T5 — regenerate Table 5 (operation overhead vs training size).

Absolute times are hardware-bound (the paper used a 1.6 GHz Pentium); the
reproduced shape: rule-generation cost grows with the training set,
association-rule mining dominates generation, and the online rule-matching
cost is trivial (the paper: < 1 minute; here: milliseconds) and roughly
independent of training size.
"""

from conftest import SEED, run_once

from repro.experiments import table5


def test_table5_operation_overhead(benchmark, show):
    table, records = run_once(
        benchmark,
        table5.run,
        system="SDSC",
        scale=1.0,
        seed=SEED,
        months=(3, 6, 12, 18, 24, 30),
        matching_weeks=4,
    )

    asso = [r.generation["association"] for r in records]
    # growth with training size (ignore the warmup-contaminated first row)
    assert asso[-1] > asso[1]
    events = [r.n_training_events for r in records]
    assert events == sorted(events)
    for r in records[1:]:
        # association mining dominates the other per-learner costs
        assert r.generation["association"] >= max(
            r.generation["statistical"], r.generation["distribution"]
        )
        # matching stays trivially cheap
        assert r.rule_matching < 1.0

    show(table)
