"""Benchmark harness conventions.

Each bench module regenerates one paper table/figure (see the DESIGN.md
experiment index): it runs the experiment driver once under
``benchmark.pedantic`` (these are multi-second end-to-end experiments, not
micro-benchmarks), asserts the *shape* claims the paper makes, and prints
the regenerated rows so they can be eyeballed against the paper.

Run with::

    pytest benchmarks/ --benchmark-only

``--benchmark-json`` writes each run's wall-clock time together with
the per-stage metrics :func:`run_once` attaches to it.
"""

from __future__ import annotations

import pytest

#: One shared seed so all figures describe the same pair of traces.
SEED = 2008


@pytest.fixture
def show():
    """Print a TableResult (or text) past pytest's capture."""

    def _show(*tables) -> None:
        import sys

        for table in tables:
            text = table if isinstance(table, str) else table.render()
            sys.stdout.write("\n" + text + "\n")

    return _show


def run_once(benchmark, fn, *args, **kwargs):
    """Time one end-to-end run of an experiment driver.

    The run executes under a fresh :class:`repro.observe.MetricsRegistry`,
    and its snapshot — per-stage spans (preprocess, per-learner training,
    revision, predictor matching) plus throughput counters — is attached
    to the benchmark's ``extra_info``, so ``--benchmark-json`` artifacts
    carry the per-stage breakdown alongside the wall-clock total.
    """
    from repro.observe import MetricsRegistry, use_registry

    registry = MetricsRegistry()

    def instrumented(*a, **k):
        with use_registry(registry):
            return fn(*a, **k)

    result = benchmark.pedantic(
        instrumented, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
    benchmark.extra_info["metrics"] = registry.snapshot()
    return result
