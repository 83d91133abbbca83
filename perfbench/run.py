"""Run one benchmark workload and print its metrics as one JSON line.

From the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written to ``.bench_out/``).  The
last line of standard output is always the result object::

    {"correct": true, "attempted": 4200, "failed": 0,
     "metrics": {"ack_p50_ms": {"value": 23.1, "unit": "ms"}, ...}}

Exit status: 0 when the outputs match the reference (``"failed"`` counts
operations that did not complete); 1 when they disagree, a metric could
not be measured, or the run hit its time limit (a result with
``"correct": false`` is still printed); 2 when the program's source is
not there to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Wall-time limit of one run, seconds; the run is failed past it.
TIME_LIMIT = 150
#: Past the limit, cleanup gets this long before the process is ended.
GRACE = 20


class RunTimeout(Exception):
    """The workload exceeded :data:`TIME_LIMIT`."""


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    from perfbench.common import UNITS

    return json.dumps({
        "correct": correct,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in sorted(metrics.items())
        },
    })


def _kill_children() -> None:
    for child in multiprocessing.active_children():
        child.kill()
        child.join(5)


def _hard_stop(workload: str) -> None:
    """Last resort when cleanup itself hangs: kill workers, report, exit."""
    print(f"{workload}: cleanup hung after the time limit", file=sys.stderr)
    _kill_children()
    print(_result(False, 1, 1, {}), flush=True)
    os._exit(1)


def _on_alarm(signum, frame) -> None:
    raise RunTimeout(f"run exceeded its {TIME_LIMIT}s time limit")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("replay", "serve", "storm"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC}; run from the root of "
            f"a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.common import DEFAULT, END_TO_END, PER_LAYER, Scratch
    from perfbench.common import CorrectnessError
    from perfbench.workloads import WORKLOADS, Run

    expected = {name for name, _, _ in (PER_LAYER if args.trace else END_TO_END)}
    scratch = Scratch(ROOT, args.workload)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT)
    backstop = threading.Timer(TIME_LIMIT + GRACE, _hard_stop, (args.workload,))
    backstop.daemon = True
    backstop.start()
    run = Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), sizes=DEFAULT, root=ROOT,
        scratch=scratch.path,
    )
    started = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](run)
    except (CorrectnessError, RunTimeout) as exc:
        print(f"{args.workload}: FAILED: {exc}", file=sys.stderr)
        print(_result(False, 1, 1, {}), flush=True)
        return 1
    except Exception:
        traceback.print_exc()
        print(f"{args.workload}: FAILED with an error", file=sys.stderr)
        print(_result(False, 1, 1, {}), flush=True)
        return 1
    finally:
        signal.alarm(0)
        _kill_children()
        scratch.close()
        backstop.cancel()

    if outcome.tracer is not None:
        spans = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}.spans.tsv"
        outcome.tracer.write(spans)
        print(f"{args.workload}: {len(outcome.tracer.spans)} spans -> {spans}",
              file=sys.stderr)
    missing = expected - set(outcome.metrics)
    unmeasured = [k for k, v in outcome.metrics.items() if not math.isfinite(v)]
    if missing or set(outcome.metrics) - expected or unmeasured:
        print(
            f"{args.workload}: metrics missing {sorted(missing)}, "
            f"unmeasured {sorted(unmeasured)}",
            file=sys.stderr,
        )
        print(_result(False, outcome.attempted, outcome.failed, {}), flush=True)
        return 1
    print(
        f"{args.workload}: seed {args.seed}, {outcome.failed} of "
        f"{outcome.attempted} failed, "
        f"{time.perf_counter() - started:.1f}s wall",
        file=sys.stderr,
    )
    print(_result(True, outcome.attempted, outcome.failed, outcome.metrics),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
