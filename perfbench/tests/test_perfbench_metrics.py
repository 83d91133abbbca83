"""Every workload prints every metric named in BENCHMARK.json, with its
unit, in both modes (at seconds-scale sizes)."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as runner
from perfbench.common import END_TO_END, PER_LAYER, TINY
from perfbench.workloads import WORKLOADS, Run

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = lambda key: [  # noqa: E731
        (m["name"], m["unit"], m["better"]) for m in spec[key]
    ]
    assert listed("end_to_end") == [m for m in END_TO_END]
    assert listed("per_layer") == [m for m in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    run = Run(
        workload=workload, seed=3, seconds=1.0, trace=trace, sizes=TINY,
        root=ROOT, scratch=tmp_path,
    )
    outcome = WORKLOADS[workload](run)
    printed = json.loads(runner._result(
        True, outcome.attempted, outcome.failed, outcome.metrics
    ))
    table = PER_LAYER if trace else END_TO_END
    assert sorted(printed) == ["attempted", "correct", "failed", "metrics"]
    assert set(printed["metrics"]) == {name for name, _, _ in table}
    for name, unit, _ in table:
        value = printed["metrics"][name]["value"]
        assert printed["metrics"][name]["unit"] == unit
        assert math.isfinite(value), name
        if not trace:
            assert value > 0, name
    assert printed["attempted"] >= 1 and printed["failed"] == 0
    if trace:
        assert outcome.tracer is not None and outcome.tracer.spans


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
