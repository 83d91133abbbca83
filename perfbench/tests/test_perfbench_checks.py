"""The correctness check catches an injected divergence."""

from pathlib import Path

import pytest

from repro.alerts import FailureWarning
from repro.core.framework import DynamicMetaLearningFramework

from perfbench import workloads
from perfbench.common import TINY, CorrectnessError, check_warnings
from perfbench.workloads import Run

ROOT = Path(__file__).resolve().parents[2]


def _warning(t: float) -> FailureWarning:
    return FailureWarning(
        time=t, predicted="KERNEL_PANIC", window=300.0,
        rule_key=("assoc", ("A",), "KERNEL_PANIC"), learner="association",
    )


def test_check_warnings_names_workload_and_shard():
    a, b, c = _warning(1.0), _warning(2.0), _warning(3.0)
    expected = {"shard-000": [a, b], "shard-001": [c]}
    check_warnings("storm", expected, {"shard-000": [a, b], "shard-001": [c]})
    with pytest.raises(CorrectnessError, match=r"storm: shard shard-000: 1 "):
        check_warnings("storm", expected, {"shard-000": [a], "shard-001": [c]})
    with pytest.raises(CorrectnessError, match="at warning 0"):
        check_warnings("serve", expected, {"shard-000": [b, a], "shard-001": [c]})
    with pytest.raises(CorrectnessError, match="shard sets differ"):
        check_warnings("serve", expected, {"shard-000": [a, b]})


def _run(workload: str, tmp_path: Path) -> Run:
    return Run(
        workload=workload, seed=5, seconds=1.0, trace=False, sizes=TINY,
        root=ROOT, scratch=tmp_path,
    )


def _drop_one(warnings: dict) -> None:
    key = next(k for k, found in sorted(warnings.items()) if found)
    warnings[key] = warnings[key][:-1]


def test_a_dropped_warning_fails_serve(monkeypatch, tmp_path):
    reference = workloads._reference_fleet

    def drop_one(*args, **kwargs):
        warnings = reference(*args, **kwargs)
        _drop_one(warnings)
        return warnings

    monkeypatch.setattr(workloads, "_reference_fleet", drop_one)
    with pytest.raises(CorrectnessError, match="^serve: "):
        workloads.serve(_run("serve", tmp_path))


def test_a_dropped_warning_fails_storm(monkeypatch, tmp_path):
    # Storm's references come from child interpreters; the divergence is
    # injected where the parent receives them.
    references = workloads._storm_references

    def drop_one(*args, **kwargs):
        fleets = references(*args, **kwargs)
        _drop_one(next(f for f in fleets if any(f.values())))
        return fleets

    monkeypatch.setattr(workloads, "_storm_references", drop_one)
    with pytest.raises(CorrectnessError, match="^storm: "):
        workloads.storm(_run("storm", tmp_path))


def test_a_dropped_warning_fails_replay(monkeypatch, tmp_path):
    run_framework = DynamicMetaLearningFramework.run

    def drop_one(self, log):
        result = run_framework(self, log)
        assert result.warnings, "the tiny replay must raise warnings"
        result.warnings.pop(len(result.warnings) // 2)
        return result

    monkeypatch.setattr(DynamicMetaLearningFramework, "run", drop_one)
    with pytest.raises(CorrectnessError, match="^replay: "):
        workloads.replay(_run("replay", tmp_path))
