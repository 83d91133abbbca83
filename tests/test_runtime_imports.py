"""Modules the runtime must never import.

scipy is a test-only dependency, and the engine runs in one process, so
neither ``multiprocessing`` nor the process-pool executor belongs in a
cold start or a retraining.  Each check runs in a fresh interpreter, so
a module another test already imported cannot hide (or fake) the import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import sys

import numpy as np


FORBIDDEN = ("scipy", "multiprocessing", "concurrent.futures.process")


def check(step):
    for name in FORBIDDEN:
        assert name not in sys.modules, f"{name} imported by: {step}"


import repro.cli

check("import repro.cli")

from repro.learners.distribution import DistributionLearner
from repro.raslog.catalog import default_catalog
from repro.raslog.events import Facility, RASEvent, Severity
from repro.raslog.store import EventLog

catalog = default_catalog()
fatal = catalog.fatal_types()[0].code
gaps = np.random.default_rng(3).lognormal(7.0, 2.0, size=400)
events = [
    RASEvent(
        record_id=i,
        event_type="RAS",
        timestamp=float(t),
        job_id=1,
        location="R00-M0-N00",
        entry_data=fatal,
        facility=Facility.KERNEL,
        severity=Severity.FATAL,
    )
    for i, t in enumerate(np.cumsum(gaps))
]
learner = DistributionLearner(catalog)
rules = learner.train(EventLog(events), 300.0)
assert learner.last_fit.name == "lognormal", learner.last_fit.name
assert rules and rules[0].quantile_time > 0
check("train a log-normal DistributionLearner")

learner.last_fit.quantile(0.9)
check("quantile")
"""


def test_runtime_never_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
