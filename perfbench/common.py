"""Metric names, sizes and helpers shared by every workload.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's metric catalogue;
``BENCHMARK.json`` at the repository root lists the same names with the
same units, and the benchmark's tests hold the two in step.
"""

from __future__ import annotations

import gc
import math
import os
import time
import resource
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

#: (name, unit, better) — what an operator of the system feels.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("rows_per_s", "rows/s", "higher"),
    ("events_per_s", "events/s", "higher"),
    ("ack_p50_ms", "ms", "lower"),
    ("ack_p90_ms", "ms", "lower"),
    ("warn_p50_ms", "ms", "lower"),
    ("warn_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Layers whose span has children report a self time, ``self.<span>_s``;
#: for every other traced layer its ``*_s`` total already is its self
#: time.
SELF_TIME_SPANS = (
    "framework.run", "service.commit", "backend.begin", "journal.append_batch",
)

#: Serve's stage ledger: scheduled send -> ack, cut at each boundary.
LEDGER_STAGES = ("late", "wire", "batch_wait", "commit", "return")

#: (name, unit, better) — one layer each, from the traced run.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("parser.busy_s", "s", "lower"),
    ("parser.rows", "count", "higher"),
    ("parser.skipped", "count", "lower"),
    ("preprocess.categorize_s", "s", "lower"),
    ("preprocess.dedup_s", "s", "lower"),
    ("preprocess.compress_s", "s", "lower"),
    ("preprocess.kept_ratio", "ratio", "lower"),
    ("framework.run_s", "s", "lower"),
    ("meta.train_s", "s", "lower"),
    ("meta.train_calls", "count", "lower"),
    ("meta.train_max_s", "s", "lower"),
    ("reviser.revise_s", "s", "lower"),
    ("reviser.kept_ratio", "ratio", "higher"),
    ("predictor.feed_s", "s", "lower"),
    ("predictor.feed_calls", "count", "higher"),
    ("predictor.warnings_per_kevent", "warnings/kevent", "lower"),
    ("adapt.observe_s", "s", "lower"),
    ("adapt.evaluations", "count", "lower"),
    ("service.commit_p50_ms", "ms", "lower"),
    ("service.commit_p99_ms", "ms", "lower"),
    ("service.batch_events_mean", "events", "higher"),
    ("backend.gather_wait_s", "s", "lower"),
    ("backend.worker_busy_s", "s", "lower"),
    ("backend.transport_s", "s", "lower"),
    ("journal.append_batch_s", "s", "lower"),
    ("journal.fsyncs", "count", "lower"),
    ("journal.records_per_fsync", "records", "higher"),
    ("net.decode_s", "s", "lower"),
    ("net.queue_p50_ms", "ms", "lower"),
    ("net.return_p50_ms", "ms", "lower"),
    ("net.rejected", "count", "lower"),
    ("net.subscriber_dropped", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    *((f"self.{name}_s", "s", "lower") for name in SELF_TIME_SPANS),
    *((f"ledger.{stage}_ms", "ms", "lower") for stage in LEDGER_STAGES),
    ("ledger.ack_ms", "ms", "lower"),
    ("ledger.unattributed_share", "ratio", "lower"),
    ("precision", "ratio", "higher"),
    ("recall", "ratio", "higher"),
    ("failed_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; ``DEFAULT`` is what ``perfbench/run.py`` uses."""

    #: weeks of training before predictions start (paper default)
    initial_weeks: int = 26
    #: ANL raw logs with duplicates: the last rows of 60 weeks, which
    #: include the week-50 storm
    replay_scale: float = 0.012
    replay_weeks: int = 60
    replay_rows: int = 40_000
    replay_files: int = 2
    #: SDSC clean streams, one per fleet, sent open loop at a fixed rate
    serve_scale: float = 3.0
    serve_rate: float = 400.0
    #: ANL clean events; prediction weeks compressed into a storm
    storm_scale: float = 1.0
    storm_weeks: int = 8
    storm_compression: float = 1000.0
    storm_batch: int = 256
    #: a storm fleet's peak memory is read once it committed this many
    #: events
    storm_rss_events: int = 60_000
    #: fleets per run, each on its own trace; the median of their set-up
    #: times is reported
    serve_fleets: int = 5
    storm_fleets: int = 6
    #: replay: cold starts per run; the median is reported
    setup_repeats: int = 5


DEFAULT = Sizes()

#: Seconds-scale inputs for the benchmark's own tests.
TINY = Sizes(
    initial_weeks=3,
    replay_scale=0.05,
    replay_weeks=8,
    replay_rows=20_000,
    serve_rate=300.0,
    storm_scale=0.5,
    storm_weeks=2,
    storm_batch=64,
    storm_rss_events=5_000,
    replay_files=2,
    serve_fleets=2,
    storm_fleets=2,
    setup_repeats=2,
)


class CorrectnessError(AssertionError):
    """The program's output differs from the reference computation."""

    def __init__(self, workload: str, detail: str) -> None:
        super().__init__(f"{workload}: {detail}")
        self.workload = workload


def check_warnings(workload: str, expected: dict, got: dict) -> None:
    """Require ``got`` to equal ``expected`` shard for shard, warning for
    warning; raise :class:`CorrectnessError` naming the first divergence."""
    if sorted(expected) != sorted(got):
        raise CorrectnessError(
            workload, f"shard sets differ: {sorted(expected)} vs {sorted(got)}"
        )
    for key in sorted(expected):
        want, have = list(expected[key]), list(got[key])
        if want == have:
            continue
        at = next(
            (i for i, (a, b) in enumerate(zip(want, have)) if a != b),
            min(len(want), len(have)),
        )
        raise CorrectnessError(
            workload,
            f"shard {key}: {len(have)} warnings, reference has {len(want)}; "
            f"first divergence at warning {at}",
        )


#: Seconds :func:`reference_seconds` reads on the host every CPU-bound
#: time is scaled to (a 2-vCPU KVM guest at its faster speed level).
REFERENCE_S = 0.003

_REFERENCE_LINES = [
    f"{i} R{i % 64:02d}-M{i % 7} KERNEL INFO event {i * 7919 % 1000} node{i % 128}"
    for i in range(2000)
]


def _reference_once() -> float:
    start = time.perf_counter()
    counts: dict = {}
    rows = []
    for line in _REFERENCE_LINES:
        parts = line.split()
        key = (parts[1], parts[3])
        counts[key] = counts.get(key, 0) + 1
        rows.append((int(parts[0]), parts[5], len(parts)))
    rows.sort(key=lambda r: (r[1], -r[0]))
    return time.perf_counter() - start


def reference_seconds() -> float:
    """How long a fixed pure-Python job (split, count and sort log-like
    lines) takes right now: the median of five runs, collector off.

    The host's speed drifts by up to ~1.8x over tens of seconds, in CPU
    time as in wall time; this job slows with it as the program's
    interpreter-bound stages do.  Taken right after a timed unit of
    work, ``seconds * REFERENCE_S / reference_seconds()`` is that
    unit's time on a host of the reference speed (see :func:`scaled`).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return float(np.median([_reference_once() for _ in range(5)]))
    finally:
        if was_enabled:
            gc.enable()


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured when :func:`reference_seconds` read
    ``reference``, on the scale of a host where it reads
    :data:`REFERENCE_S`."""
    return seconds * REFERENCE_S / reference


def pct(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``; NaN when empty."""
    data = [v for v in values if not math.isnan(v)]
    return float(np.percentile(data, q)) if data else float("nan")


def median(values: Iterable[float]) -> float:
    return pct(values, 50.0)


def reset_peak_rss() -> None:
    """Restart the peak-memory high-water mark of this process, so that
    each unit of work (a file pass, a fleet) reports its own peak.
    Where the kernel does not allow it the peak stays process-wide."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory of this process since the last reset."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Scratch:
    """A run-private directory under ``.bench_tmp/`` of the checkout,
    removed on :meth:`close` whatever happened in between."""

    def __init__(self, root: Path, name: str) -> None:
        self.path = root / ".bench_tmp" / f"{name}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or already gone
