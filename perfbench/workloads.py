"""The benchmark's workloads, driven through the program's public API.

Each workload builds its inputs from the run's seed, measures for the
run's seconds, checks the program's warnings against a reference
computed off the clock, and returns an :class:`Outcome`.  An untraced
run measures once and reports the end-to-end metrics; a traced run
measures the first half of its seconds untraced and the second half
traced, and reports the per-layer metrics (and the ratio of the two
halves as ``trace.overhead_ratio``).

* ``replay`` — the ``repro run raw.log`` batch path: parse, preprocess,
  framework, on ANL raw files with duplicates;
* ``serve`` — durable 2-shard fleets behind the TCP server, each fed
  open loop at a fixed rate from one producer connection and watched by
  one subscriber connection;
* ``storm`` — a time-compressed ANL event storm pushed closed loop
  through ``ingest_batch`` on an in-process 2-shard fleet with
  drift-triggered retraining.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.framework import DynamicMetaLearningFramework, FrameworkConfig
from repro.core.online import OnlinePredictionSession
from repro.core.serialization import warning_from_dict, warning_to_dict
from repro.evaluation.metrics import PrecisionRecall, combine
from repro.net import protocol
from repro.net.server import DEFAULT_BATCH_SIZE, serve_in_thread
from repro.preprocess.pipeline import PreprocessingPipeline
from repro.raslog import parser
from repro.raslog.generator import GeneratorConfig, generate_log
from repro.raslog.profiles import ANL_PROFILE, SDSC_PROFILE
from repro.raslog.store import EventLog
from repro.service import PredictionService
from repro.utils.timeutil import WEEK_SECONDS

from perfbench import loadgen
from perfbench.common import (
    Sizes, check_warnings, median, pct, peak_rss_mb, reference_seconds,
    reset_peak_rss, scaled,
)
from perfbench.layers import (
    layer_metrics, ledger_metrics, ledger_rows, registry_delta,
)
from perfbench.tracing import Tracer

#: Shards in every fleet: one per core of a 2-core machine.
SHARDS = 2

clock = time.perf_counter


@dataclass
class Run:
    """One invocation: which workload, its seed, time and mode."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    #: the checkout root; ``src/`` holds the program
    root: Path
    #: run-private directory for files the workload writes
    scratch: Path


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    tracer: Tracer | None = None


def _phases(run: Run) -> list[tuple[float, Tracer | None]]:
    """(seconds to measure, tracer or None) per phase of the run."""
    if run.trace:
        half = run.seconds / 2.0
        return [(half, None), (half, Tracer())]
    return [(run.seconds, None)]


def _traced(tracer: Tracer | None):
    return tracer.installed() if tracer is not None else nullcontext()


def _chunks(items: list, size: int) -> Iterator[list]:
    for i in range(0, len(items), size):
        yield items[i : i + size]


def _split(log, boundary: float) -> tuple[list, list]:
    events = list(log)
    cut = bisect.bisect_left([e.timestamp for e in events], boundary)
    return events[:cut], events[cut:]


def _reference_fleet(
    config: FrameworkConfig, origin: float, boundary: float,
    prefix: list, stream: Iterator,
) -> dict[str, list]:
    """Per-shard warnings of an in-process fleet fed one event at a time."""
    with PredictionService(
        config, shards=SHARDS, origin=origin, backend="inproc"
    ) as fleet:
        for event in prefix:
            fleet.ingest(event)
        fleet.advance(boundary)
        for event in stream:
            fleet.ingest(event)
        return {k: list(fleet.warnings(k)) for k in fleet.shard_keys}


def _fleet_accuracy(summaries: Iterable) -> PrecisionRecall:
    """The prediction-period accuracy of several fleets together."""
    return combine([
        PrecisionRecall(s.true_positives, s.false_positives, s.false_negatives)
        for s in summaries
    ])


def _sub_seed(run: Run, k: int) -> np.random.SeedSequence:
    """Seed of the ``k``-th independent trace of a run."""
    return np.random.SeedSequence([run.seed, k])


#: A plain child interpreter rather than a ``multiprocessing`` process:
#: that would start a resource tracker which outlives the run.
_CHILD = """
import json, sys
from perfbench import workloads
getattr(workloads, sys.argv[1])(**json.loads(sys.argv[2]))
"""


def _in_children(run: Run, calls: list[tuple[str, dict]]) -> None:
    """Call ``workloads.<name>(**args)`` for each ``(name, args)``, each in
    a child interpreter of its own, all at once; return when all have
    succeeded.  Every child is ended and reaped on every way out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(run.root / "src"), str(run.root)]
    ))
    children = []
    try:
        for name, args in calls:
            children.append((name, subprocess.Popen(
                [sys.executable, "-c", _CHILD, name, json.dumps(args)],
                env=env, cwd=run.root,
            )))
        for name, child in children:
            status = child.wait(timeout=120)
            if status != 0:
                raise RuntimeError(
                    f"{run.workload}: {name} failed in a child (status {status})"
                )
    finally:
        for _, child in children:
            if child.poll() is None:
                child.kill()
            child.wait()


# -- replay --------------------------------------------------------------

_COLD_START = """
import time
start = time.perf_counter()
import repro.cli
from repro.core.framework import DynamicMetaLearningFramework, FrameworkConfig
from repro.preprocess.pipeline import PreprocessingPipeline
PreprocessingPipeline()
DynamicMetaLearningFramework(FrameworkConfig()).close()
print(time.perf_counter() - start)
"""


def _cold_start(run: Run) -> float:
    """Seconds a fresh interpreter takes to load the program and build
    its batch pipeline: the batch path's set-up before the first row."""
    env = dict(os.environ, PYTHONPATH=str(run.root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, cwd=run.root,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class _Pass:
    file: int
    seconds: float
    #: ``seconds`` on the reference host's scale (see ``scaled``)
    scaled: float
    report: parser.ParseReport
    n_clean: int
    overall: object
    peak_mb: float


def _write_raw(
    paths: list[str], seed: int, scale: float, weeks: int, rows: int
) -> None:
    """Write the ``k``-th ANL raw trace's last ``rows`` rows to ``paths[k]``.

    Runs in a child interpreter (see :func:`_in_children`), so that
    generating the inputs does not count towards the program's peak
    memory.  The last rows hold the week-50 storm, and a fixed row count
    gives every pass the same work.
    """
    for k, path in enumerate(paths):
        raw = generate_log(ANL_PROFILE, GeneratorConfig(
            scale=scale, weeks=weeks, seed=np.random.SeedSequence([seed, k]),
            duplicates=True,
        )).raw
        tail = raw.events[-rows:]
        parser.dump_log(EventLog(tail, origin=raw.origin, _presorted=True), path)


def replay(run: Run) -> Outcome:
    s = run.sizes
    config = FrameworkConfig(initial_train_weeks=s.initial_weeks)
    # One raw file per independent trace; passes cycle through them, so
    # no single trace's quirks set the numbers.
    paths = [run.scratch / f"raw-{k}.log" for k in range(s.replay_files)]
    _in_children(run, [("_write_raw", {
        "paths": [str(p) for p in paths], "seed": run.seed,
        "scale": s.replay_scale, "weeks": s.replay_weeks, "rows": s.replay_rows,
    })])
    rows = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rows.append(sum(1 for _ in fh))
    setups = [_cold_start(run) for _ in range(s.setup_repeats)]

    def one_pass(k: int) -> tuple[_Pass, list]:
        # Every pass starts from the same collector state, so no pass
        # pays for the garbage of the one before.
        gc.collect()
        reset_peak_rss()
        report = parser.ParseReport()
        start = clock()
        log = parser.load_log(paths[k], report=report)
        clean = PreprocessingPipeline().run(log).clean.with_origin(log.origin)
        with DynamicMetaLearningFramework(config) as framework:
            result = framework.run(clean)
        end = clock()
        timed = _Pass(
            k, end - start, scaled(end - start, reference_seconds()), report,
            len(clean), result.overall, peak_rss_mb(),
        )
        return timed, (clean, result.warnings)

    # Warm-up, off the clock: one pass per file, whose clean log streamed
    # through an online session is the reference every timed pass of
    # that file must match warning for warning.
    expected = []
    for k in range(len(paths)):
        _, (clean, _) = one_pass(k)
        with OnlinePredictionSession(config, origin=clean.origin) as session:
            for event in clean:
                session.ingest(event)
            session.flush()
            expected.append({"batch": list(session.warnings)})
        del clean

    phases: list[list[_Pass]] = []
    tracer = None
    done = 0
    for budget, tracer in _phases(run):
        passes: list[_Pass] = []
        with _traced(tracer):
            while (
                len(passes) < len(paths)
                or sum(p.seconds for p in passes) < budget
            ):
                timed, (_, warnings) = one_pass(done % len(paths))
                check_warnings("replay", expected[timed.file], {"batch": warnings})
                passes.append(timed)
                done += 1
        phases.append(passes)

    every = [p for passes in phases for p in passes]
    attempted = sum(rows[p.file] for p in every)
    failed = sum(p.report.skipped for p in every)
    if not run.trace:
        # Per file, then over the files: the files differ in cost, so a
        # statistic over all passes would move with how many passes of
        # each file the seconds allowed.  The median pass of a file
        # stands for it, so that a pass the host held up sets nothing.
        by_file = [
            [p.scaled for p in phases[0] if p.file == k]
            for k in range(len(paths))
        ]
        typical = [median(times) for times in by_file]
        metrics = {
            "rows_per_s": sum(rows) / sum(typical),
            # The raw log's events are its rows.
            "events_per_s": sum(rows) / sum(typical),
            # The batch path delivers every ack and warning at once, with
            # the complete result: their latency is the pass time.
            "ack_p50_ms": 1e3 * float(np.mean(typical)),
            "ack_p90_ms": 1e3 * float(np.mean([pct(t, 90.0) for t in by_file])),
            "setup_s": median(setups),
            "peak_rss_mb": median(p.peak_mb for p in phases[0]),
        }
        metrics["warn_p50_ms"] = metrics["ack_p50_ms"]
        metrics["warn_p90_ms"] = metrics["ack_p90_ms"]
        return Outcome(metrics, attempted, failed)

    untraced, traced = phases
    parsed = sum(p.report.parsed for p in traced)
    accuracy = combine([p.overall for p in traced])

    def rate(passes: list[_Pass]) -> float:
        return sum(rows[p.file] for p in passes) / sum(p.scaled for p in passes)

    extra = {
        "parser.rows": float(parsed),
        "parser.skipped": float(sum(p.report.skipped for p in traced)),
        "preprocess.kept_ratio": sum(p.n_clean for p in traced) / max(parsed, 1),
        "trace.overhead_ratio": rate(untraced) / rate(traced),
        "precision": accuracy.precision,
        "recall": accuracy.recall,
        "failed_frac": failed / attempted,
    }
    return Outcome(layer_metrics(tracer, extra), attempted, failed, tracer)


# -- serve ---------------------------------------------------------------


@contextmanager
def _served_fleet(
    run: Run, config: FrameworkConfig, origin: float, boundary: float,
    prefix: list, name: str, setup: Tracer | None,
):
    """Set up a durable fleet behind a running server; yields
    (service, server, set-up seconds).  ``setup`` traces the training
    prefix.  Tears everything down on exit: drain, checkpoint, close,
    remove the fleet directory."""
    fleet_dir = run.scratch / name
    with ExitStack() as stack:
        stack.callback(shutil.rmtree, fleet_dir, True)
        start = clock()
        service = PredictionService(
            config, shards=SHARDS, origin=origin, fleet_dir=fleet_dir,
            backend="inproc",
        )
        stack.callback(service.close)
        with _traced(setup):
            for chunk in _chunks(prefix, DEFAULT_BATCH_SIZE):
                service.ingest_batch(chunk)
            service.advance(boundary)
        server = stack.enter_context(serve_in_thread(service))
        yield service, server, clock() - start


@contextmanager
def _commit_seconds(service: PredictionService) -> Iterator[list[float]]:
    """Time every ``ingest_batch`` call the server makes on ``service``
    in processor time of the engine thread that makes it; yields the
    list the times go to.  Their sum is what the engine's commits cost,
    without the time the thread waited for the interpreter lock, the
    disk or the scheduler."""
    seconds: list[float] = []
    commit = service.ingest_batch

    def timed(*args, **kwargs):
        start = time.thread_time()
        try:
            return commit(*args, **kwargs)
        finally:
            seconds.append(time.thread_time() - start)

    service.ingest_batch = timed
    try:
        yield seconds
    finally:
        del service.ingest_batch


def _n_warnings(service: PredictionService) -> dict[str, int]:
    return {k: len(service.warnings(k)) for k in service.shard_keys}


def _warn_latencies(
    load: loadgen.LoadResult, events: list, shard_of: list[str],
    service: PredictionService, before: dict[str, int],
) -> list[float]:
    """Scheduled send of the event whose commit raised each warning ->
    that warning's arrival at the subscriber, in seconds.  The raising
    event is the first one in the warning's shard whose timestamp is at
    or after the warning's time."""
    pending: dict = {}
    for key in service.shard_keys:
        for warning in service.warnings(key)[before.get(key, 0):]:
            pending.setdefault(warning, []).append(key)
    times: dict[str, list[float]] = {}
    index: dict[str, list[int]] = {}
    for i, (event, key) in enumerate(zip(events, shard_of)):
        times.setdefault(key, []).append(event.timestamp)
        index.setdefault(key, []).append(i)
    out = []
    for arrival, payload in load.warnings:
        warning = warning_from_dict(payload)
        shards = pending.get(warning)
        if not shards:
            continue
        key = shards.pop(0)
        at = bisect.bisect_left(times.get(key, []), warning.time)
        if at < len(times.get(key, [])):
            out.append(arrival - load.scheduled[index[key][at]])
    return out


def _ack_ms(load: loadgen.LoadResult) -> list[float]:
    return [1e3 * (a - t) for t, a in zip(load.scheduled, load.acked) if a == a]


@dataclass
class _Served:
    """One served fleet's share of a serve run."""

    setup_s: float
    peak_mb: float
    loads: list[loadgen.LoadResult]
    #: per phase: scheduled send -> warning arrival, seconds
    warn: list[list[float]]
    #: the untraced phase's commits' engine-thread processor times,
    #: seconds on the reference host's scale (see ``scaled``)
    commits: list[float]
    #: the traced phase's stage ledger (see :func:`ledger_rows`)
    ledger: tuple[list, float, float]
    #: registry delta over the traced phase
    delta: dict[str, float]
    summary: object
    offered: int
    accepted: int


def _serve_one(
    run: Run, config: FrameworkConfig, k: int,
    phases: list[tuple[float, Tracer | None]], setup: Tracer | None,
) -> _Served:
    s = run.sizes
    # The trace ends at the first retraining boundary after the initial
    # training: no retraining stalls the timed phase.  A retraining holds
    # the engine thread for as long as it runs, so with one inside, a
    # run's ack tail is its trace's costliest retraining, and that varies
    # too much from trace to trace to make a steady number.
    log = generate_log(SDSC_PROFILE, GeneratorConfig(
        scale=s.serve_scale, weeks=s.initial_weeks + config.retrain_weeks,
        seed=_sub_seed(run, k), duplicates=False,
    )).clean
    origin = log.origin
    boundary = origin + s.initial_weeks * WEEK_SECONDS
    prefix, stream = _split(log, boundary)
    counts = [int(round(s.serve_rate * budget)) for budget, _ in phases]
    if len(stream) < sum(counts):
        print(
            f"serve: trace {k} holds {len(stream)} events before its first "
            f"retraining, not {sum(counts)}; sending them all",
            file=sys.stderr,
        )
        counts = [len(stream) * c // sum(counts) for c in counts]

    loads, warn, offered, commits = [], [], [], []
    ledger: tuple[list, float, float] = ([], 0.0, 0.0)
    delta: dict[str, float] = {}
    gc.collect()
    reset_peak_rss()
    with _served_fleet(
        run, config, origin, boundary, prefix, f"fleet-{k}", setup,
    ) as (
        service, server, setup_s,
    ):
        offset = 0
        for (_, tracer), count in zip(phases, counts):
            events = stream[offset : offset + count]
            offset += count
            frames = [
                protocol.encode_frame(
                    {"type": "ingest", "seq": i, "event": e.as_dict()}
                )
                for i, e in enumerate(events)
            ]
            before = _n_warnings(service)
            start_total = sum(before.values())
            metrics_before = service.merged_metrics()
            first_span = len(tracer.spans) if tracer is not None else 0
            gc.collect()  # the set-up's garbage is not the stream's to pay
            # Untraced, the server's commits are timed by a wrapper on
            # this service alone; traced, by the tracer's spans.
            timer = _commit_seconds(service) if tracer is None else nullcontext()
            ref_before = reference_seconds()
            with _traced(tracer), timer as seconds:
                load = loadgen.open_loop(
                    server.host, server.port, frames, s.serve_rate,
                    lambda: sum(_n_warnings(service).values()) - start_total,
                )
            if tracer is None:
                # The host's speed, read on either side of the stream.
                ref = (ref_before + reference_seconds()) / 2.0
                commits = [scaled(c, ref) for c in seconds]
            if tracer is not None:
                keys = [(e.record_id, e.timestamp, e.location) for e in events]
                ledger = ledger_rows(tracer.spans[first_span:], load, keys)
                delta = registry_delta(metrics_before, service.merged_metrics())
            loads.append(load)
            offered.append(events)
            shard_of = [service.router.key(e) for e in events]
            warn.append(_warn_latencies(load, events, shard_of, service, before))
        measured = {key: list(service.warnings(key)) for key in service.shard_keys}
        summary = service.summary()
        peak_mb = peak_rss_mb()

    accepted = [
        e for load, events in zip(loads, offered)
        for e, acked in zip(events, load.acked) if acked == acked  # not NaN
    ]
    check_warnings(
        "serve", _reference_fleet(config, origin, boundary, prefix, accepted),
        measured,
    )
    return _Served(
        setup_s, peak_mb, loads, warn, commits, ledger, delta, summary, sum(counts),
        len(accepted),
    )


def serve(run: Run) -> Outcome:
    s = run.sizes
    config = FrameworkConfig(initial_train_weeks=s.initial_weeks)
    # Each fleet serves its own trace for an equal share of the run's
    # seconds, and latencies are pooled over all of them: one trace's
    # retraining costs vary too much from seed to seed to stand alone.
    phases = [
        (budget / s.serve_fleets, tracer) for budget, tracer in _phases(run)
    ]
    setup = Tracer() if run.trace else None
    served = [
        _serve_one(run, config, k, phases, setup)
        for k in range(s.serve_fleets)
    ]
    attempted = sum(f.offered for f in served)
    failed = attempted - sum(f.accepted for f in served)

    def pooled(phase: int) -> tuple[list[float], list[float]]:
        ack = [ms for f in served for ms in _ack_ms(f.loads[phase])]
        warn = [1e3 * w for f in served for w in f.warn[phase]]
        return ack, warn

    if not run.trace:
        # Every metric per fleet, then the median over the fleets, so
        # that no single trace sets the run's numbers.
        per_fleet = []
        for f in served:
            load = f.loads[0]
            ack = _ack_ms(load)
            per_fleet.append({
                "ack_p50_ms": median(ack),
                "ack_p90_ms": pct(ack, 90.0),
                "setup_s": f.setup_s,
                "peak_rss_mb": f.peak_mb,
            })
        metrics = {
            name: median(m[name] for m in per_fleet) for name in per_fleet[0]
        }
        # The open loop sets the rate events arrive at; what the program
        # sets is how fast the engine commits them: acked events per
        # processor-second of the engine's commits, per fleet, then the
        # mean over fleets.  (Wall durations of the millisecond commits
        # are set by lock hand-offs between threads and fsyncs as much
        # as by the program.)  The served trace's rows are its events.
        metrics["events_per_s"] = metrics["rows_per_s"] = float(np.mean([
            f.loads[0].n_acked / sum(f.commits) for f in served
        ]))
        # A fleet raises too few warnings for a tail of its own: pool them.
        warn = [1e3 * w for f in served for w in f.warn[0]]
        metrics["warn_p50_ms"] = median(warn)
        metrics["warn_p90_ms"] = pct(warn, 90.0)
        return Outcome(metrics, attempted, failed)

    tracer = phases[1][1]
    rows = [row for f in served for row in f.ledger[0]]
    lost = sum(f.ledger[1] for f in served)
    total = sum(f.ledger[2] for f in served)

    def summed(name: str) -> float:
        return sum(f.delta.get(name, 0.0) for f in served)

    accuracy = _fleet_accuracy(f.summary for f in served)
    late = [
        sent - t for f in served
        for t, sent in zip(f.loads[1].scheduled, f.loads[1].sent)
    ]
    extra = {
        **ledger_metrics(rows, lost, total),
        "net.rejected": float(sum(f.loads[1].rejected for f in served)),
        "net.subscriber_dropped": summed("net.subscriber_dropped"),
        "loadgen.late_p99_ms": 1e3 * pct(late, 99.0),
        "backend.worker_busy_s": summed("service.ingest"),
        "adapt.evaluations": summed("adapt.evaluations"),
        "trace.overhead_ratio": median(pooled(1)[0]) / median(pooled(0)[0]),
        "precision": accuracy.precision,
        "recall": accuracy.recall,
        "failed_frac": failed / attempted,
    }
    return Outcome(
        layer_metrics(tracer, extra, setup), attempted, failed, tracer
    )


# -- storm ---------------------------------------------------------------


#: Storm batches between two readings of the host's speed (about a
#: third of a second).
STORM_REFERENCE_EVERY = 64


class _Storm:
    """The prediction weeks compressed ``compression``-fold and tiled
    end to end, stopping before the next week boundary so that no
    retraining (or drift evaluation) falls inside the storm."""

    def __init__(
        self, events: list, boundary: float, weeks: int, compression: float
    ) -> None:
        self.block = [
            replace(e, timestamp=boundary + (e.timestamp - boundary) / compression)
            for e in events
        ]
        self.period = weeks * WEEK_SECONDS / compression
        self.limit = boundary + WEEK_SECONDS

    def events(self) -> Iterator:
        for tile in itertools.count():
            shift = tile * self.period
            for event in self.block:
                if event.timestamp + shift >= self.limit:
                    return
                yield event.with_timestamp(event.timestamp + shift) if tile else event

    def batches(self, size: int) -> Iterator[list]:
        events = self.events()
        while batch := list(itertools.islice(events, size)):
            yield batch


@contextmanager
def _fleet(
    config: FrameworkConfig, origin: float, boundary: float, prefix: list,
    batch: int, setup: Tracer | None,
):
    """Set up a fleet trained on the prefix; yields (service, seconds).
    ``setup`` traces the training prefix."""
    start = clock()
    with PredictionService(
        config, shards=SHARDS, origin=origin, backend="inproc"
    ) as service:
        with _traced(setup):
            for chunk in _chunks(prefix, batch):
                service.ingest_batch(chunk)
            service.advance(boundary)
        yield service, clock() - start


@dataclass
class _Stormed:
    """One fleet's share of a storm run."""

    setup_s: float
    #: per phase: (events committed, batch latencies, latencies of the
    #: batches that raised warnings), seconds on the reference host's
    #: scale (see ``scaled``)
    phases: list[tuple[int, list[float], list[float]]]
    #: registry delta over the traced phase
    delta: dict[str, float]
    summary: object
    rss_mb: float
    #: per-shard warnings, checked against the reference after the storm
    warnings: dict[str, list]


def _storm_config(s: Sizes) -> FrameworkConfig:
    return FrameworkConfig(
        initial_train_weeks=s.initial_weeks, retrain_trigger="adaptive"
    )


def _storm_trace(s: Sizes, seed: int, k: int) -> tuple[float, float, list, _Storm]:
    """Storm fleet ``k``'s (origin, boundary, training prefix, storm)."""
    log = generate_log(ANL_PROFILE, GeneratorConfig(
        scale=s.storm_scale, weeks=s.initial_weeks + s.storm_weeks,
        seed=np.random.SeedSequence([seed, k]), duplicates=False,
    )).clean
    origin = log.origin
    boundary = origin + s.initial_weeks * WEEK_SECONDS
    prefix, later = _split(log, boundary)
    return origin, boundary, prefix, _Storm(
        later, boundary, s.storm_weeks, s.storm_compression
    )


def _storm_reference(
    sizes: dict, seed: int, fleets: list[tuple[int, int]], out: str
) -> None:
    """Write to ``out``, as JSON, the reference warnings of each storm
    fleet ``k`` of ``fleets`` over its first ``committed`` storm events.
    Runs in a child interpreter (see :func:`_storm_references`)."""
    s = Sizes(**sizes)
    found = {}
    for k, committed in fleets:
        origin, boundary, prefix, storm_events = _storm_trace(s, seed, k)
        reference = _reference_fleet(
            _storm_config(s), origin, boundary, prefix,
            itertools.islice(storm_events.events(), committed),
        )
        found[k] = {
            key: [warning_to_dict(w) for w in warnings]
            for key, warnings in reference.items()
        }
    Path(out).write_text(json.dumps(found), encoding="utf-8")


def _storm_references(run: Run, committed: list[int]) -> list[dict[str, list]]:
    """Per-shard reference warnings of every storm fleet, fleet ``k`` fed
    its first ``committed[k]`` storm events.  Fed one event at a time they
    take three times as long as the storm itself, so they are computed
    after it, in two child interpreters at once."""
    groups = [list(enumerate(committed))[i::2] for i in range(2)]
    outs = [run.scratch / f"reference-{i}.json" for i in range(len(groups))]
    _in_children(run, [
        ("_storm_reference", {
            "sizes": asdict(run.sizes), "seed": run.seed, "fleets": group,
            "out": str(out),
        })
        for group, out in zip(groups, outs)
    ])
    found = {}
    for out in outs:
        found.update(json.loads(out.read_text(encoding="utf-8")))
    return [
        {
            key: [warning_from_dict(d) for d in warnings]
            for key, warnings in found[str(k)].items()
        }
        for k in range(len(committed))
    ]


def _storm_one(
    run: Run, config: FrameworkConfig, k: int,
    phases: list[tuple[float, Tracer | None]], setup: Tracer | None,
) -> _Stormed:
    s = run.sizes
    origin, boundary, prefix, storm_events = _storm_trace(s, run.seed, k)

    results: list[tuple[int, list[float], list[float]]] = []
    delta: dict[str, float] = {}
    # The fleet keeps the storm's events for its next training, so its
    # memory grows with every event committed: the peak is read at a
    # fixed event count, not after however many the host could push.
    rss = None
    committed = 0
    gc.collect()
    reset_peak_rss()
    with _fleet(config, origin, boundary, prefix, s.storm_batch, setup) as (
        service, setup_s,
    ):
        setup_s = scaled(setup_s, reference_seconds())
        batches = storm_events.batches(s.storm_batch)
        for budget, tracer in phases:
            n, busy, lat, raised = 0, 0.0, [], []
            unscaled = 0  # lat[unscaled:] still awaits its reference
            metrics_before = service.merged_metrics()
            gc.collect()  # the set-up's garbage is not the storm's to pay
            with _traced(tracer):
                while busy < budget:
                    if rss is None and committed + n >= s.storm_rss_events:
                        rss = peak_rss_mb()
                    batch = next(batches, None)
                    if batch is None:
                        print(
                            f"{run.workload}: storm {k} reached the week "
                            f"boundary after {busy:.2f}s",
                            file=sys.stderr,
                        )
                        break
                    start = clock()
                    new = service.ingest_batch(batch)
                    lat.append(clock() - start)
                    busy += lat[-1]
                    n += len(batch)
                    raised.append(bool(new))
                    if len(lat) - unscaled == STORM_REFERENCE_EVERY:
                        ref = reference_seconds()
                        lat[unscaled:] = [scaled(x, ref) for x in lat[unscaled:]]
                        unscaled = len(lat)
            ref = reference_seconds()
            lat[unscaled:] = [scaled(x, ref) for x in lat[unscaled:]]
            warn = [x for x, r in zip(lat, raised) if r]
            if tracer is not None:
                delta = registry_delta(metrics_before, service.merged_metrics())
            results.append((n, lat, warn))
            committed += n
        measured = {key: list(service.warnings(key)) for key in service.shard_keys}
        summary = service.summary()
        if rss is None:
            rss = peak_rss_mb()
    return _Stormed(setup_s, results, delta, summary, rss, measured)


def storm(run: Run) -> Outcome:
    s = run.sizes
    config = _storm_config(s)
    # Like serve: one trace per fleet, an equal share of the seconds each.
    phases = [
        (budget / s.storm_fleets, tracer) for budget, tracer in _phases(run)
    ]
    setup = Tracer() if run.trace else None
    fleets = [
        _storm_one(run, config, k, phases, setup)
        for k in range(s.storm_fleets)
    ]
    counts = [sum(n for n, _, _ in f.phases) for f in fleets]
    for f, reference in zip(fleets, _storm_references(run, counts)):
        check_warnings(run.workload, reference, f.warnings)
    committed = sum(counts)

    def pooled(phase: int) -> tuple[int, list[float], list[float]]:
        n = sum(f.phases[phase][0] for f in fleets)
        lat = [x for f in fleets for x in f.phases[phase][1]]
        warn = [x for f in fleets for x in f.phases[phase][2]]
        return n, lat, warn

    if not run.trace:
        n, lat, _ = pooled(0)

        def per_fleet(q: float, which: int) -> float:
            # Each fleet's percentile, then their mean: the host's speed
            # flips between two levels for seconds at a time, and a
            # percentile of the pooled batches jumps from one level to
            # the other with the share of time spent at each.
            return 1e3 * float(np.mean(
                [pct(f.phases[0][which], q) for f in fleets]
            ))

        metrics = {
            # The storm's rows are its events.
            "rows_per_s": n / sum(lat),
            "events_per_s": n / sum(lat),
            "ack_p50_ms": per_fleet(50.0, 1),
            "ack_p90_ms": per_fleet(90.0, 1),
            "warn_p50_ms": per_fleet(50.0, 2),
            "warn_p90_ms": per_fleet(90.0, 2),
            "setup_s": median(f.setup_s for f in fleets),
            # Only the first fleet starts from a fresh process: the later
            # ones inherit the heap the earlier fleets left behind, and
            # that grows with the events the host managed to push.
            "peak_rss_mb": fleets[0].rss_mb,
        }
        return Outcome(metrics, committed, 0)

    def rate(phase: int) -> float:
        n, lat, _ = pooled(phase)
        return n / sum(lat)

    def summed(name: str) -> float:
        return sum(f.delta.get(name, 0.0) for f in fleets)

    accuracy = _fleet_accuracy(f.summary for f in fleets)
    extra = {
        "backend.worker_busy_s": summed("service.ingest"),
        "adapt.evaluations": summed("adapt.evaluations"),
        "trace.overhead_ratio": rate(0) / rate(1),
        "precision": accuracy.precision,
        "recall": accuracy.recall,
        "failed_frac": 0.0,
    }
    tracer = phases[1][1]
    return Outcome(
        layer_metrics(tracer, extra, setup), committed, 0, tracer
    )


WORKLOADS = {
    "replay": replay,
    "serve": serve,
    "storm": storm,
}
