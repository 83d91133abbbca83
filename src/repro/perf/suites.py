"""Runnable bench suites behind ``repro bench``.

Each suite builds a deterministic synthetic workload, measures one slice
of the online path, and returns ``(metrics, params)`` for
:func:`repro.perf.harness.record_run`.  Where a suite covers an
optimised path, it measures the *pre-optimisation* implementation on
the same workload in the same run — so every BENCH_* entry carries its
own before/after pair and the speedup is a recorded number, not a
claim:

* ``predictor_feed`` — per-event matcher latency/throughput, legacy
  ``"scan"`` matching vs the compiled hash-joined indices (asserting
  warning-for-warning equivalence while it measures);
* ``service_throughput`` — end-to-end streaming events/sec, one session
  vs a sharded fleet, plus retrain latency and ingest p50/p99;
* ``journal_append`` — WAL appends/sec, per-record fsync vs batched
  group commit, plus crash-recovery replay time;
* ``preprocess_filter`` — rows/sec through dedup + compression,
  vectorized vs the python-loop reference (asserting identical output);
* ``serve_ingest`` — events/sec through the ``repro serve`` TCP
  front-end from concurrent producers plus ack p50/p99, with the
  batching contrast — per-event commits vs ``ingest_batch`` group
  commits — measured in-process on the same durable workload
  (asserting warning-for-warning equivalence across all three runs).

``smoke=True`` shrinks every workload to CI scale; smoke and full runs
carry different ``params_digest`` values so the regression gate never
compares one against the other.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.perf.harness import Metric, quantile_us, record_run

#: Same seed as benchmarks/conftest.py, so suites and pytest benches
#: describe the same traces.
SUITE_SEED = 2008

#: Records per append_batch group commit in the journal suite.
JOURNAL_BATCH = 64

#: Micro-batch size for the serving suite's batched run (the
#: ``repro serve`` default).
DEFAULT_SERVE_BATCH = 64

#: Batch size for the service suite's backend contrast.  Larger than
#: the serve default: each fleet batch is one scatter/gather wave, and
#: the wave must be wide enough that every worker gets a sub-batch
#: worth more than a pipe round-trip.
BACKEND_BATCH = 256


def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


# -- predictor_feed ----------------------------------------------------


def _mined_predictor_inputs(
    scale: float, train_weeks: int, feed_weeks: int, density: float
):
    from dataclasses import replace

    from repro.core.knowledge import RuleRecord
    from repro.core.reviser import Reviser
    from repro.experiments.config import make_log
    from repro.learners.registry import DEFAULT_LEARNERS, create_learner
    from repro.raslog.store import EventLog
    from repro.utils.timeutil import WEEK_SECONDS

    window = 300.0
    syn = make_log(
        "SDSC", scale=scale, weeks=train_weeks + feed_weeks, seed=SUITE_SEED
    )
    log, catalog = syn.clean, syn.catalog
    training = log.between(0.0, train_weeks * WEEK_SECONDS)
    feed = log.between(
        train_weeks * WEEK_SECONDS, (train_weeks + feed_weeks) * WEEK_SECONDS
    )
    if density > 1.0 and len(feed):
        # Compress inter-arrivals by ``density``: the matcher's cost is
        # proportional to window occupancy, and the quiet synthetic
        # average (~0.1 events per 300 s window) measures nothing.  A
        # compressed stream reproduces the event-storm regime — the load
        # a deployed predictor must actually keep up with.  Both
        # indexing modes see the identical compressed stream, so the
        # before/after comparison stays apples-to-apples.
        t0 = float(feed.timestamps[0])
        feed = EventLog(
            tuple(
                replace(e, timestamp=t0 + (e.timestamp - t0) / density)
                for e in feed
            ),
            origin=feed.origin,
            _presorted=True,
        )

    records, seen = [], set()
    for name in DEFAULT_LEARNERS:
        learner = create_learner(name, catalog=catalog)
        for rule in learner.train(training, window):
            if rule.key not in seen:
                seen.add(rule.key)
                records.append(
                    RuleRecord(rule=rule, learner=name, trained_at_week=0)
                )
    revision = Reviser(min_roc=0.7, catalog=catalog, tick=60.0).revise(
        records, training, window
    )
    rules = [r.rule for r in revision.kept]
    return rules, catalog, feed, window


def suite_predictor_feed(smoke: bool = False) -> tuple[dict, dict]:
    """Matcher hot path: scan (pre-PR) vs compiled indices, same stream."""
    from repro.core.predictor import Predictor

    scale, train_weeks, feed_weeks, density = (
        (1.0, 2, 1, 1000.0) if smoke else (1.0, 8, 4, 5000.0)
    )
    rules, catalog, feed, window = _mined_predictor_inputs(
        scale, train_weeks, feed_weeks, density
    )

    results: dict[str, tuple[float, list[float], list]] = {}
    for mode in ("scan", "compiled"):
        predictor = Predictor(
            rules, window=window, catalog=catalog, indexing=mode
        )
        if len(feed):
            predictor.state.clock = float(feed.timestamps[0])
        latencies: list[float] = []
        warnings: list = []
        start = time.perf_counter()
        for event in feed:
            t0 = time.perf_counter()
            new = predictor.observe(event)
            latencies.append(time.perf_counter() - t0)
            warnings.extend(new)
        elapsed = time.perf_counter() - start
        results[mode] = (elapsed, latencies, warnings)

    t_scan, _, w_scan = results["scan"]
    t_compiled, lat, w_compiled = results["compiled"]
    # The indices are a pure speed knob: any divergence here means the
    # compiled matcher changed semantics, which is a bug, not a result.
    assert w_compiled == w_scan, (
        f"scan/compiled warning divergence: "
        f"{len(w_scan)} vs {len(w_compiled)} warnings"
    )

    n = max(len(feed), 1)
    metrics = {
        "events_per_sec_scan": Metric(n / t_scan, "events/s", True),
        "events_per_sec_compiled": Metric(n / t_compiled, "events/s", True),
        "speedup_compiled_vs_scan": Metric(t_scan / t_compiled, "ratio", True),
        "feed_p50_us": Metric(quantile_us(lat, 0.50), "us"),
        "feed_p99_us": Metric(quantile_us(lat, 0.99), "us"),
        "n_events": Metric(float(len(feed)), "count"),
        "n_warnings": Metric(float(len(w_compiled)), "count"),
        "n_rules": Metric(float(len(rules)), "count"),
    }
    params = {
        "suite": "predictor_feed",
        "smoke": smoke,
        "scale": scale,
        "train_weeks": train_weeks,
        "feed_weeks": feed_weeks,
        "density": density,
        "seed": SUITE_SEED,
    }
    return metrics, params


# -- service_throughput ------------------------------------------------


def suite_service_throughput(smoke: bool = False) -> tuple[dict, dict]:
    """End-to-end streaming: one session vs a sharded fleet."""
    from repro.core.config import FrameworkConfig
    from repro.core.online import OnlinePredictionSession
    from repro.observe import MetricsRegistry, use_registry
    from repro.preprocess.pipeline import PreprocessingPipeline
    from repro.raslog.generator import GeneratorConfig, generate_log
    from repro.raslog.profiles import SDSC_PROFILE
    from repro.service import PredictionService

    scale, weeks, train_weeks, retrain_weeks, n_shards = (
        (0.5, 8, 2, 2, 2) if smoke else (0.5, 16, 4, 4, 4)
    )
    trace = generate_log(
        SDSC_PROFILE, GeneratorConfig(scale=scale, weeks=weeks, seed=SUITE_SEED)
    )
    log = PreprocessingPipeline().run(trace.raw).clean
    log = log.with_origin(trace.raw.origin)

    def config() -> FrameworkConfig:
        return FrameworkConfig(
            initial_train_weeks=train_weeks, retrain_weeks=retrain_weeks
        )

    registry = MetricsRegistry()
    with use_registry(registry):
        session = OnlinePredictionSession(config(), origin=log.origin)
        start = time.perf_counter()
        for event in log:
            session.ingest(event)
        t_single = time.perf_counter() - start
        single = session.summary()
        session.close()

        service = PredictionService(
            config(), shards=n_shards, origin=log.origin
        )
        start = time.perf_counter()
        for event in log:
            service.ingest(event)
        service.flush()
        t_fleet = time.perf_counter() - start
        fleet = service.summary()
        service.close()

    assert fleet.n_events == single.n_events == len(log)
    snapshot = registry.snapshot()
    # Per-event engine cost: the predictor's own timer around each feed.
    ingest = snapshot.get("predictor.feed", {})
    retrain = snapshot.get("online.retrain", {})

    # Backend contrast: the same batched workload through an in-process
    # fleet and through shared-nothing worker processes.  Batched on
    # both sides so the comparison isolates *placement* — ingest_batch
    # scatters one sub-batch per shard before gathering, which is what
    # lets subprocess workers mine concurrently.  Each run gets a
    # throwaway registry so the fleet metrics above keep their meaning.
    events = list(log)

    def run_fleet_batched(backend: str) -> tuple[float, int, dict]:
        with use_registry(MetricsRegistry()):
            fleet = PredictionService(
                config(), shards=n_shards, origin=log.origin, backend=backend
            )
            start = time.perf_counter()
            for i in range(0, len(events), BACKEND_BATCH):
                fleet.ingest_batch(events[i : i + BACKEND_BATCH])
            fleet.flush()
            elapsed = time.perf_counter() - start
            warnings = {k: fleet.warnings(k) for k in fleet.shard_keys}
            n_events = fleet.summary().n_events
            fleet.close()
        return elapsed, n_events, warnings

    t_inproc, n_inproc, w_inproc = run_fleet_batched("inproc")
    t_subproc, n_subproc, w_subproc = run_fleet_batched("subprocess")
    assert n_inproc == n_subproc == len(log)
    # Placement is a deployment knob, not a model change: the two
    # backends must agree warning for warning.
    assert w_subproc == w_inproc, "backend warning divergence"

    n = max(len(log), 1)
    metrics = {
        "events_per_sec_1_shard": Metric(n / t_single, "events/s", True),
        f"events_per_sec_{n_shards}_shards": Metric(
            n / t_fleet, "events/s", True
        ),
        "shard_scaling_ratio": Metric(t_single / t_fleet, "ratio", True),
        "events_per_sec_batched_inproc": Metric(
            n / t_inproc, "events/s", True
        ),
        "events_per_sec_batched_subprocess": Metric(
            n / t_subproc, "events/s", True
        ),
        # >= 1 only with real cores to spread the workers over; on a
        # single-CPU box the pipe hops make this < 1, which is why the
        # CI floor for it is applied on multi-core runners only.
        "subprocess_speedup": Metric(t_inproc / t_subproc, "ratio", True),
        "ingest_p50_us": Metric(ingest.get("p50", 0.0) * 1e6, "us"),
        "ingest_p99_us": Metric(ingest.get("p99", 0.0) * 1e6, "us"),
        "retrain_latency_s": Metric(retrain.get("mean", 0.0), "s"),
        "n_events": Metric(float(len(log)), "count"),
        "n_warnings": Metric(float(single.n_warnings), "count"),
    }
    params = {
        "suite": "service_throughput",
        "smoke": smoke,
        "scale": scale,
        "weeks": weeks,
        "train_weeks": train_weeks,
        "retrain_weeks": retrain_weeks,
        "n_shards": n_shards,
        # Both backends are measured in one run; labeling them in the
        # digest keeps old inproc-only baselines out of the comparison.
        "backends": "inproc+subprocess",
        "batch": BACKEND_BATCH,
        "seed": SUITE_SEED,
    }
    return metrics, params


# -- journal_append ----------------------------------------------------


def suite_journal_append(smoke: bool = False) -> tuple[dict, dict]:
    """WAL overhead: per-record fsync vs batched group commit."""
    from repro.resilience.journal import EventJournal

    n = 1000 if smoke else 5000
    records = [
        {
            "kind": "ingest",
            "event": {
                "timestamp": float(i),
                "location": f"R{i % 8:02d}-M0-N00",
                "job_id": i % 64,
                "entry_data": "KERNEL_PANIC",
            },
        }
        for i in range(n)
    ]

    with tempfile.TemporaryDirectory() as tmp:
        single = EventJournal(Path(tmp) / "single", fsync="always")
        _, t_single = _timed(
            lambda: [single.append(r) for r in records]
        )
        single.close()

        batched = EventJournal(Path(tmp) / "batched", fsync="always")
        _, t_batched = _timed(
            lambda: [
                batched.append_batch(records[i : i + JOURNAL_BATCH])
                for i in range(0, n, JOURNAL_BATCH)
            ]
        )
        batched.close()

        # Recovery: reopen (torn-tail scan) + full replay of the log.
        def recover() -> int:
            journal = EventJournal(Path(tmp) / "batched", fsync="never")
            count = sum(1 for _ in journal.replay())
            journal.close()
            return count

        replayed, t_recover = _timed(recover)
    assert replayed == n

    metrics = {
        "appends_per_sec_single": Metric(n / t_single, "records/s", True),
        "appends_per_sec_batched": Metric(n / t_batched, "records/s", True),
        "batch_speedup": Metric(t_single / t_batched, "ratio", True),
        "recovery_replay_s": Metric(t_recover, "s"),
        "recovery_records_per_sec": Metric(n / t_recover, "records/s", True),
        "n_records": Metric(float(n), "count"),
    }
    params = {
        "suite": "journal_append",
        "smoke": smoke,
        "n_records": n,
        "batch": JOURNAL_BATCH,
        "fsync": "always",
    }
    return metrics, params


# -- preprocess_filter -------------------------------------------------


def _coalesce_reference(log, threshold: float, key_fn):
    """Pre-vectorization ``_coalesce``: python grouping, per-group numpy."""
    from collections import defaultdict

    from repro.raslog.store import EventLog

    if threshold == 0 or len(log) == 0:
        return log
    groups: dict[object, list[int]] = defaultdict(list)
    for i, event in enumerate(log):
        groups[key_fn(event)].append(i)
    keep = np.zeros(len(log), dtype=bool)
    times = log.timestamps
    for indices in groups.values():
        idx = np.asarray(indices)
        ts = times[idx]
        starts = np.empty(len(idx), dtype=bool)
        starts[0] = True
        if len(idx) > 1:
            np.greater(np.diff(ts), threshold, out=starts[1:])
        keep[idx[starts]] = True
    kept = tuple(e for i, e in enumerate(log.events) if keep[i])
    return EventLog(kept, origin=log.origin, _presorted=True)


def _deduplicate_reference(log):
    """Pre-vectorization ``deduplicate_exact``: first-seen-wins set scan."""
    from repro.raslog.store import EventLog

    seen: set = set()
    kept = []
    for e in log:
        sig = (e.timestamp, e.location, e.job_id, e.entry_data)
        if sig in seen:
            continue
        seen.add(sig)
        kept.append(e)
    return EventLog(kept, origin=log.origin, _presorted=True)


def suite_preprocess_filter(smoke: bool = False) -> tuple[dict, dict]:
    """Filtering throughput: vectorized vs python-loop reference."""
    from repro.experiments.config import make_log
    from repro.preprocess.filtering import compress, deduplicate_exact

    scale, weeks = (0.3, 3) if smoke else (1.0, 8)
    threshold = 300.0
    syn = make_log(
        "SDSC", scale=scale, weeks=weeks, seed=SUITE_SEED, duplicates=True
    )
    raw = syn.raw

    def reference():
        deduped = _deduplicate_reference(raw)
        temporal = _coalesce_reference(
            deduped,
            threshold,
            key_fn=lambda e: (e.location, e.job_id, e.entry_data),
        )
        return _coalesce_reference(
            temporal, threshold, key_fn=lambda e: (e.job_id, e.entry_data)
        )

    def vectorized():
        out, _ = compress(deduplicate_exact(raw), threshold)
        return out

    ref_out, t_ref = _timed(reference)
    vec_out, t_vec = _timed(vectorized)
    # The vectorized filter must be a pure reimplementation.
    assert vec_out.events == ref_out.events, (
        f"filter output divergence: {len(ref_out)} vs {len(vec_out)} rows"
    )

    n = max(len(raw), 1)
    metrics = {
        "rows_per_sec_reference": Metric(n / t_ref, "rows/s", True),
        "rows_per_sec_vectorized": Metric(n / t_vec, "rows/s", True),
        "filter_speedup": Metric(t_ref / t_vec, "ratio", True),
        "n_rows_in": Metric(float(len(raw)), "count"),
        "n_rows_out": Metric(float(len(vec_out)), "count"),
    }
    params = {
        "suite": "preprocess_filter",
        "smoke": smoke,
        "scale": scale,
        "weeks": weeks,
        "threshold": threshold,
        "seed": SUITE_SEED,
    }
    return metrics, params


# -- serve_ingest ------------------------------------------------------


def _serve_load(
    log, config_fn, *, n_shards: int, n_producers: int, batch_size: int,
    fleet_dir=None,
) -> tuple[float, dict, dict]:
    """Push ``log`` through ``repro serve`` from concurrent producers.

    Producers are partitioned by the server's own shard key, so each
    shard receives its events from exactly one producer in stream order
    — the same per-shard ordering the in-process path sees.  Returns
    (elapsed seconds, registry snapshot, per-shard warnings).
    """
    import threading
    import zlib

    from repro.net.client import PredictionClient
    from repro.net.server import serve_in_thread
    from repro.service import PredictionService

    service = PredictionService(
        config_fn(), shards=n_shards, origin=log.origin, fleet_dir=fleet_dir
    )
    partitions: list[list] = [[] for _ in range(n_producers)]
    for event in log:
        key = service.router.key(event)
        partitions[zlib.crc32(key.encode("utf-8")) % n_producers].append(event)

    def produce(events: list, host: str, port: int) -> int:
        client = PredictionClient(host, port, timeout=120.0)
        try:
            return client.stream(events)
        finally:
            client.close()

    with serve_in_thread(service, batch_size=batch_size) as server:
        acked = [0] * n_producers
        threads = [
            threading.Thread(
                target=lambda i=i: acked.__setitem__(
                    i, produce(partitions[i], server.host, server.port)
                )
            )
            for i in range(n_producers)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tail = PredictionClient(server.host, server.port, timeout=120.0)
        tail.flush()
        elapsed = time.perf_counter() - start
        snapshot = tail.metrics()
        tail.close()
        warnings = {k: service.warnings(k) for k in service.shard_keys}
    assert sum(acked) == len(log), (sum(acked), len(log))
    return elapsed, snapshot, warnings


def _commit_contrast(
    log, config_fn, *, n_shards: int, tmp: Path
) -> tuple[float, float, dict]:
    """Per-event commits vs ``ingest_batch`` group commits, in-process.

    Both fleets are durable (write-ahead journal, fsync every commit)
    and run on one thread — no sockets, no scheduler — so the ratio
    isolates what one group commit per micro-batch buys over an fsync
    per event: the same saving the server's micro-batching realises.
    The measurement is *paired*: each chunk of events goes through the
    per-event fleet and then, back to back, through the batched fleet,
    so both modes see the same disk weather, and the reported speedup
    is the *median* of the per-chunk ratios, so an fsync stall in any
    one chunk — on either side — cannot move it.  A full throwaway
    pass first warms code paths and the filesystem.
    Returns (t_single, t_batched, speedup, per-shard warnings).
    """
    import statistics

    from repro.service import PredictionService

    events = list(log)

    def paired_pass(label: str) -> tuple[float, float, float, dict]:
        def fleet(mode: str) -> PredictionService:
            return PredictionService(
                config_fn(), shards=n_shards, origin=log.origin,
                fleet_dir=tmp / f"{label}-{mode}",
            )

        single, batched = fleet("single"), fleet("batched")
        t_single = t_batched = 0.0
        ratios: list[float] = []
        for i in range(0, len(events), DEFAULT_SERVE_BATCH):
            chunk = events[i : i + DEFAULT_SERVE_BATCH]
            start = time.perf_counter()
            for event in chunk:
                single.ingest(event)
            mid = time.perf_counter()
            batched.ingest_batch(chunk)
            end = time.perf_counter()
            t_single += mid - start
            t_batched += end - mid
            ratios.append((mid - start) / max(end - mid, 1e-9))
        single.flush()
        batched.flush()
        w_single = {k: single.warnings(k) for k in single.shard_keys}
        w_batched = {k: batched.warnings(k) for k in batched.shard_keys}
        single.close()
        batched.close()
        # Batching is a transport knob: the fleet must produce the same
        # warnings whether events commit one at a time or 64.
        assert w_batched == w_single, "batch-size warning divergence"
        return t_single, t_batched, statistics.median(ratios), w_single

    paired_pass("warmup")
    return paired_pass("measured")


def suite_serve_ingest(smoke: bool = False) -> tuple[dict, dict]:
    """Network serving throughput plus the in-process batching contrast."""
    from repro.core.config import FrameworkConfig
    from repro.observe import MetricsRegistry, use_registry
    from repro.preprocess.pipeline import PreprocessingPipeline
    from repro.raslog.generator import GeneratorConfig, generate_log
    from repro.raslog.profiles import SDSC_PROFILE
    from repro.service import make_backend

    scale, weeks, train_weeks, n_shards, n_producers = (
        (0.5, 8, 2, 2, 2) if smoke else (0.5, 12, 4, 4, 4)
    )
    trace = generate_log(
        SDSC_PROFILE, GeneratorConfig(scale=scale, weeks=weeks, seed=SUITE_SEED)
    )
    log = PreprocessingPipeline().run(trace.raw).clean
    log = log.with_origin(trace.raw.origin)

    def config() -> FrameworkConfig:
        return FrameworkConfig(
            initial_train_weeks=train_weeks, retrain_weeks=train_weeks
        )

    # Warm the serving stack (imports, thread pools, codec paths) off
    # the clock, so the measured runs don't pay one-time costs.
    with use_registry(MetricsRegistry()):
        _serve_load(
            log.between(0.0, 1 * 7 * 24 * 3600.0),
            config,
            n_shards=n_shards,
            n_producers=n_producers,
            batch_size=DEFAULT_SERVE_BATCH,
        )

    # The fleets are durable (write-ahead journal, fsync every commit):
    # that is the deployment the ack contract is about.  The served run
    # crosses sockets and three thread pools, so its wall clock moves
    # with the scheduler — best-of-2, recorded as absolute throughput
    # (ungated across machines).  The gated batch_speedup ratio comes
    # from the single-threaded, pairwise-interleaved in-process
    # contrast instead, which holds still run to run.
    # The contrast runs first, in its own directory, so the served
    # runs' journal writeback never leaks into its fsync timings.
    with tempfile.TemporaryDirectory() as tmpdir:
        t_single, t_batched, speedup, w_inprocess = _commit_contrast(
            log, config, n_shards=n_shards, tmp=Path(tmpdir)
        )

    served: tuple[float, dict, dict] | None = None
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        for repeat in range(2):
            with use_registry(MetricsRegistry()):
                run = _serve_load(
                    log,
                    config,
                    n_shards=n_shards,
                    n_producers=n_producers,
                    batch_size=DEFAULT_SERVE_BATCH,
                    fleet_dir=tmp / f"served-{repeat}",
                )
            if served is None or run[0] < served[0]:
                served = run

    t_served, snapshot, w_served = served
    # The serving path is a transport, not a model change: warnings must
    # match the in-process run shard for shard, warning for warning.
    assert w_served == w_inprocess, "served/in-process warning divergence"
    n_warnings = sum(len(w) for w in w_served.values())

    ack = snapshot.get("net.ingest_latency", {})
    n = max(len(log), 1)
    metrics = {
        "events_per_sec_served": Metric(n / t_served, "events/s", True),
        "ack_p50_us": Metric(ack.get("p50", 0.0) * 1e6, "us"),
        "ack_p99_us": Metric(ack.get("p99", 0.0) * 1e6, "us"),
        "events_per_sec_unbatched": Metric(n / t_single, "events/s", True),
        "events_per_sec_batched": Metric(n / t_batched, "events/s", True),
        "batch_speedup": Metric(speedup, "ratio", True),
        "n_events": Metric(float(len(log)), "count"),
        "n_warnings": Metric(float(n_warnings), "count"),
    }
    params = {
        "suite": "serve_ingest",
        "smoke": smoke,
        "scale": scale,
        "weeks": weeks,
        "train_weeks": train_weeks,
        "n_shards": n_shards,
        "n_producers": n_producers,
        "batch": DEFAULT_SERVE_BATCH,
        "durable": True,
        # The fleets above use the env-selected default backend; the
        # label keeps inproc and subprocess runs in separate baselines.
        "backend": make_backend(None).name,
        "seed": SUITE_SEED,
    }
    return metrics, params


# -- drift_adapt -------------------------------------------------------


def suite_drift_adapt(
    smoke: bool = False, scenario: str = "reconfiguration"
) -> tuple[dict, dict]:
    """Fixed-cadence vs drift-triggered retraining on a regime-change
    scenario (:mod:`repro.raslog.scenarios`).

    Unlike the throughput suites this one measures a *policy*, not a
    code path: how many retrainings each trigger paid and what
    post-shift recall each got back.  The workload is fully seeded, so
    every number is machine-independent; the ratios are gated in CI and
    the reconfiguration acceptance criteria — trigger within one
    evaluation week of the shift, strictly fewer retrains at no recall
    loss — are asserted right here, every run.
    """
    from repro.adapt.evaluate import compare_on_scenario

    cmp = compare_on_scenario(scenario)
    drift = cmp.adaptive.drift or {}

    if scenario == "reconfiguration":
        assert cmp.trigger_delay_weeks is not None, (
            "adaptive trigger never fired after the reconfiguration"
        )
        assert cmp.trigger_delay_weeks <= 1, (
            f"drift trigger took {cmp.trigger_delay_weeks} evaluation "
            f"weeks; the acceptance bound is 1"
        )
        assert cmp.adaptive.n_retrains < cmp.fixed.n_retrains, (
            f"adaptive performed {cmp.adaptive.n_retrains} retrains, "
            f"fixed cadence only {cmp.fixed.n_retrains}"
        )
        assert (
            cmp.adaptive.post_shift_recall >= cmp.fixed.post_shift_recall
        ), (
            f"adaptive post-shift recall {cmp.adaptive.post_shift_recall:.3f} "
            f"below fixed {cmp.fixed.post_shift_recall:.3f}"
        )

    delay = (
        float(cmp.trigger_delay_weeks)
        if cmp.trigger_delay_weeks is not None
        else float("nan")
    )
    metrics = {
        "retrains_fixed": Metric(float(cmp.fixed.n_retrains), "count"),
        "retrains_adaptive": Metric(float(cmp.adaptive.n_retrains), "count"),
        "retrains_saved_ratio": Metric(cmp.retrains_saved_ratio, "ratio", True),
        "trigger_delay_weeks": Metric(delay, "weeks"),
        "post_shift_recall_fixed": Metric(
            cmp.fixed.post_shift_recall, "ratio", True
        ),
        "post_shift_recall_adaptive": Metric(
            cmp.adaptive.post_shift_recall, "ratio", True
        ),
        "recall_fixed": Metric(cmp.fixed.recall, "ratio", True),
        "recall_adaptive": Metric(cmp.adaptive.recall, "ratio", True),
        "drift_evaluations": Metric(
            float(drift.get("evaluations", 0)), "count"
        ),
        "skipped_retrains": Metric(
            float(drift.get("skipped_retrains", 0)), "count"
        ),
        "n_events": Metric(float(cmp.extras["n_events"]), "count"),
        "n_fatal": Metric(float(cmp.extras["n_fatal"]), "count"),
    }
    params = {
        "suite": "drift_adapt",
        "smoke": smoke,
        "scenario": scenario,
        "shift_week": cmp.shift_week,
        "scale": cmp.extras["scale"],
        "seed": cmp.extras["seed"],
    }
    return metrics, params


# -- registry ----------------------------------------------------------

SUITES: dict[str, Callable[..., tuple[dict, dict]]] = {
    "predictor_feed": suite_predictor_feed,
    "service_throughput": suite_service_throughput,
    "journal_append": suite_journal_append,
    "preprocess_filter": suite_preprocess_filter,
    "serve_ingest": suite_serve_ingest,
    "drift_adapt": suite_drift_adapt,
}


def run_suite(
    name: str,
    smoke: bool = False,
    directory: "str | Path" = ".",
    timestamp: "str | None" = None,
    scenario: "str | None" = None,
) -> tuple[Path, Mapping[str, Metric]]:
    """Run one suite and append its run to ``BENCH_<name>.json``.

    ``scenario`` selects the regime-change trace for the scenario-driven
    suites (currently ``drift_adapt``); passing it to any other suite is
    an error.
    """
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {name!r}; have {sorted(SUITES)}"
        ) from None
    if scenario is not None:
        if name != "drift_adapt":
            raise ValueError(
                f"suite {name!r} does not take a --scenario"
            )
        metrics, params = suite(smoke, scenario=scenario)
    else:
        metrics, params = suite(smoke)
    path = record_run(
        name, metrics, params, directory=directory, timestamp=timestamp
    )
    return path, metrics
