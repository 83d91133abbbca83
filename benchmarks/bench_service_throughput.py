"""Bench — fleet service throughput, 1 shard vs N shards.

Streams one synthetic multi-week trace through the online path twice:
unsharded (a single ``OnlinePredictionSession``) and location-sharded
(a ``PredictionService`` with hash routing folding the trace's locations
into N shards).  Reports events/sec for both and asserts the routing
contract: the sharded fleet ingests every event exactly once, and the
per-shard labeled series sum to the fleet total.

Wall-clock parity is the honest claim on one process: sharding here buys
stream isolation and blast-radius containment, not parallel speedup (the
shards share one process and its interpreter lock, and matching is
CPU-bound).  The
per-shard timings in the attached metrics snapshot are what a deployment
would use to size a real fleet.
"""

import time

from conftest import SEED, run_once

from repro.core.framework import FrameworkConfig
from repro.core.online import OnlinePredictionSession
from repro.preprocess.pipeline import PreprocessingPipeline
from repro.raslog.generator import GeneratorConfig, generate_log
from repro.raslog.profiles import SDSC_PROFILE
from repro.service import PredictionService

N_SHARDS = 4


def _trace():
    trace = generate_log(
        SDSC_PROFILE,
        GeneratorConfig(scale=0.5, weeks=16, seed=SEED),
    )
    log = PreprocessingPipeline().run(trace.raw).clean
    return log.with_origin(trace.raw.origin)


def _config():
    return FrameworkConfig(initial_train_weeks=4, retrain_weeks=4)


def _stream_single(log):
    session = OnlinePredictionSession(_config(), origin=log.origin)
    start = time.perf_counter()
    for event in log:
        session.ingest(event)
    elapsed = time.perf_counter() - start
    return session.summary(), elapsed


def _stream_sharded(log, n_shards):
    service = PredictionService(_config(), shards=n_shards, origin=log.origin)
    start = time.perf_counter()
    for event in log:
        service.ingest(event)
    service.flush()
    elapsed = time.perf_counter() - start
    return service.summary(), elapsed


def test_service_throughput_1_vs_n_shards(benchmark, show):
    log = _trace()

    def run():
        single, t_single = _stream_single(log)
        fleet, t_fleet = _stream_sharded(log, N_SHARDS)
        return single, t_single, fleet, t_fleet

    single, t_single, fleet, t_fleet = run_once(benchmark, run)

    # every event lands in exactly one shard
    assert fleet.n_events == single.n_events == len(log)
    assert fleet.n_fatal == single.n_fatal
    assert 1 <= fleet.n_shards <= N_SHARDS

    eps_single = len(log) / t_single
    eps_fleet = len(log) / t_fleet
    benchmark.extra_info["events_per_sec_1_shard"] = round(eps_single, 1)
    benchmark.extra_info[f"events_per_sec_{N_SHARDS}_shards"] = round(
        eps_fleet, 1
    )
    benchmark.extra_info["n_shards"] = fleet.n_shards

    # per-shard labeled counters must sum to the fleet total
    metrics = benchmark.extra_info["metrics"]
    shard_series = [
        summary["value"]
        for name, summary in metrics.items()
        if name.startswith("service.events{")
    ]
    assert len(shard_series) == fleet.n_shards
    assert sum(shard_series) == fleet.n_events

    show(
        f"events: {len(log)}  "
        f"1 shard: {eps_single:,.0f} ev/s  "
        f"{fleet.n_shards} shards: {eps_fleet:,.0f} ev/s  "
        f"(fleet warnings: {fleet.n_warnings}, single: {single.n_warnings})"
    )
