"""Per-layer metrics from a traced phase, and serve's stage ledger."""

from __future__ import annotations

import math
from typing import Any

from perfbench.common import LEDGER_STAGES, PER_LAYER, SELF_TIME_SPANS, median, pct
from perfbench.tracing import Span, Tracer, self_times


def registry_totals(snapshot: dict[str, dict]) -> dict[str, float]:
    """Counter values and histogram sums per metric name, labels summed
    away (``service.ingest{shard="a"}`` and ``{shard="b"}`` add up)."""
    totals: dict[str, float] = {}
    for key, series in snapshot.items():
        name = key.split("{", 1)[0]
        if series.get("type") == "counter":
            value = series.get("value", 0.0)
        elif series.get("type") == "histogram":
            value = series.get("sum", 0.0)
        else:
            continue
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def registry_delta(
    before: dict[str, dict], after: dict[str, dict]
) -> dict[str, float]:
    start, end = registry_totals(before), registry_totals(after)
    return {k: v - start.get(k, 0.0) for k, v in end.items()}


def _total(spans: list[Span]) -> float:
    return sum(s.seconds for s in spans)


def layer_metrics(
    tracer: Tracer, extra: dict[str, float], setup: Tracer | None = None
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; what spans cannot tell comes from
    ``extra`` (workload-side counts, registry deltas, the ledger), and a
    layer the workload never reached reads 0.  The learners' metrics
    also count the training spans of ``setup``, a fleet set-up traced
    apart from the timed phase."""
    spans: dict[str, list[Span]] = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)

    def named(name: str) -> list[Span]:
        return spans.get(name, [])

    def learned(name: str) -> list[Span]:
        before = setup.spans if setup is not None else []
        return [s for s in before if s.name == name] + named(name)

    train = learned("meta.train")
    revisions = learned("reviser.revise")
    revised = [s.info for s in revisions]
    feeds = named("predictor.feed")
    fed_warnings = sum(s.info for s in feeds)
    commits = named("service.commit")
    commit_ms = [s.seconds * 1e3 for s in commits]
    appended = sum(s.info for s in named("journal.append_batch"))
    fsyncs = len(named("journal.sync"))
    worker_busy = extra.get("backend.worker_busy_s", 0.0)
    kept = sum(k for k, _ in revised)
    judged = sum(k + r for k, r in revised)
    own = self_times(tracer.spans)

    metrics: dict[str, float] = {
        "parser.busy_s": _total(named("parser.load_log")),
        "preprocess.categorize_s": _total(named("preprocess.categorize")),
        "preprocess.dedup_s": _total(named("preprocess.dedup")),
        "preprocess.compress_s": _total(named("preprocess.compress")),
        "framework.run_s": _total(named("framework.run")),
        "meta.train_s": _total(train),
        "meta.train_calls": float(len(train)),
        "meta.train_max_s": max((s.seconds for s in train), default=0.0),
        "reviser.revise_s": _total(revisions),
        "reviser.kept_ratio": kept / judged if judged else 0.0,
        "predictor.feed_s": _total(feeds),
        "predictor.feed_calls": float(len(feeds)),
        "predictor.warnings_per_kevent": (
            1e3 * fed_warnings / len(feeds) if feeds else 0.0
        ),
        "adapt.observe_s": _total(named("adapt.observe")),
        "service.commit_p50_ms": median(commit_ms) if commits else 0.0,
        "service.commit_p99_ms": pct(commit_ms, 99.0) if commits else 0.0,
        "service.batch_events_mean": (
            sum(len(s.info) for s in commits) / len(commits) if commits else 0.0
        ),
        "backend.gather_wait_s": _total(named("backend.finish")),
        # Time in the shard handles around the sessions' own work.
        "backend.transport_s": max(
            0.0,
            _total(named("backend.begin")) + _total(named("backend.finish"))
            - worker_busy,
        ),
        "journal.append_batch_s": _total(named("journal.append_batch")),
        "journal.fsyncs": float(fsyncs),
        "journal.records_per_fsync": appended / fsyncs if fsyncs else 0.0,
        "net.decode_s": _total(named("net.decode")),
    }
    for name in SELF_TIME_SPANS:
        metrics[f"self.{name}_s"] = own.get(name, 0.0)
    for name, _, _ in PER_LAYER:
        if name not in metrics:
            metrics[name] = float(extra.get(name, 0.0))
    return metrics


def ledger_rows(
    spans: list[Span], load: Any, keys: list[tuple]
) -> tuple[list[tuple[float, dict[str, float]]], float, float]:
    """Cut every served event's ack latency at the layer boundaries.

    For event ``i`` (scheduled ``sched``), the stages are
    ``late`` (sched -> sent), ``wire`` (sent -> the server decoded the
    frame), ``batch_wait`` (decoded -> its micro-batch's commit began:
    linger plus waiting for the engine), ``commit`` (the
    ``PredictionService.ingest_batch`` call) and ``return`` (commit end
    -> ack received).  They telescope, so for every matched event they
    add up to its ack latency exactly.  ``spans`` are the spans of the
    phase that sent ``load``; ``keys[i]`` identifies event ``i`` inside
    commit spans.

    Returns (rows of (ack latency, stages), seconds of ack latency on
    events the trace could not match, total seconds of ack latency).
    """
    decoded = {s.rid: s.end for s in spans if s.name == "net.decode"}
    index = {key: i for i, key in enumerate(keys)}
    commit_of: dict[int, Span] = {}
    for s in spans:
        if s.name == "service.commit":
            for event in s.info:
                i = index.get((event.record_id, event.timestamp, event.location))
                if i is not None:
                    commit_of[i] = s

    rows: list[tuple[float, dict[str, float]]] = []
    lost = total = 0.0
    for i, (sched, sent, acked) in enumerate(
        zip(load.scheduled, load.sent, load.acked)
    ):
        if math.isnan(acked):
            continue
        latency = acked - sched
        total += latency
        commit = commit_of.get(i)
        if commit is None or i not in decoded:
            lost += latency
            continue
        cuts = (sched, sent, decoded[i], commit.start, commit.end, acked)
        stages = {
            stage: cuts[k + 1] - cuts[k] for k, stage in enumerate(LEDGER_STAGES)
        }
        if min(stages.values()) < 0:
            lost += latency
            continue
        rows.append((latency, stages))
    return rows, lost, total


def ledger_metrics(
    rows: list[tuple[float, dict[str, float]]], lost: float, total: float
) -> dict[str, float]:
    """The ledger as metrics: stage means over the events whose ack
    latency lies between its 45th and 55th percentile, so that the
    stages account for ``ack_p50_ms``; the unattributed share of all ack
    latency; and ``net.queue_p50_ms`` (sched -> commit start) and
    ``net.return_p50_ms`` over every matched event."""
    metrics = {f"ledger.{stage}_ms": 0.0 for stage in LEDGER_STAGES}
    metrics["ledger.ack_ms"] = 0.0
    metrics["ledger.unattributed_share"] = lost / total if total else 1.0
    metrics["net.queue_p50_ms"] = metrics["net.return_p50_ms"] = 0.0
    if not rows:
        return metrics
    ranked = sorted(rows, key=lambda row: row[0])
    lo = int(0.45 * len(ranked))
    band = ranked[lo : max(lo + 1, math.ceil(0.55 * len(ranked)))]
    for stage in LEDGER_STAGES:
        metrics[f"ledger.{stage}_ms"] = (
            1e3 * sum(st[stage] for _, st in band) / len(band)
        )
    metrics["ledger.ack_ms"] = 1e3 * sum(lat for lat, _ in band) / len(band)
    metrics["net.queue_p50_ms"] = 1e3 * median(
        st["late"] + st["wire"] + st["batch_wait"] for _, st in rows
    )
    metrics["net.return_p50_ms"] = 1e3 * median(st["return"] for _, st in rows)
    return metrics
