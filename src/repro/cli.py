"""Command-line interface.

The subcommands cover the operational lifecycle::

    repro generate    # synthesize a Blue Gene/L trace (LogHub format)
    repro preprocess  # categorize + filter a raw log
    repro train       # mine + revise rules, write them as JSON
    repro predict     # replay a log against a rule file
    repro run         # full dynamic train-and-predict loop
                      # (--shard-by location / --shards N for a fleet)
    repro serve       # long-running TCP ingestion server in front of a
                      # fleet (micro-batching, backpressure, SIGTERM drain,
                      # shard supervision with auto-restore)
    repro fleet       # control plane: status / rebalance (live shard
                      # split + merge) / rolling restart
    repro recover     # crash-consistent restart: checkpoint + WAL replay
                      # (--fleet-dir recovers a whole sharded fleet)
    repro metrics     # stream a log and emit per-stage metrics as JSON
    repro experiment  # regenerate a paper table/figure

All commands exchange logs in the LogHub BGL line format and rules in the
JSON schema of :mod:`repro.core.serialization`, so each stage can be
inspected and swapped independently; ``repro serve`` speaks the ndjson
frame protocol of :mod:`repro.net.protocol` (see ``docs/protocol.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro import observe
from repro.core.framework import (
    DynamicMetaLearningFramework,
    FrameworkConfig,
    NothingToEvaluate,
)
from repro.core.knowledge import RuleRecord
from repro.core.meta import MetaLearner
from repro.core.predictor import Predictor
from repro.core.reviser import Reviser
from repro.core.serialization import dump_repository, load_repository
from repro.core.windows import dynamic_months, static_initial
from repro.core.online import OnlinePredictionSession
from repro.evaluation.matching import extract_failures, match_warnings
from repro.evaluation.timeline import rolling_metrics
from repro.preprocess.pipeline import PreprocessingPipeline
from repro.raslog.catalog import default_catalog
from repro.raslog.generator import GeneratorConfig, generate_log
from repro.raslog.parser import ParseError, ParseReport, dump_log
from repro.raslog.profiles import PROFILES, get_profile
from repro.resilience import (
    CheckpointError,
    EventJournal,
    JournalError,
    parse_fsync_policy,
)
from repro.net.protocol import ProtocolError
from repro.service import PredictionService, ReshardError
from repro.utils.tables import TableResult


def _cmd_generate(args: argparse.Namespace) -> int:
    profile = get_profile(args.system)
    config = GeneratorConfig(
        scale=args.scale,
        weeks=args.weeks,
        seed=args.seed,
        duplicates=not args.clean,
    )
    trace = generate_log(profile, config)
    log = trace.clean if args.clean else trace.raw
    assert log is not None
    n = dump_log(log, args.output)
    kind = "clean (categorized)" if args.clean else "raw (duplicated)"
    print(
        f"wrote {n} {kind} records over {log.n_weeks} weeks "
        f"({trace.n_fatal} failures) to {args.output}"
    )
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    report = ParseReport()
    pipeline = PreprocessingPipeline(threshold=args.threshold)
    result = pipeline.run_file(args.input, report=report, output=args.output)
    print(
        f"parsed {report.parsed} records ({report.skipped} skipped); "
        f"categorized {result.categorization.matched} "
        f"({result.categorization.demoted_fatals} fake fatals demoted); "
        f"filtered to {result.filtering.n_output} events "
        f"({result.compression_rate:.1%} compression) -> {args.output}"
    )
    return 0


def _prepare_log(path: str, strict: bool = False):
    """Load + preprocess a log; returns ``(log, parse_report)``.

    In strict mode the first malformed line raises :class:`ParseError`
    (mapped to exit code 2 in :func:`main`); otherwise malformed lines
    are skipped and counted in the report.
    """
    report = ParseReport()
    result = PreprocessingPipeline().run_file(path, strict=strict, report=report)
    return result.clean, report


def _print_parse_report(report: ParseReport) -> None:
    """Surface skipped-line counts (and the first few reasons) on stderr."""
    if not report.skipped:
        return
    print(
        f"parse: skipped {report.skipped} malformed line(s), "
        f"kept {report.parsed}",
        file=sys.stderr,
    )
    for err in report.errors[:3]:
        print(f"  line {err.line_no}: {err.reason}", file=sys.stderr)


def _cmd_train(args: argparse.Namespace) -> int:
    log, _ = _prepare_log(args.input)
    catalog = default_catalog()
    meta = MetaLearner(catalog=catalog)
    output = meta.train(log, args.window)
    candidates = output.records()
    if args.no_reviser:
        kept: list[RuleRecord] = candidates
        removed = 0
    else:
        revision = Reviser(catalog=catalog).revise(candidates, log, args.window)
        kept = revision.kept
        removed = len(revision.removed)
    from repro.core.knowledge import KnowledgeRepository

    repo = KnowledgeRepository(kept)
    dump_repository(repo, args.output)
    print(
        f"trained on {len(log)} events: {len(candidates)} candidate rules, "
        f"{removed} removed by the reviser, {len(kept)} written to {args.output}"
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    log, _ = _prepare_log(args.input)
    repo = load_repository(args.rules)
    catalog = default_catalog()
    predictor = Predictor(repo.rules(), window=args.window, catalog=catalog)
    if len(log):
        predictor.state.clock = float(log.timestamps[0]) - 1.0
    warnings = predictor.replay(log)
    fatal_times, fatal_codes = extract_failures(log, catalog)
    result = match_warnings(warnings, fatal_times, fatal_codes)
    print(
        f"replayed {len(log)} events against {len(repo)} rules: "
        f"{len(warnings)} warnings, {result.true_positives} correct; "
        f"covered {result.covered_failures}/{result.n_fatal} failures"
    )
    if args.verbose:
        for w in warnings[: args.max_warnings]:
            print(
                f"  t={w.time:12.0f}  {w.learner:13s} -> {w.predicted} "
                f"(within {w.window:.0f}s)"
            )
    return 0


def _run_streaming(
    args: argparse.Namespace, config: FrameworkConfig, recover: bool = False
) -> int:
    """`repro run`/`repro recover`: stream through an online session."""
    log, report = _prepare_log(args.input, strict=args.strict)
    _print_parse_report(report)
    journal = (
        EventJournal(args.journal, fsync=args.journal_fsync)
        if args.journal
        else None
    )
    try:
        if recover:
            assert journal is not None
            session = OnlinePredictionSession.recover(
                args.checkpoint, journal, config, origin=log.origin
            )
            skip = session.n_ingested
            print(
                f"recovered from {args.checkpoint} + journal {args.journal}: "
                f"{skip} events already ingested "
                f"({journal.n_torn_truncated} torn record(s) truncated), "
                f"clock at {session.current_week} weeks",
                file=sys.stderr,
            )
        elif args.resume:
            session = OnlinePredictionSession.resume(
                args.resume, config, journal=journal
            )
            skip = session.n_ingested
            print(
                f"resumed from {args.resume}: {skip} events already ingested, "
                f"clock at {session.current_week} weeks",
                file=sys.stderr,
            )
        else:
            session = OnlinePredictionSession(
                config, origin=log.origin, journal=journal
            )
            skip = 0
        every = args.checkpoint_every
        for i, event in enumerate(log):
            if i < skip:
                continue
            session.ingest(event)
            if args.checkpoint and every and (i + 1 - skip) % every == 0:
                session.checkpoint(args.checkpoint)
        session.flush()
        if args.checkpoint:
            session.checkpoint(args.checkpoint)
        summary = session.summary()
        drift = session.drift_status()
    finally:
        if journal is not None:
            journal.close()
    print(
        f"streamed {summary.n_events} events: "
        f"precision={summary.precision:.3f} recall={summary.recall:.3f} "
        f"({summary.n_warnings} warnings, {len(summary.retrains)} retrainings, "
        f"{len(summary.retrain_failures)} retrain failures, "
        f"{summary.n_quarantined} quarantined)"
    )
    if drift is not None:
        print(_render_drift(drift))
    return 0


def _sharding_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "shard_by", None)
        or getattr(args, "shards", None)
        or getattr(args, "fleet_dir", None)
    )


def _render_drift(status: dict, indent: str = "  ") -> str:
    """One-line operator rendering of a DriftMonitor.status() dict."""
    scores = ", ".join(
        f"{name}={value:.2f}" for name, value in sorted(status["scores"].items())
    )
    triggers = ", ".join(
        f"wk{t['week']}:{t['cause']}" for t in status["triggers"]
    ) or "none"
    return (
        f"{indent}drift: scores [{scores}] "
        f"{'armed' if status['armed'] else 'disarmed'}, "
        f"last retrain wk{status['last_retrain_week']}, "
        f"{status['evaluations']} evaluations "
        f"({status['skipped_retrains']} skipped, "
        f"{status['deferred']} deferred), triggers: {triggers}"
    )


def _print_fleet_summary(summary) -> None:
    print(
        f"streamed {summary.n_events} events across {summary.n_shards} "
        f"shard(s): precision={summary.precision:.3f} "
        f"recall={summary.recall:.3f} "
        f"({summary.n_warnings} warnings, {summary.n_retrains} retrainings, "
        f"{summary.n_retrain_failures} retrain failures, "
        f"{summary.n_quarantined} quarantined)"
    )
    for key in sorted(summary.shards):
        s = summary.shards[key]
        print(
            f"  shard {key}: {s.n_events} events, {s.n_warnings} warnings, "
            f"precision={s.precision:.3f} recall={s.recall:.3f}"
        )


def _run_service(
    args: argparse.Namespace, config: FrameworkConfig, recover: bool = False
) -> int:
    """`repro run --shard-by ...`: stream through a sharded fleet."""
    log, report = _prepare_log(args.input, strict=args.strict)
    _print_parse_report(report)
    if recover:
        service = PredictionService.recover(
            args.fleet_dir,
            config,
            origin=log.origin,
            journal_fsync=args.journal_fsync,
        )
        skipped = {k: service.session(k).n_ingested for k in service.shard_keys}
        print(
            f"recovered fleet from {args.fleet_dir}: "
            f"{len(service.shard_keys)} shard(s), "
            f"{sum(skipped.values())} events already ingested",
            file=sys.stderr,
        )
    else:
        service = PredictionService(
            config,
            shard_by=args.shard_by or "location",
            shards=args.shards,
            origin=log.origin,
            fleet_dir=args.fleet_dir,
            journal_fsync=args.journal_fsync,
            retain_journals=args.retain_journals,
        )
        skipped = {}
    every = args.checkpoint_every
    durable = service.fleet_dir is not None
    ingested = 0
    with service:
        for event in log:
            key = service.shard_key(event)
            if skipped.get(key, 0) > 0:
                skipped[key] -= 1
                continue
            service.ingest(event)
            ingested += 1
            if durable and every and ingested % every == 0:
                service.checkpoint()
        service.flush()
        if durable:
            service.checkpoint()
        summary = service.summary()
        drift = service.drift_status() if service.adaptive else None
    _print_fleet_summary(summary)
    if drift:
        for key in sorted(drift):
            if drift[key] is not None:
                print(f"  shard {key}:")
                print(_render_drift(drift[key], indent="    "))
    return 0


def _framework_config(args: argparse.Namespace) -> FrameworkConfig:
    """Shared `repro run`/`repro recover` options -> FrameworkConfig."""
    policy = (
        static_initial(args.train_months)
        if args.static
        else dynamic_months(args.train_months)
    )
    return FrameworkConfig(
        prediction_window=args.window,
        retrain_weeks=args.retrain_weeks,
        policy=policy,
        initial_train_weeks=args.initial_weeks,
        use_reviser=not args.no_reviser,
        on_retrain_error=args.on_retrain_error,
        retrain_trigger=args.retrain_trigger,
        adapt_cooldown_weeks=args.adapt_cooldown_weeks,
        adapt_max_interval_weeks=args.adapt_max_interval_weeks,
    )


def _cmd_recover(args: argparse.Namespace) -> int:
    config = _framework_config(args)
    if args.fleet_dir:
        return _run_service(args, config, recover=True)
    return _run_streaming(args, config, recover=True)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _framework_config(args)
    if _sharding_requested(args):
        return _run_service(args, config)
    if (
        args.checkpoint
        or args.resume
        or args.journal
        or config.retrain_trigger == "adaptive"
    ):
        # The batch framework below honours the adaptive trigger too (it
        # replays through the same session core), but only the streaming
        # path prints the drift summary.
        return _run_streaming(args, config)
    log, report = _prepare_log(args.input, strict=args.strict)
    _print_parse_report(report)
    try:
        result = DynamicMetaLearningFramework(config).run(log)
    except NothingToEvaluate as err:
        print(
            f"error: {err} (the clean log spans {log.n_weeks} week(s); "
            f"--initial-weeks {config.initial_train_weeks})",
            file=sys.stderr,
        )
        return 2
    print(
        f"{'static' if args.static else 'dynamic'} run over weeks "
        f"{result.start_week}-{result.end_week}: "
        f"precision={result.overall.precision:.3f} "
        f"recall={result.overall.recall:.3f} "
        f"({len(result.warnings)} warnings, {len(result.retrains)} retrainings)"
    )
    if result.retrain_failures:
        print(
            f"degraded mode absorbed {len(result.retrain_failures)} "
            f"retraining failure(s) "
            f"(weeks {sorted({f.week for f in result.retrain_failures})})",
            file=sys.stderr,
        )
    table = TableResult(
        title="weekly accuracy (4-week smoothed)",
        columns=["week", "precision", "recall", "warnings", "failures"],
    )
    for wm in rolling_metrics(result.weekly, 4):
        table.add_row(
            week=wm.week,
            precision=round(wm.precision, 3),
            recall=round(wm.recall, 3),
            warnings=wm.n_warnings,
            failures=wm.n_fatal,
        )
    print(table.render())
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Stream a log through the online session and dump the registry.

    Everything — preprocessing, per-learner training, revision, predictor
    matching, retrain rounds — records into one fresh
    :class:`~repro.observe.MetricsRegistry`, which is then written as JSON
    (the same per-stage breakdown the benchmark harness attaches to its
    output files).
    """
    registry = observe.MetricsRegistry()
    with observe.use_registry(registry):
        log, report = _prepare_log(args.input, strict=args.strict)
        _print_parse_report(report)
        config = FrameworkConfig(
            prediction_window=args.window,
            retrain_weeks=args.retrain_weeks,
            policy=dynamic_months(args.train_months),
            initial_train_weeks=args.initial_weeks,
            retrain_trigger=args.retrain_trigger,
        )
        if _sharding_requested(args):
            with PredictionService(
                config,
                shard_by=args.shard_by or "location",
                shards=args.shards,
                origin=log.origin,
            ) as service:
                for event in log:
                    service.ingest(event)
                service.flush()
                summary = service.summary()
            n_retrains = summary.n_retrains
        else:
            session = OnlinePredictionSession(config, origin=log.origin)
            for event in log:
                session.ingest(event)
            summary = session.summary()
            n_retrains = len(summary.retrains)
        snapshot = registry.snapshot()
    text = json.dumps(snapshot, indent=args.indent, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(snapshot)} metrics to {args.output}")
    else:
        print(text)
    print(
        f"streamed {summary.n_events} events: {summary.n_warnings} warnings, "
        f"{n_retrains} retrainings, "
        f"precision={summary.precision:.3f} recall={summary.recall:.3f}",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """`repro serve`: TCP ingestion front-end over a prediction fleet.

    With ``--fleet-dir`` pointing at an existing fleet (its manifest is
    present), the fleet is recovered crash-consistently before serving —
    so ``repro serve`` after a kill *is* the recovery path, and producers
    only need to replay their unacknowledged tails.  SIGTERM/SIGINT
    triggers a graceful drain: stop accepting, commit pending
    micro-batches, checkpoint every shard, exit 0.
    """
    import asyncio

    from repro.net.server import PredictionServer
    from repro.service.service import MANIFEST_NAME

    config = _framework_config(args)
    fleet_dir = args.fleet_dir
    if fleet_dir and (Path(fleet_dir) / MANIFEST_NAME).exists():
        service = PredictionService.recover(
            fleet_dir,
            config,
            origin=args.origin,
            journal_fsync=args.journal_fsync,
        )
        print(
            f"recovered fleet from {fleet_dir}: "
            f"{len(service.shard_keys)} shard(s), "
            f"{service.n_ingested} events already ingested",
            file=sys.stderr,
        )
    else:
        service = PredictionService(
            config,
            shard_by=args.shard_by or "location",
            shards=args.shards,
            origin=args.origin,
            fleet_dir=fleet_dir,
            journal_fsync=args.journal_fsync,
            retain_journals=args.retain_journals,
        )
    server = PredictionServer(
        service,
        host=args.host,
        port=args.port,
        batch_size=args.batch_size,
        max_linger=args.max_linger,
        max_pending=args.max_pending,
        max_unacked=args.max_unacked,
        subscriber_queue=args.subscriber_queue,
        checkpoint_every=args.checkpoint_every,
    )

    def ready() -> None:
        durability = (
            f"fleet-dir {fleet_dir}" if fleet_dir else "no fleet dir (volatile)"
        )
        print(
            f"serving on {server.host}:{server.port} "
            f"(batch {server.batch_size}, linger {server.max_linger}s, "
            f"{durability})",
            flush=True,
        )

    stats = asyncio.run(
        server.serve(ready=ready, install_signal_handlers=True)
    )
    print(
        f"drained: {stats['accepted']} events accepted over "
        f"{stats['connections']} connection(s), {stats['shed']} shed, "
        f"{stats['errors']} errors"
    )
    return 0


def _fleet_client(args: argparse.Namespace):
    from repro.net.client import PredictionClient

    return PredictionClient(args.host, args.port, timeout=args.timeout)


def _print_shard_table(shards: dict) -> None:
    for key in sorted(shards):
        h = shards[key]
        line = f"  {key}: {h['state']}"
        if h.get("restarts"):
            line += f" restarts={h['restarts']}"
        if h.get("last_error"):
            line += f" last_error={h['last_error']!r}"
        print(line)


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    """`repro fleet status`: topology + per-shard health."""
    if args.fleet_dir:
        import json

        from repro.service.service import MANIFEST_NAME

        manifest_path = Path(args.fleet_dir) / MANIFEST_NAME
        if not manifest_path.exists():
            print(f"error: no fleet manifest at {manifest_path}", file=sys.stderr)
            return 2
        manifest = json.loads(manifest_path.read_text())
        migration = manifest.get("migration")
        print(
            f"fleet {args.fleet_dir}: epoch {manifest.get('epoch', 0)}, "
            f"{len(manifest['shards'])} shard(s)"
            + (
                f", IN-FLIGHT {migration['kind']} -> epoch "
                f"{migration['epoch']} (will roll forward on recovery)"
                if migration
                else ""
            )
        )
        for entry in manifest["shards"]:
            print(f"  {entry['key']}: {entry['dir']}")
        return 0
    with _fleet_client(args) as client:
        status = client.fleet_status()
    migration = status.get("migration")
    print(
        f"fleet at {args.host}:{args.port}: epoch {status['epoch']}, "
        f"{len(status['shards'])} shard(s)"
        + (f", migration in flight: {migration['kind']}" if migration else "")
        + (
            ", adaptive retraining"
            if status.get("retrain_trigger") == "adaptive"
            else ""
        )
    )
    _print_shard_table(status["shards"])
    drift = status.get("drift") or {}
    for key in sorted(drift):
        if drift[key] is not None:
            print(f"  {key}:")
            print(_render_drift(drift[key], indent="    "))
    return 0


def _cmd_fleet_rebalance(args: argparse.Namespace) -> int:
    """`repro fleet rebalance`: split a hot shard or merge cold ones.

    Live against a served fleet (``--host``/``--port``), or offline
    against a ``--fleet-dir`` (the fleet is recovered, resharded and
    checkpointed in-process).
    """
    if bool(args.split) == bool(args.merge):
        print(
            "error: rebalance needs exactly one of --split SHARD or "
            "--merge SHARD SHARD...",
            file=sys.stderr,
        )
        return 2
    if args.fleet_dir:
        service = PredictionService.recover(args.fleet_dir)
        with service:
            if args.split:
                targets = service.split_shard(args.split, args.parts)
                print(
                    f"split {args.split} -> {', '.join(targets)} "
                    f"(epoch {service.epoch})"
                )
            else:
                target = service.merge_shards(args.merge, args.target)
                print(
                    f"merged {', '.join(args.merge)} -> {target} "
                    f"(epoch {service.epoch})"
                )
            service.checkpoint()
        return 0
    with _fleet_client(args) as client:
        if args.split:
            result = client.split_shard(args.split, args.parts)
            print(
                f"split {args.split} -> {', '.join(result['targets'])} "
                f"(epoch {result['epoch']})"
            )
        else:
            result = client.merge_shards(args.merge, args.target)
            print(
                f"merged {', '.join(args.merge)} -> {result['target']} "
                f"(epoch {result['epoch']})"
            )
    return 0


def _cmd_fleet_restart(args: argparse.Namespace) -> int:
    """`repro fleet restart`: rolling restart of a *served* fleet."""
    with _fleet_client(args) as client:
        result = client.rolling_restart()
    restarted = result.get("restarted", [])
    print(
        f"rolling restart complete: {len(restarted)} shard(s) "
        f"({', '.join(restarted)})"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import experiments

    driver = getattr(experiments, args.name, None)
    if driver is None or not hasattr(driver, "run"):
        available = [
            name
            for name in dir(experiments)
            if hasattr(getattr(experiments, name), "run")
        ]
        print(
            f"unknown experiment {args.name!r}; available: {available}",
            file=sys.stderr,
        )
        return 2
    kwargs = {}
    if args.name != "table3":
        kwargs["seed"] = args.seed
        if args.name not in ("table2",):
            kwargs["system"] = args.system
    result = driver.run(**kwargs)
    tables = result if isinstance(result, tuple) else (result,)
    for item in tables:
        if isinstance(item, TableResult):
            print(item.render())
            print()
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _fsync_policy(text: str) -> str | int:
    try:
        return parse_fsync_policy(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    """Framework/model options shared by `run`, `recover` and `serve`."""
    parser.add_argument("--window", type=float, default=300.0)
    parser.add_argument("--retrain-weeks", type=int, default=4)
    parser.add_argument("--train-months", type=int, default=6)
    parser.add_argument("--initial-weeks", type=int, default=26)
    parser.add_argument("--static", action="store_true")
    parser.add_argument("--no-reviser", action="store_true")
    parser.add_argument(
        "--on-retrain-error",
        default="raise",
        choices=("raise", "degrade"),
        help="degrade: absorb retraining crashes and keep predicting "
        "with the previous rules (default: raise)",
    )
    parser.add_argument(
        "--retrain-trigger",
        default="fixed",
        choices=("fixed", "adaptive"),
        help="adaptive: retrain when the repro.adapt drift detectors "
        "fire instead of every --retrain-weeks (default: fixed)",
    )
    parser.add_argument(
        "--adapt-cooldown-weeks",
        type=int,
        default=2,
        metavar="N",
        help="adaptive trigger: weeks after a retraining during which "
        "drift triggers are suppressed (default: 2)",
    )
    parser.add_argument(
        "--adapt-max-interval-weeks",
        type=int,
        default=8,
        metavar="N",
        help="adaptive trigger: retrain at least every N weeks even "
        "without drift (default: 8)",
    )


def _add_durability_options(parser: argparse.ArgumentParser) -> None:
    """Checkpoint cadence + journal fsync policy (`run`/`recover`/`serve`)."""
    parser.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=None,
        metavar="N",
        help="also checkpoint after every N ingested events (N >= 1)",
    )
    parser.add_argument(
        "--journal-fsync",
        type=_fsync_policy,
        default="always",
        metavar="POLICY",
        help="journal durability: 'always' (fsync every append), a "
        "positive integer N (fsync every N appends), or 'never' "
        "(default: always)",
    )
    parser.add_argument(
        "--retain-journals",
        action="store_true",
        help="keep each shard's full journal instead of compacting at "
        "checkpoints; required for `repro fleet rebalance` (split/merge "
        "rebuilds shards by replaying journals from the start)",
    )


def _add_streaming_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by `repro run` and `repro recover`."""
    parser.add_argument("input")
    _add_model_options(parser)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 2) on the first malformed log line",
    )
    _add_durability_options(parser)
    _add_sharding_options(parser)


def _add_sharding_options(
    parser: argparse.ArgumentParser, fleet: bool = True
) -> None:
    """Fleet options shared by `repro run`, `repro recover`, `repro metrics`."""
    parser.add_argument(
        "--shard-by",
        default=None,
        choices=("location",),
        help="shard the stream into one prediction session per partition "
        "key (currently: the event's location)",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="hash-route locations into a fixed number of shards "
        "(crc32(location) %% N; implies sharding)",
    )
    if fleet:
        parser.add_argument(
            "--fleet-dir",
            default=None,
            metavar="DIR",
            help="fleet durability directory: per-shard journal + checkpoint "
            "subdirectories plus an atomic service manifest (implies "
            "sharding; recover the fleet with `repro recover --fleet-dir`)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic meta-learning failure prediction (ICPP'08 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a Blue Gene/L RAS trace")
    g.add_argument("--system", default="SDSC", choices=sorted(PROFILES))
    g.add_argument("--scale", type=float, default=0.05)
    g.add_argument("--weeks", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument(
        "--clean",
        action="store_true",
        help="write the logical (categorized) stream instead of the raw dump",
    )
    g.add_argument("--output", required=True)
    g.set_defaults(func=_cmd_generate)

    p = sub.add_parser("preprocess", help="categorize and filter a raw log")
    p.add_argument("input")
    p.add_argument("--threshold", type=float, default=300.0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_preprocess)

    t = sub.add_parser("train", help="mine and revise rules from a log")
    t.add_argument("input")
    t.add_argument("--window", type=float, default=300.0)
    t.add_argument("--no-reviser", action="store_true")
    t.add_argument("--output", required=True)
    t.set_defaults(func=_cmd_train)

    pr = sub.add_parser("predict", help="replay a log against a rule file")
    pr.add_argument("input")
    pr.add_argument("--rules", required=True)
    pr.add_argument("--window", type=float, default=300.0)
    pr.add_argument("--verbose", action="store_true")
    pr.add_argument("--max-warnings", type=int, default=20)
    pr.set_defaults(func=_cmd_predict)

    r = sub.add_parser("run", help="full dynamic train-and-predict loop")
    _add_streaming_options(r)
    r.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="stream through an online session and checkpoint to PATH",
    )
    r.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume a previously checkpointed session and continue the log",
    )
    r.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="write-ahead journal directory: append every accepted event "
        "before processing it, so a crash loses nothing past the last "
        "checkpoint (recover with `repro recover`)",
    )
    r.set_defaults(func=_cmd_run)

    srv = sub.add_parser(
        "serve",
        help="TCP ingestion server in front of a prediction fleet "
        "(ndjson frames; micro-batching, backpressure, graceful "
        "SIGTERM drain; re-serving an existing --fleet-dir recovers it)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port",
        type=int,
        default=7337,
        help="TCP port; 0 picks an ephemeral port, printed on stdout "
        "(default: 7337)",
    )
    srv.add_argument(
        "--origin",
        type=float,
        default=0.0,
        help="stream origin timestamp anchoring week arithmetic "
        "(default: 0.0)",
    )
    srv.add_argument(
        "--batch-size",
        type=_positive_int,
        default=64,
        metavar="N",
        help="commit a shard's micro-batch at N events (default: 64)",
    )
    srv.add_argument(
        "--max-linger",
        type=float,
        default=0.02,
        metavar="SECONDS",
        help="commit a shard's micro-batch once its oldest event has "
        "waited this long (default: 0.02)",
    )
    srv.add_argument(
        "--max-pending",
        type=_positive_int,
        default=1024,
        metavar="N",
        help="per-shard bound on pending events before ingests are "
        "answered 'overloaded' (default: 1024)",
    )
    srv.add_argument(
        "--max-unacked",
        type=_positive_int,
        default=1024,
        metavar="N",
        help="per-connection bound on unacknowledged ingests before "
        "shedding (default: 1024)",
    )
    srv.add_argument(
        "--subscriber-queue",
        type=_positive_int,
        default=256,
        metavar="N",
        help="bounded warning fan-out queue per subscriber; overflow "
        "drops warnings for that subscriber only (default: 256)",
    )
    _add_model_options(srv)
    _add_durability_options(srv)
    _add_sharding_options(srv)
    srv.set_defaults(func=_cmd_serve)

    fl = sub.add_parser(
        "fleet",
        help="fleet control plane: per-shard health, live resharding "
        "(split/merge), rolling restart",
    )
    fls = fl.add_subparsers(dest="fleet_command", required=True)

    def _add_fleet_endpoint(
        parser: argparse.ArgumentParser, offline: bool = True
    ) -> None:
        parser.add_argument(
            "--host",
            default="127.0.0.1",
            help="served fleet to talk to (default: 127.0.0.1)",
        )
        parser.add_argument(
            "--port", type=int, default=7337, help="default: 7337"
        )
        parser.add_argument(
            "--timeout",
            type=float,
            default=60.0,
            help="socket timeout in seconds (default: 60)",
        )
        if offline:
            parser.add_argument(
                "--fleet-dir",
                default=None,
                metavar="DIR",
                help="operate offline on this fleet directory instead of "
                "a served fleet",
            )

    fst = fls.add_parser(
        "status", help="migration epoch and per-shard up/down/quarantined"
    )
    _add_fleet_endpoint(fst)
    fst.set_defaults(func=_cmd_fleet_status)

    frb = fls.add_parser(
        "rebalance",
        help="split a hot shard (--split SHARD --parts N) or merge cold "
        "ones (--merge SHARD SHARD... [--target KEY]); live over TCP or "
        "offline with --fleet-dir",
    )
    _add_fleet_endpoint(frb)
    frb.add_argument("--split", default=None, metavar="SHARD")
    frb.add_argument(
        "--parts",
        type=_positive_int,
        default=2,
        metavar="N",
        help="children for --split (default: 2)",
    )
    frb.add_argument("--merge", nargs="+", default=None, metavar="SHARD")
    frb.add_argument(
        "--target",
        default=None,
        metavar="KEY",
        help="merged shard's key (default: merged-<epoch>)",
    )
    frb.set_defaults(func=_cmd_fleet_rebalance)

    frs = fls.add_parser(
        "restart",
        help="rolling restart of a served fleet: each shard drains, "
        "checkpoints and rejoins while the rest keep serving",
    )
    _add_fleet_endpoint(frs, offline=False)
    frs.set_defaults(func=_cmd_fleet_restart)

    rec = sub.add_parser(
        "recover",
        help="crash-consistent restart: load the checkpoint, truncate any "
        "torn journal tail, replay the journal past the checkpoint, then "
        "continue the log",
    )
    _add_streaming_options(rec)
    rec.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint file of the dead session (absent: replay the "
        "whole journal into a fresh session)",
    )
    rec.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="write-ahead journal directory of the dead session",
    )
    rec.set_defaults(func=_cmd_recover, resume=None)

    m = sub.add_parser(
        "metrics",
        help="stream a log online and emit per-stage timing/counts as JSON",
    )
    m.add_argument("input")
    m.add_argument("--window", type=float, default=300.0)
    m.add_argument("--retrain-weeks", type=int, default=4)
    m.add_argument("--train-months", type=int, default=6)
    m.add_argument("--initial-weeks", type=int, default=26)
    m.add_argument(
        "--retrain-trigger",
        default="fixed",
        choices=("fixed", "adaptive"),
        help="adaptive: drift-triggered retraining; the adapt.* series "
        "(drift scores, trigger causes, skipped retrains) land in the "
        "emitted registry",
    )
    m.add_argument("--indent", type=int, default=2)
    m.add_argument("--output", default=None)
    m.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 2) on the first malformed log line",
    )
    _add_sharding_options(m, fleet=False)
    m.set_defaults(func=_cmd_metrics, fleet_dir=None)

    e = sub.add_parser("experiment", help="regenerate a paper table/figure")
    e.add_argument("name", help="driver name, e.g. table4 or q3_window")
    e.add_argument("--system", default="SDSC", choices=sorted(PROFILES))
    e.add_argument("--seed", type=int, default=2008)
    e.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "checkpoint_every", None) and not (
        getattr(args, "checkpoint", None) or getattr(args, "fleet_dir", None)
    ):
        parser.error("--checkpoint-every requires --checkpoint or --fleet-dir")
    if _sharding_requested(args) and (
        getattr(args, "checkpoint", None)
        or getattr(args, "resume", None)
        or getattr(args, "journal", None)
    ):
        parser.error(
            "sharding options (--shard-by/--shards/--fleet-dir) "
            "cannot be combined with single-session "
            "--checkpoint/--resume/--journal; fleet durability lives under "
            "--fleet-dir"
        )
    if args.command == "recover" and not getattr(args, "fleet_dir", None):
        if not (args.checkpoint and args.journal):
            parser.error(
                "recover needs --fleet-dir (fleet recovery) or both "
                "--checkpoint and --journal (single-session recovery)"
            )
    try:
        return args.func(args)
    except (
        ParseError,
        CheckpointError,
        JournalError,
        ProtocolError,
        ReshardError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. a missing/unreadable --resume checkpoint or log path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
