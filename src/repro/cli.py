"""Command-line interface: serve, audit, attack, and analyze from a shell.

::

    python -m repro serve  --app wiki --requests 100 --store-path run/
    python -m repro audit  --app wiki --store-path run/
    python -m repro attack --app wiki --store-path run/ --name tamper-response
    python -m repro analyze --app wiki --conflicts
    python -m repro lint wiki --crosscheck

Every command that persists or reads a run does so through a record
store (``--store file|gzip`` rooted at ``--store-path``, DESIGN.md §8).
``audit`` exits 0 on ACCEPT and 3 on REJECT so it can gate deployments;
``lint`` exits 0 when clean and 4 on violations so it can gate merges,
as does ``analyze --conflicts`` on ERROR-severity effect findings
(R6-R9).  ``audit --static-hints`` layers the static effect analysis
onto scheduling (--jobs) and deduplication (--dedup) without changing
any verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.advice.sizing import advice_size_bytes
from repro.analysis import analyze_app, suggest_annotations
from repro.attacks import ALL_ATTACKS
from repro.harness.experiment import app_needs_store, make_app
from repro.kem.scheduler import RandomScheduler
from repro.kem.threaded import ThreadedRuntime
from repro.server import KarousosPolicy, OrochiPolicy, UnmodifiedPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor
from repro.workload import workload_for

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_LINT = 4

_POLICIES = {
    "karousos": KarousosPolicy,
    "orochi": OrochiPolicy,
    "unmodified": UnmodifiedPolicy,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Karousos (EuroSys 2024) -- serve, audit, and analyze "
        "event-driven web applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve a synthetic workload")
    serve.add_argument("--app", required=True, choices=["motd", "stacks", "wiki", "feed"])
    serve.add_argument("--requests", type=int, default=100)
    serve.add_argument("--mix", default="mixed",
                       choices=["mixed", "read-heavy", "write-heavy"])
    serve.add_argument("--concurrency", type=int, default=8)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--server", default="karousos", choices=sorted(_POLICIES))
    serve.add_argument(
        "--isolation",
        default="serializable",
        choices=[level.value for level in IsolationLevel],
    )
    serve.add_argument("--threads", type=int, default=0,
                       help="run on the threaded KEM runtime with N workers")
    serve.add_argument("--seal-every", type=int, default=0, metavar="N",
                       help="seal an epoch after every N responses (continuous "
                       "auditing); 0 disables sealing")
    _add_store_args(serve, required=False)
    _add_obs_args(serve)

    aud = sub.add_parser("audit", help="audit a stored run: its sealed epochs, "
                         "else its trace against its advice")
    aud.add_argument("--app", required=True, choices=["motd", "stacks", "wiki", "feed"])
    aud.add_argument("--epochs", type=int, default=0, metavar="N",
                     help="continuous audit: re-cut the trace into epochs of "
                     "N responses and audit them in sequence with checkpoint "
                     "hand-off")
    aud.add_argument("--singleton-groups", action="store_true",
                     help="use the sequential OOOAudit (one group per request)")
    aud.add_argument("--jobs", type=int, default=1,
                     help="shard re-execution groups across N workers "
                     "(>1 enables the parallel audit pipeline)")
    aud.add_argument("--parallel-mode", default="auto",
                     choices=["auto", "process", "thread", "serial"],
                     help="worker flavour for --jobs > 1 (default: auto)")
    aud.add_argument("--static-hints", action="store_true",
                     help="consult the static effect analysis "
                     "(repro analyze --conflicts): --jobs > 1 pre-partitions "
                     "waves by the static conflict matrix and --dedup "
                     "restricts group digests to the statically-relevant "
                     "read set; verdicts are byte-identical with hints on "
                     "or off (see DESIGN.md §12)")
    aud.add_argument("--format", default="text", choices=["text", "json"],
                     help="verdict output: human text (default) or one "
                     "machine-readable JSON object on stdout")
    aud.add_argument("--explain", action="store_true",
                     help="on REJECT, replay with singleton groups and print "
                     "a divergence report: the first diverging operation "
                     "(handler, key, expected vs claimed) plus its "
                     "precedence chain; --format json attaches it under "
                     "'explain'")
    _add_store_args(aud)
    _add_obs_args(aud)
    aud.add_argument("--dedup", action="store_true",
                     help="deduplicated re-execution: digest-identical groups "
                     "execute once per run, backed by an in-memory verdict "
                     "cache (verdicts provably unchanged; see DESIGN.md §11)")
    aud.add_argument("--cache-dir", metavar="DIR",
                     help="persist the verdict cache here (implies --dedup); "
                     "later audits over this directory warm-start from it")
    aud.add_argument("--no-cache", action="store_true",
                     help="with --dedup: in-run batching only, no verdict "
                     "cache carried across epochs or runs")
    aud.add_argument("--scheduler", default="pipeline",
                     choices=["pipeline", "serial", "thread", "process"],
                     help="execution driver: the staged pipeline (default) or "
                     "the compiled execution DAG under the named scheduler "
                     "(verdict-identical; see DESIGN.md §13 and repro plan)")
    aud.add_argument("--node-journal", metavar="DIR",
                     help="with --scheduler: persist per-node completion "
                     "records here (digest-chained), enabling node-granular "
                     "crash resume via --resume")
    aud.add_argument("--resume", action="store_true",
                     help="resume a killed DAG audit from --node-journal: "
                     "journaled re-execution results replay, only the "
                     "unfinished frontier re-executes")

    svc = sub.add_parser(
        "serve-audit",
        help="fleet audit daemon: multiplex N tenant epoch streams over "
        "one shared DAG scheduler (DESIGN.md §15)",
    )
    svc.add_argument("--tenant", action="append", required=True,
                     metavar="SPEC", dest="tenants",
                     help="one tenant: app=NAME,store=DIR[,quota=N][,name=X]"
                     "[,max_pending=N][,scheme=file|gzip][,state=DIR] "
                     "(repeatable); quota = re-execution tokens per fair "
                     "round, 0 = unlimited")
    svc.add_argument("--state-dir", required=True, metavar="DIR",
                     help="service state root: per-tenant checkpoint chains, "
                     "audit journals, and node journals live under "
                     "DIR/<tenant>/ (the resume substrate)")
    svc.add_argument("--scheduler", default="serial",
                     choices=["serial", "thread", "process"],
                     help="shared pool's execution backend (default serial)")
    svc.add_argument("--jobs", type=int, default=1,
                     help="worker width for --scheduler thread/process")
    svc.add_argument("--no-quotas", action="store_true",
                     help="disable per-tenant quotas and fair scheduling: "
                     "strict FIFO admission order (exhibits super-producer "
                     "head-of-line blocking)")
    svc.add_argument("--once", action="store_true",
                     help="batch mode: exit once every source is exhausted "
                     "and all queues drained, instead of running forever")
    svc.add_argument("--status-port", type=int, metavar="PORT",
                     help="serve GET /healthz and /metrics.json on this "
                     "port (0 = ephemeral)")
    svc.add_argument("--metrics-out", metavar="FILE",
                     help="periodically write the fleet repro.metrics/1 "
                     "snapshot here (atomic replace)")
    svc.add_argument("--metrics-every", type=float, default=2.0,
                     metavar="SECONDS",
                     help="--metrics-out refresh period (default 2.0)")
    svc.add_argument("--poll-interval", type=float, default=0.05,
                     metavar="SECONDS",
                     help="idle sleep between source polls (default 0.05)")
    svc.add_argument("--torn-limit", type=int, default=16, metavar="N",
                     help="consecutive failed decodes of one epoch before "
                     "its stream is classified corrupt instead of mid-seal; "
                     "--once then rejects the tenant (reason=input-format) "
                     "rather than waiting forever; 0 = retry forever "
                     "(default 16)")
    svc.add_argument("--dedup", action="store_true",
                     help="share one cross-tenant verdict cache (per-tenant "
                     "hit/miss attribution in the fleet snapshot)")
    svc.add_argument("--cache-dir", metavar="DIR",
                     help="persist the shared verdict cache here "
                     "(implies --dedup)")
    svc.add_argument("--format", default="text", choices=["text", "json"],
                     help="final per-tenant summary: human text (default) "
                     "or one JSON document on stdout")

    plan = sub.add_parser(
        "plan",
        help="compile an audit to its execution DAG without running it",
    )
    plan.add_argument("--app", required=True, choices=["motd", "stacks", "wiki", "feed"])
    plan.add_argument("--epochs", type=int, default=0, metavar="N",
                      help="plan a continuous audit: re-cut the trace into "
                      "epochs of N responses")
    plan.add_argument("--singleton-groups", action="store_true",
                      help="one re-execution group per request (OOOAudit)")
    plan.add_argument("--dedup", action="store_true",
                      help="plan with the dedup barrier armed")
    plan.add_argument("--static-hints", action="store_true",
                      help="fold the static conflict matrix into the wave "
                      "pre-partitioning (DESIGN.md §12)")
    plan.add_argument("--format", default="text", choices=["text", "json"],
                      help="human text (default) or the repro.plan/2 JSON "
                      "document on stdout")
    _add_store_args(plan)

    cache = sub.add_parser(
        "cache", help="inspect or manage a persisted verdict cache"
    )
    cache.add_argument("action", choices=["stats", "verify", "clear"])
    cache.add_argument("--cache-dir", required=True, metavar="DIR",
                       help="the verdict-cache directory written by "
                       "audit --cache-dir")
    cache.add_argument("--format", default="text", choices=["text", "json"])

    attack = sub.add_parser("attack", help="tamper with advice, then audit")
    attack.add_argument("--app", required=True, choices=["motd", "stacks", "wiki", "feed"])
    attack.add_argument("--name", required=True,
                        choices=[a.name for a in ALL_ATTACKS])
    _add_store_args(attack)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: loggable variables, symbolic handler "
        "effects, and the route conflict matrix",
    )
    analyze.add_argument("--app", required=True, choices=["motd", "stacks", "wiki", "feed"])
    analyze.add_argument("--conflicts", action="store_true",
                         help="also print per-route effect summaries, the "
                         "static conflict matrix, and R6-R9 findings; exits "
                         "4 when an ERROR-severity effect finding survives "
                         "suppression")
    analyze.add_argument("--format", default="text", choices=["text", "json"],
                         help="text tables (default) or the repro.effects/1 "
                         "JSON document on stdout")

    lint = sub.add_parser(
        "lint",
        help="instrumentation-completeness linter (is the app valid "
        "transpiler output?)",
    )
    lint.add_argument("app", choices=["motd", "stacks", "wiki", "feed"])
    lint.add_argument("--crosscheck", action="store_true",
                      help="also serve a workload with recording handlers and "
                      "diff observed footprints against the static prediction")
    lint.add_argument("--requests", type=int, default=80,
                      help="crosscheck workload size (default 80)")
    lint.add_argument("--seed", type=int, default=0)
    lint.add_argument("--format", default="text", choices=["text", "json"])
    lint.add_argument("--fail-on", default="error", choices=["warn", "error"],
                      help="threshold for exit code 4 (default: error)")

    fuzz = sub.add_parser(
        "fuzz",
        help="adversarial-advice fuzzer: property-based soundness/"
        "completeness campaign over the schema-derived mutation surface",
    )
    fuzz.add_argument("--app", action="append",
                      choices=["motd", "stacks", "wiki", "feed"],
                      help="restrict to this app (repeatable; default: all)")
    fuzz.add_argument("--property", default="both",
                      choices=["soundness", "completeness", "both"],
                      help="which audit contract to fuzz (default: both)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (deterministic exploration)")
    fuzz.add_argument("--max-examples", type=int, default=100,
                      help="hypothesis examples per property (default 100)")
    fuzz.add_argument("--max-requests", type=int, default=14,
                      help="largest generated workload (default 14)")
    fuzz.add_argument("--op", action="append", metavar="NAME",
                      help="restrict soundness to this mutation operator "
                      "(repeatable; see repro.fuzz.surface)")
    fuzz.add_argument("--corpus", metavar="DIR",
                      help="reproducer corpus: replayed before exploration, "
                      "and new escapes are persisted here")
    fuzz.add_argument("--format", default="text", choices=["text", "json"])
    _add_obs_args(fuzz)

    sub.add_parser("list-attacks", help="list the attack library")
    return parser


def _add_store_args(sub: argparse.ArgumentParser, required: bool = True) -> None:
    sub.add_argument("--store", default="file", choices=["file", "gzip"],
                     help="record-store backend under --store-path: plain "
                     "(default) or gzip-compressed record streams")
    sub.add_argument("--store-path", metavar="DIR",
                     help="record-store root directory"
                     + (" (required)" if required else
                        "; it must hold no record streams yet.  Without it "
                        "nothing is persisted"))


def _add_obs_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--metrics-out", metavar="FILE",
                     help="write the run's metrics registry here as JSON "
                     "(schema repro.metrics/1; enables metrics collection)")
    sub.add_argument("--progress", action="store_true",
                     help="report per-stage (audit) / per-epoch (serve) "
                     "progress on stderr")


def _make_metrics(args):
    """A live registry when --metrics-out asked for one, else None (the
    instrumented layers then run on the no-op NullMetrics)."""
    if not getattr(args, "metrics_out", None):
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry()


def _write_metrics(args, metrics) -> None:
    if metrics is None or not getattr(args, "metrics_out", None):
        return
    with open(args.metrics_out, "w") as fh:
        fh.write(metrics.to_json())
        fh.write("\n")
    print(f"metrics -> {args.metrics_out}", file=sys.stderr)


def _progress_hook(args):
    """The audit pipeline's per-stage hook behind --progress."""
    if not getattr(args, "progress", False):
        return None

    def hook(stage: str, seconds: float) -> None:
        print(f"progress: {stage} {seconds:.3f}s", file=sys.stderr)

    return hook


def _store_usage_error(args) -> Optional[str]:
    """The --store-path check shared by audit, plan and attack: the store
    must name an existing directory; None when it does."""
    if not args.store_path:
        return "--store-path is required"
    if not os.path.isdir(args.store_path):
        return f"no record store at {args.store_path}"
    return None


def _dedup_usage_error(args) -> Optional[str]:
    if args.no_cache and args.cache_dir:
        return "--no-cache and --cache-dir are mutually exclusive"
    if args.no_cache and not args.dedup:
        return "--no-cache requires --dedup"
    return None


def _dag_usage_error(args) -> Optional[str]:
    if args.scheduler == "pipeline":
        if args.node_journal:
            return "--node-journal requires --scheduler serial/thread/process"
        if args.resume:
            return "--resume requires --scheduler serial/thread/process"
        return None
    if args.resume and not args.node_journal:
        return "--resume requires --node-journal"
    return None


def _scheduler_arg(args) -> Optional[str]:
    sched = getattr(args, "scheduler", "pipeline")
    return None if sched == "pipeline" else sched


def _make_node_journal(args, metrics=None):
    """A NodeJournal over a file backend for --node-journal, else None."""
    if not getattr(args, "node_journal", None):
        return None
    from repro.storage import backend_for
    from repro.verifier.dag import NodeJournal

    return NodeJournal(backend_for("file", args.node_journal, metrics=metrics))


def _make_dedup(args, metrics=None, hints=None):
    """A Deduplicator per the --dedup/--cache-dir/--no-cache flags, or
    None when deduplication is off.  ``hints`` (StaticHints from
    --static-hints) arms the cacheability shortcut and the digest
    read-set restriction."""
    if not (args.dedup or args.cache_dir):
        return None
    from repro.verifier.dedup import Deduplicator, VerdictCache

    if args.no_cache:
        return Deduplicator(cache=None, hints=hints)
    if args.cache_dir:
        from repro.storage import backend_for

        backend = backend_for("file", args.cache_dir, metrics=metrics)
        return Deduplicator(VerdictCache(backend, metrics=metrics), hints=hints)
    return Deduplicator(VerdictCache(metrics=metrics), hints=hints)


def _make_hints(args):
    """StaticHints for --static-hints, else None."""
    if not getattr(args, "static_hints", False):
        return None
    from repro.analysis.effects import StaticHints

    return StaticHints.from_app(make_app(args.app))


def _store_backend(args, metrics=None):
    """The backend --store/--store-path name, or None without a path."""
    if not args.store_path:
        return None
    from repro.storage import backend_for

    return backend_for(args.store, args.store_path, metrics=metrics)


def _used_store_error(path: str) -> Optional[str]:
    """Serving appends to nothing: a store that already holds streams
    would mix two runs (a stale journal skips the new epochs, a shorter
    run leaves old epoch streams behind).  None when ``path`` is fresh."""
    if not os.path.isdir(path):
        return None
    from repro.storage import backend_for

    streams = sorted(
        {name for scheme in ("file", "gzip")
         for name in backend_for(scheme, path).list_streams()}
    )
    if not streams:
        return None
    return (f"--store-path {path} already holds record streams "
            f"({', '.join(streams)}); serve into an empty directory")


def _cmd_serve(args) -> int:
    if args.seal_every < 0:
        print("error: --seal-every must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.seal_every and args.threads > 0:
        # The threaded runtime has no quiescent drain hook; sealing is a
        # property of the cooperative serve loop.
        print("error: --seal-every is not supported with --threads",
              file=sys.stderr)
        return EXIT_USAGE
    policy = _POLICIES[args.server]()
    if args.store_path:
        usage = _used_store_error(args.store_path)
        if usage is None and args.server == "unmodified":
            usage = "the unmodified server produces no advice to store"
        if usage is not None:
            print(f"error: {usage}", file=sys.stderr)
            return EXIT_USAGE
    metrics = _make_metrics(args)
    backend = _store_backend(args, metrics=metrics)
    app = make_app(args.app)
    requests = workload_for(args.app, args.requests, mix=args.mix, seed=args.seed)
    store = (
        KVStore(IsolationLevel(args.isolation), binlog_backend=backend,
                metrics=metrics)
        if app_needs_store(args.app)
        else None
    )
    sealer = None
    if args.seal_every:
        from repro.continuous import EpochSealer
        from repro.continuous.codec import write_epoch_stored

        sinks = []
        if backend is not None:
            sinks.append(lambda epoch: write_epoch_stored(backend, epoch))
        if args.progress:
            sinks.append(lambda epoch: print(
                f"progress: sealed epoch {epoch.index} "
                f"({epoch.request_count} requests)", file=sys.stderr))
        sink = (lambda epoch: [s(epoch) for s in sinks]) if sinks else None
        sealer = EpochSealer(args.seal_every, sink=sink)
    if args.threads > 0:
        runtime = ThreadedRuntime(
            app, policy, store=store, scheduler=RandomScheduler(args.seed),
            concurrency=args.concurrency, parallelism=args.threads,
            metrics=metrics,
        )
        policy.runtime = runtime
        trace = runtime.serve(requests)
        advice = policy.advice()
        if backend is not None:
            # The threaded collector is shared across workers; spill the
            # frozen trace post-hoc instead of spooling live.
            from repro.trace.codec import write_trace

            write_trace(backend, "trace", trace)
    else:
        spool = backend.create("trace", "trace") if backend is not None else None
        run = run_server(
            app, requests, policy, store=store,
            scheduler=RandomScheduler(args.seed), concurrency=args.concurrency,
            sealer=sealer, trace_spool=spool, metrics=metrics,
        )
        advice = run.advice
    print(f"served {len(requests)} requests on the {args.server} server")
    if sealer is not None:
        print(f"sealed {len(sealer.epochs)} epochs")
    if advice is not None:
        if backend is not None:
            from repro.advice.codec import write_advice

            # Encode once: the stored stream's size is the advice size.
            size = write_advice(backend, "advice", advice)
        else:
            size = advice_size_bytes(advice)
        print(f"advice: {size} bytes, "
              f"{len(set(advice.tags.values()))} re-execution groups")
    if backend is not None:
        if store is not None:
            store.binlog.seal()
        streams = backend.list_streams()
        print(f"store ({args.store}) -> {args.store_path}: {', '.join(streams)}")
    _write_metrics(args, metrics)
    return EXIT_OK


def _cmd_audit(args) -> int:
    usage = (
        _store_usage_error(args)
        or _dedup_usage_error(args)
        or _dag_usage_error(args)
    )
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    from repro.errors import AdviceFormatError

    try:
        return _dispatch_audit(args)
    except AdviceFormatError as exc:
        # Corrupt, truncated, or otherwise malformed input (including a
        # failed record CRC) is a rejection, never a crash.
        if args.format == "json":
            print(json.dumps({
                "accepted": False, "reason": "input-format",
                "detail": str(exc), "stats": {},
            }, sort_keys=True))
        else:
            print("REJECT  reason=input-format")
            print(f"        {exc}")
        return EXIT_REJECTED


def _dispatch_audit(args) -> int:
    metrics = _make_metrics(args)
    progress = _progress_hook(args)
    hints = _make_hints(args)
    dedup = _make_dedup(args, metrics=metrics, hints=hints)
    try:
        return _dispatch_audit_inner(args, metrics, progress, dedup, hints)
    finally:
        if dedup is not None:
            dedup.close()  # seal the verdict-cache stream


def _missing_run_error(args, backend) -> Optional[str]:
    if backend.exists("trace") and backend.exists("advice"):
        return None
    return f"no trace/advice streams in {args.store_path}"


def _read_run(backend):
    """The stored run's trace and advice, materialised."""
    from repro.advice.codec import read_advice
    from repro.trace.codec import read_trace

    return read_trace(backend, "trace"), read_advice(backend, "advice")


def _dispatch_audit_inner(args, metrics, progress, dedup, hints=None) -> int:
    backend = _store_backend(args, metrics=metrics)
    from repro.continuous.codec import list_epoch_streams

    if not args.epochs and list_epoch_streams(backend):
        # Sealed epoch streams take precedence: audit them lazily,
        # one epoch resident at a time (O(epoch) memory).
        return _cmd_audit_continuous(
            args, backend=backend, metrics=metrics, progress=progress,
            dedup=dedup, hints=hints,
        )
    usage = _missing_run_error(args, backend)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    from repro.advice.codec import read_advice
    from repro.trace.codec import iter_trace_records, read_trace

    advice = read_advice(backend, "advice")
    if args.epochs:
        return _cmd_audit_continuous(
            args, backend=backend,
            preloaded=(read_trace(backend, "trace"), advice),
            metrics=metrics, progress=progress, dedup=dedup, hints=hints,
        )
    # The auditor consumes the record stream as an iterator; the whole
    # serialised trace never exists in this process.  run() stays inside
    # the reader scope so the decode stage's timings cover the streamed
    # read.
    with backend.reader("trace") as reader:
        auditor = Auditor(
            make_app(args.app), iter_trace_records(reader), advice,
            singleton_groups=args.singleton_groups,
            parallelism=args.jobs, parallel_mode=args.parallel_mode,
            partition="static" if hints is not None else None,
            hints=hints,
            metrics=metrics, progress=progress, dedup=dedup,
            scheduler=_scheduler_arg(args),
            node_journal=_make_node_journal(args, metrics),
            resume=args.resume,
        )
        result = auditor.run()
    # The stream was consumed; a diagnosis replay re-reads it.
    return _finish_audit(
        args, result, metrics,
        explain_ctx=lambda: (
            make_app(args.app), read_trace(backend, "trace"), advice
        ),
    )


def _explain_report(args, result, explain_ctx=None, epoch=None):
    """A DivergenceReport for a rejecting result, or None when --explain
    is off.  With an explain_ctx thunk the pair is replayed for first-op
    localization; without one (continuous epochs) the report degrades to
    the rejecting check's own site."""
    if not getattr(args, "explain", False) or result.accepted:
        return None
    from repro.verifier.explain import explain_rejection, report_from_result

    if explain_ctx is not None:
        app, trace, advice = explain_ctx()
        report = explain_rejection(app, trace, advice, epoch=epoch)
        if report is not None:
            return report
        return report_from_result(result, advice, epoch=epoch)
    return report_from_result(result, epoch=epoch)


def _finish_audit(args, result, metrics=None, explain_ctx=None) -> int:
    _write_metrics(args, metrics)
    report = _explain_report(args, result, explain_ctx)
    if args.format == "json":
        doc = {
            "accepted": result.accepted,
            "reason": result.reason,
            "detail": result.detail,
            "stats": result.stats,
        }
        if report is not None:
            doc["explain"] = report.as_json()
        print(json.dumps(doc, sort_keys=True))
        return EXIT_OK if result.accepted else EXIT_REJECTED
    if result.accepted:
        workers = f", {args.jobs} workers" if args.jobs > 1 else ""
        print(f"ACCEPT  ({result.stats['elapsed_seconds']:.3f}s, "
              f"{result.stats.get('groups', 0):.0f} groups, "
              f"graph {result.stats.get('graph_nodes', 0):.0f} nodes{workers})")
        return EXIT_OK
    print(f"REJECT  reason={result.reason}")
    if result.detail:
        print(f"        {result.detail}")
    if report is not None:
        print(report.as_text())
    return EXIT_REJECTED


def _cmd_audit_continuous(
    args, backend=None, preloaded=None, metrics=None, progress=None,
    dedup=None, hints=None,
) -> int:
    from repro.continuous import (
        AuditJournal,
        CheckpointStore,
        ContinuousAuditor,
        iter_epochs_stored,
        slice_epochs,
    )

    if preloaded is not None:
        # A re-cut of the whole run: its epochs are not the sealed ones
        # the store's journal and checkpoints describe, so resume state
        # stays in memory.
        trace, advice = preloaded
        epochs = slice_epochs(trace, advice, args.epochs)
        checkpoints, journal = CheckpointStore(), AuditJournal()
    else:
        # Checkpoints and journal live as record streams beside the
        # sealed epochs, so a crashed audit resumes on re-run.
        epochs = iter_epochs_stored(backend)
        checkpoints = CheckpointStore(backend=backend)
        journal = AuditJournal(backend=backend)
    auditor = ContinuousAuditor(
        make_app(args.app),
        parallelism=args.jobs,
        parallel_mode=args.parallel_mode,
        partition="static" if hints is not None else None,
        hints=hints,
        checkpoints=checkpoints,
        journal=journal,
        metrics=metrics,
        progress=progress,
        dedup=dedup,
        scheduler=_scheduler_arg(args),
        node_journal=_make_node_journal(args, metrics),
    )
    try:
        verdicts = auditor.run(epochs)
    finally:
        checkpoints.close()
        journal.close()
    _write_metrics(args, metrics)
    stats = auditor.stats()
    rejection = auditor.first_rejection
    accepted = rejection is None and all(v.accepted for v in verdicts)
    report = (
        None
        if rejection is None
        else _explain_report(args, rejection.result, epoch=rejection.epoch)
    )
    if args.format == "json":
        doc = {
            "accepted": accepted,
            "reason": "accepted" if rejection is None else rejection.result.reason,
            "detail": "" if rejection is None else rejection.result.detail,
            "stats": stats,
            "resumed_epochs": auditor.skipped_resumed,
            "epochs": [
                {
                    "epoch": v.epoch,
                    "accepted": v.accepted,
                    "reason": v.result.reason,
                    "detail": v.result.detail,
                    "checkpoint_digest": v.checkpoint_digest,
                }
                for v in verdicts
            ],
        }
        if report is not None:
            doc["explain"] = report.as_json()
        print(json.dumps(doc, sort_keys=True))
        return EXIT_OK if accepted else EXIT_REJECTED
    if auditor.skipped_resumed:
        print(f"resumed: {auditor.skipped_resumed} epochs already verified")
    for verdict in verdicts:
        if verdict.accepted:
            digest = (verdict.checkpoint_digest or "")[:12]
            print(f"epoch {verdict.epoch}: ACCEPT  checkpoint {digest}")
        else:
            print(f"epoch {verdict.epoch}: REJECT  reason={verdict.result.reason}")
            if verdict.result.detail:
                print(f"        {verdict.result.detail}")
            if report is not None and rejection is not None and (
                verdict.epoch == rejection.epoch
            ):
                print(report.as_text())
    print(f"{stats['epochs']:.0f} epochs, "
          f"{stats['epochs_accepted']:.0f} accepted "
          f"({stats['elapsed_seconds']:.3f}s audit time)")
    if not accepted:
        return EXIT_REJECTED
    return EXIT_OK


def _cmd_serve_audit(args) -> int:
    import signal

    from repro.service import AuditService, parse_tenant_spec

    try:
        tenants = [parse_tenant_spec(spec) for spec in args.tenants]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        service = AuditService(
            tenants,
            state_dir=args.state_dir,
            scheduler=args.scheduler,
            jobs=args.jobs,
            quotas_enabled=not args.no_quotas,
            dedup=args.dedup or bool(args.cache_dir),
            cache_dir=args.cache_dir,
            status_port=args.status_port,
            metrics_out=args.metrics_out,
            metrics_every=args.metrics_every,
            poll_interval=args.poll_interval,
            torn_limit=args.torn_limit,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def _drain(signum, frame):  # noqa: ARG001 (signal API)
        service.request_stop()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        audited = service.run(once=args.once)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
    summary = service.summary()
    if args.format == "json":
        print(json.dumps({"audited": audited, **summary}, sort_keys=True))
    else:
        for name in sorted(summary["tenants"]):
            doc = summary["tenants"][name]
            verdict = "ACCEPT" if doc["accepted"] else (
                f"REJECT reason={doc['reason']}"
            )
            print(f"tenant {name} ({doc['app']}): {verdict}  "
                  f"{len(doc['epochs'])} epochs")
        print(f"{audited} epochs audited, {summary['ticks']} ticks, "
              f"{summary['quota_rounds']} quota rounds")
    rejected = any(
        not doc["accepted"] for doc in summary["tenants"].values()
    )
    return EXIT_REJECTED if rejected else EXIT_OK


def _cmd_plan(args) -> int:
    usage = _store_usage_error(args)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    from repro.continuous import iter_epochs_stored, slice_epochs
    from repro.continuous.codec import list_epoch_streams
    from repro.verifier.dag import compile_plan, format_plan_text, single_epoch, validate_plan

    backend = _store_backend(args)
    if not args.epochs and list_epoch_streams(backend):
        epochs = list(iter_epochs_stored(backend))
    else:
        usage = _missing_run_error(args, backend)
        if usage is not None:
            print(f"error: {usage}", file=sys.stderr)
            return EXIT_USAGE
        trace, advice = _read_run(backend)
        if args.epochs:
            epochs = slice_epochs(trace, advice, args.epochs)
        else:
            epochs = [single_epoch(0, trace, advice)]
    hints = _make_hints(args)
    plan = compile_plan(
        args.app, epochs,
        singleton_groups=args.singleton_groups,
        dedup=args.dedup,
        partition="static" if hints is not None else None,
        hints=hints,
    )
    validate_plan(plan)
    if args.format == "json":
        print(plan.to_json())
    else:
        print(format_plan_text(plan))
    return EXIT_OK


def _cmd_cache(args) -> int:
    from repro.storage import backend_for
    from repro.verifier.dedup import VerdictCache

    backend = backend_for("file", args.cache_dir)
    cache = VerdictCache(backend)
    if args.action == "stats":
        doc = cache.stats()
        if args.format == "json":
            print(json.dumps(doc, sort_keys=True))
        else:
            print(f"verdict cache {args.cache_dir} (spec {doc['spec']})")
            print(f"  entries:  {doc['entries']} "
                  f"({doc['members']} members, {doc['handlers']} handlers)")
            print(f"  loaded:   {doc['loaded']}")
            print(f"  skipped:  {doc['skipped']}")
        return EXIT_OK
    if args.action == "verify":
        rows = cache.verify()
        bad = [row for row in rows if row["status"] != "ok"]
        if args.format == "json":
            print(json.dumps(
                {"records": rows, "ok": len(rows) - len(bad), "bad": len(bad)},
                sort_keys=True,
            ))
        else:
            for row in rows:
                if row["status"] == "ok":
                    print(f"ok       {row['key'][:16]}  members={row['members']}")
                else:
                    print(f"{row['status']:<8s} {row['detail']}")
            print(f"{len(rows) - len(bad)} ok, {len(bad)} bad")
        return EXIT_OK if not bad else EXIT_REJECTED
    count = cache.clear()
    print(f"cleared {count} entries from {args.cache_dir}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    usage = _store_usage_error(args)
    if usage is None:
        backend = _store_backend(args)
        usage = _missing_run_error(args, backend)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    trace, advice = _read_run(backend)
    attack = next(a for a in ALL_ATTACKS if a.name == args.name)
    try:
        tampered_trace, tampered_advice = attack.apply(trace, advice)
    except LookupError as exc:
        print(f"attack has no target in this run: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = Auditor(make_app(args.app), tampered_trace, tampered_advice).run()
    verdict = "ACCEPT" if result.accepted else f"REJECT({result.reason})"
    print(f"{attack.name}: {verdict}")
    return EXIT_OK if not result.accepted else EXIT_REJECTED


_EFFECT_RULES = frozenset({"R6", "R7", "R8", "R9"})


def _effect_findings(app):
    """The R6-R9 violations that survive source suppressions, sorted."""
    from repro.analysis import lint_app

    report = lint_app(app)
    found = [v for v in report.violations if v.rule in _EFFECT_RULES]
    return sorted(found, key=lambda v: v.sort_key())


def _sym_label(sym) -> str:
    """A compact one-token rendering of a key symbol."""
    if sym.exact:
        return sym.prefix
    if sym.unbounded:
        return "*"
    return f"{sym.prefix}*"


def _print_conflicts(effects, findings) -> None:
    print()
    print("route effects")
    print("-" * 70)
    for route, route_effect in sorted(effects.routes.items()):
        eff = route_effect.effect
        closure = "*" if route_effect.widened else str(len(route_effect.closure))
        reads = ",".join(sorted(eff.var_reads | eff.var_updates)) or "-"
        writes = ",".join(sorted(eff.var_writes)) or "-"
        kv = ",".join(sorted(
            {_sym_label(s) for s in eff.kv_reads | eff.kv_writes}
        )) or "-"
        cacheable = "yes" if eff.cacheable else "no"
        print(f"{route:<16s} closure={closure:<3s} "
              f"reads={reads} blind-writes={writes} kv={kv} "
              f"cacheable={cacheable}")
    pairs = [c for c in effects.conflicts.values() if c.conflicts]
    print()
    if pairs:
        print(f"conflicting route pairs ({len(pairs)}):")
        for c in sorted(pairs, key=lambda c: (c.a, c.b)):
            print(f"  {c.a} x {c.b}: {'; '.join(c.reasons)}")
    else:
        print("conflicting route pairs: none (all routes commute)")
    if effects.uncacheable_handlers():
        print(f"uncacheable handlers: "
              f"{', '.join(effects.uncacheable_handlers())}")
    if findings:
        print()
        for v in findings:
            print(f"{v.location()}: {v.rule} [{v.severity}] {v.fid}: "
                  f"{v.message}")
    n_err = sum(1 for v in findings if v.severity == "error")
    n_warn = len(findings) - n_err
    print()
    print(f"effect findings: {n_err} error(s), {n_warn} warning(s)")


def _cmd_analyze(args) -> int:
    from repro.analysis.effects import analyze_effects

    app = make_app(args.app)
    effects = analyze_effects(app)
    findings = _effect_findings(app) if args.conflicts else []
    if args.format == "json":
        doc = effects.to_dict()
        if args.conflicts:
            doc["findings"] = [
                {"rule": v.rule, "severity": v.severity, "fid": v.fid,
                 "file": v.file, "line": v.line, "col": v.col,
                 "message": v.message}
                for v in findings
            ]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        report = analyze_app(app)
        suggestions = suggest_annotations(app)
        print(f"{'variable':<14s} {'class':<22s} {'readers':<9s} "
              f"{'writers':<9s} suggestion")
        print("-" * 70)
        for var_id in sorted(report.declared):
            usage = report.usage[var_id]
            print(
                f"{var_id:<14s} {report.classification(var_id):<22s} "
                f"{len(usage.readers):<9d} {len(usage.writers):<9d} "
                f"{suggestions[var_id]}"
            )
        if report.undeclared:
            print(f"undeclared accesses: {sorted(report.undeclared)}")
        if report.dynamic_sites:
            print(f"dynamic access sites: {report.dynamic_sites}")
        if args.conflicts:
            _print_conflicts(effects, findings)
    if any(v.severity == "error" for v in findings):
        return EXIT_LINT
    return EXIT_OK


def _cmd_lint(args) -> int:
    from repro.analysis import crosscheck_app, lint_app

    app = make_app(args.app)
    report = lint_app(app)
    crosscheck = None
    if args.crosscheck:
        crosscheck = crosscheck_app(
            app, n_requests=args.requests, seed=args.seed
        )
    if args.format == "json":
        print(report.format_json(crosscheck))
    else:
        print(report.format_text(crosscheck))
    failed = report.fails(args.fail_on)
    if crosscheck is not None and not crosscheck.sound:
        failed = True
    return EXIT_LINT if failed else EXIT_OK


def _cmd_fuzz(args) -> int:
    from repro.fuzz import APPS, run_fuzz
    from repro.obs import NULL_METRICS

    metrics = _make_metrics(args)
    props = (
        ["soundness", "completeness"]
        if args.property == "both"
        else [args.property]
    )
    apps = tuple(dict.fromkeys(args.app)) if args.app else APPS
    reports = [
        run_fuzz(
            prop=prop,
            apps=apps,
            seed=args.seed,
            max_examples=args.max_examples,
            corpus_dir=args.corpus,
            metrics=metrics if metrics is not None else NULL_METRICS,
            max_requests=args.max_requests,
            ops=args.op,
        )
        for prop in props
    ]
    if args.format == "json":
        print(json.dumps(
            {r.prop: r.as_json() for r in reports}, indent=2, sort_keys=True
        ))
    else:
        for report in reports:
            verdict = "CLEAN" if report.clean else "ESCAPES FOUND"
            print(
                f"{report.prop}: {verdict} "
                f"({report.stats.examples} examples, "
                f"{report.stats.applied} applied, "
                f"{report.stats.skipped} skipped, "
                f"{report.corpus_replayed} corpus replays, "
                f"{report.elapsed_seconds:.1f}s)"
            )
            for reason, count in sorted(report.stats.rejects.items()):
                print(f"  reject {reason}: {count}")
            for finding in report.escapes:
                print(f"  ESCAPE: {finding['detail']}")
                print(f"    case: {json.dumps(finding['case'], sort_keys=True)}")
                if "corpus" in finding:
                    print(f"    corpus: {finding['corpus']}")
            for failure in report.corpus_failures:
                print(f"  CORPUS FAILURE: {failure['detail']} ({failure['path']})")
    _write_metrics(args, metrics)
    return EXIT_OK if all(r.clean for r in reports) else EXIT_REJECTED


def _cmd_list_attacks(_args) -> int:
    for attack in ALL_ATTACKS:
        marker = "guaranteed" if attack.guaranteed else "workload-dependent"
        print(f"{attack.name:<30s} [{marker}] {attack.description}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "serve": _cmd_serve,
        "serve-audit": _cmd_serve_audit,
        "audit": _cmd_audit,
        "plan": _cmd_plan,
        "cache": _cmd_cache,
        "attack": _cmd_attack,
        "analyze": _cmd_analyze,
        "lint": _cmd_lint,
        "fuzz": _cmd_fuzz,
        "list-attacks": _cmd_list_attacks,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
