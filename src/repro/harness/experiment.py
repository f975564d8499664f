"""Experiment drivers for the paper's evaluation (section 6).

Three measurements, one per figure family:

* :func:`measure_server_overhead` (Figure 6): wall-clock to serve a
  workload on the unmodified server vs the Karousos server, after a
  warm-up prefix (the paper warms with 120 of 600 requests and reports
  the remaining 480).
* :func:`measure_verification` (Figure 7): wall-clock for the Karousos
  verifier, the Orochi-JS verifier (same audit algorithm consuming
  Orochi-JS advice), and the sequential re-executor.
* :func:`measure_advice_sizes` (Figure 8): serialized advice bytes under
  both policies, with the variable-log share.

All runs are seeded and deterministic; Karousos and Orochi-JS servers see
identical schedules (the dispatch schedule depends only on the seed and
the activation structure, which policies do not affect).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.advice.records import Advice
from repro.advice.sizing import advice_breakdown, advice_size_bytes
from repro.apps import feed_app, motd_app, stackdump_app, wiki_app
from repro.baselines import sequential_reexecute
from repro.kem.program import AppSpec
from repro.kem.runtime import Runtime, ServerPolicy
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, OrochiPolicy, UnmodifiedPolicy
from repro.store.kv import IsolationLevel, KVStore
from repro.trace.trace import Request, Trace
from repro.verifier import audit
from repro.workload import workload_for

_APPS: Dict[str, Tuple[Callable[[], AppSpec], bool]] = {
    "motd": (motd_app, False),
    "stacks": (stackdump_app, True),
    "wiki": (wiki_app, True),
    "feed": (feed_app, True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    app_name: str
    mix: str = "mixed"
    n_requests: int = 150
    concurrency: int = 10
    seed: int = 0
    isolation: IsolationLevel = IsolationLevel.SERIALIZABLE
    warmup_fraction: float = 0.2
    # Audit-side parallelism: >1 shards re-execution groups over workers.
    jobs: int = 1


def make_app(name: str) -> AppSpec:
    return _APPS[name][0]()


def app_needs_store(name: str) -> bool:
    return _APPS[name][1]


def make_store(cfg: ExperimentConfig) -> Optional[KVStore]:
    if not app_needs_store(cfg.app_name):
        return None
    return KVStore(cfg.isolation)


def _workload(cfg: ExperimentConfig) -> List[Request]:
    return workload_for(cfg.app_name, cfg.n_requests, mix=cfg.mix, seed=cfg.seed)


def _serve_with_warmup(
    cfg: ExperimentConfig, policy: ServerPolicy
) -> Tuple[float, Trace, Optional[Advice], Runtime]:
    """Serve the workload; time only the post-warmup suffix."""
    requests = _workload(cfg)
    split = int(len(requests) * cfg.warmup_fraction)
    runtime = Runtime(
        make_app(cfg.app_name),
        policy,
        store=make_store(cfg),
        scheduler=RandomScheduler(cfg.seed),
        concurrency=cfg.concurrency,
    )
    policy.runtime = runtime
    runtime.serve(requests[:split])
    started = time.perf_counter()
    runtime.serve(requests[split:])
    elapsed = time.perf_counter() - started
    return elapsed, runtime.collector.trace(), policy.advice(), runtime


# -- Figure 6 ----------------------------------------------------------------


@dataclass
class ServerComparison:
    unmodified_seconds: float
    karousos_seconds: float

    @property
    def overhead(self) -> float:
        return self.karousos_seconds / self.unmodified_seconds


def measure_server_overhead(cfg: ExperimentConfig, repeats: int = 1) -> ServerComparison:
    """Median server-side processing time, Karousos vs unmodified."""
    unmodified = []
    karousos = []
    for r in range(repeats):
        unmodified.append(_serve_with_warmup(cfg, UnmodifiedPolicy())[0])
        karousos.append(_serve_with_warmup(cfg, KarousosPolicy())[0])
    unmodified.sort()
    karousos.sort()
    return ServerComparison(
        unmodified_seconds=unmodified[len(unmodified) // 2],
        karousos_seconds=karousos[len(karousos) // 2],
    )


# -- Figure 7 ------------------------------------------------------------------


@dataclass
class VerifierComparison:
    karousos_seconds: float
    orochi_seconds: float
    sequential_seconds: float
    karousos_groups: int
    orochi_groups: int
    karousos_accepted: bool
    orochi_accepted: bool
    sequential_match_fraction: float


def measure_verification(cfg: ExperimentConfig, repeats: int = 1) -> VerifierComparison:
    """Total verification time for the Karousos verifier, the Orochi-JS
    verifier, and the sequential re-executor (no warmup split: the paper
    verifies the full 600-request trace).

    With ``repeats > 1`` each verifier re-runs on the same trace/advice and
    the minimum time is reported (the standard noise-robust estimator).
    """
    full = ExperimentConfig(**{**cfg.__dict__, "warmup_fraction": 0.0})

    _, k_trace, k_advice, _ = _serve_with_warmup(full, KarousosPolicy())
    _, o_trace, o_advice, _ = _serve_with_warmup(full, OrochiPolicy())
    store_factory = (
        (lambda: KVStore(cfg.isolation)) if app_needs_store(cfg.app_name) else None
    )

    k_seconds, o_seconds, seq_seconds = [], [], []
    k_result = o_result = seq = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        k_result = audit(make_app(cfg.app_name), k_trace, k_advice,
                         parallelism=cfg.jobs)
        k_seconds.append(time.perf_counter() - started)

        started = time.perf_counter()
        o_result = audit(make_app(cfg.app_name), o_trace, o_advice,
                         parallelism=cfg.jobs)
        o_seconds.append(time.perf_counter() - started)

        seq = sequential_reexecute(make_app(cfg.app_name), k_trace, store_factory)
        seq_seconds.append(seq.elapsed_seconds)

    return VerifierComparison(
        karousos_seconds=min(k_seconds),
        orochi_seconds=min(o_seconds),
        sequential_seconds=min(seq_seconds),
        karousos_groups=int(k_result.stats.get("groups", 0)),
        orochi_groups=int(o_result.stats.get("groups", 0)),
        karousos_accepted=k_result.accepted,
        orochi_accepted=o_result.accepted,
        sequential_match_fraction=seq.match_fraction,
    )


@dataclass
class ParallelAuditComparison:
    """Sequential vs sharded audit of one served trace (same advice)."""

    sequential_seconds: float
    parallel_seconds: Dict[int, float]  # jobs -> seconds
    sequential_accepted: bool
    parallel_accepted: Dict[int, bool]
    stats_identical: Dict[int, bool]  # modulo elapsed_seconds
    mode_used: Dict[int, str]

    def speedup(self, jobs: int) -> float:
        return self.sequential_seconds / self.parallel_seconds[jobs]


def measure_parallel_audit(
    cfg: ExperimentConfig,
    jobs_list: Tuple[int, ...] = (2, 4),
    repeats: int = 1,
    mode: str = "auto",
) -> ParallelAuditComparison:
    """Audit one Karousos-served trace sequentially and with the parallel
    pipeline at each worker count in ``jobs_list``; minimum time over
    ``repeats`` per configuration.  Also records whether verdict and
    deterministic stats matched the sequential audit (they must)."""
    from repro.verifier import Auditor

    full = ExperimentConfig(**{**cfg.__dict__, "warmup_fraction": 0.0})
    _, trace, advice, _ = _serve_with_warmup(full, KarousosPolicy())

    def strip(stats: Dict[str, float]) -> Dict[str, float]:
        return {k: v for k, v in stats.items() if k != "elapsed_seconds"}

    seq_seconds = []
    seq_result = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        seq_result = audit(make_app(cfg.app_name), trace, advice)
        seq_seconds.append(time.perf_counter() - started)

    par_seconds: Dict[int, float] = {}
    par_accepted: Dict[int, bool] = {}
    stats_identical: Dict[int, bool] = {}
    mode_used: Dict[int, str] = {}
    for jobs in jobs_list:
        timings = []
        for _ in range(max(1, repeats)):
            auditor = Auditor(
                make_app(cfg.app_name), trace, advice,
                parallelism=jobs, parallel_mode=mode,
            )
            started = time.perf_counter()
            result = auditor.run()
            timings.append(time.perf_counter() - started)
        par_seconds[jobs] = min(timings)
        par_accepted[jobs] = result.accepted
        stats_identical[jobs] = (
            result.accepted == seq_result.accepted
            and result.reason == seq_result.reason
            and strip(result.stats) == strip(seq_result.stats)
        )
        mode_used[jobs] = auditor.parallel.mode_used if auditor.parallel else "sequential"

    return ParallelAuditComparison(
        sequential_seconds=min(seq_seconds),
        parallel_seconds=par_seconds,
        sequential_accepted=seq_result.accepted,
        parallel_accepted=par_accepted,
        stats_identical=stats_identical,
        mode_used=mode_used,
    )


# -- audit phase breakdown (DESIGN.md §9) --------------------------------------


@dataclass
class AuditPhaseBreakdown:
    """Where one audit's wall-clock went, stage by stage.

    ``stage_seconds`` follows the pipeline's stage order (decode,
    preprocess, isolation, reexec, postprocess, checkpoint);
    ``metrics`` is the full registry snapshot of the run.  Under the DAG
    driver (``scheduler=``), ``node_seconds`` carries the per-node spans
    the stage totals aggregate: ``(epoch, stage, group, seconds)``."""

    accepted: bool
    elapsed_seconds: float
    stage_seconds: Dict[str, float]
    metrics: Dict[str, object]
    driver: str = "pipeline"
    node_seconds: List[Tuple[int, str, Optional[str], float]] = field(
        default_factory=list
    )

    @property
    def stage_total(self) -> float:
        return sum(self.stage_seconds.values())

    def fractions(self) -> Dict[str, float]:
        total = self.stage_total or 1.0
        return {name: sec / total for name, sec in self.stage_seconds.items()}


def measure_audit_phases(
    cfg: ExperimentConfig, scheduler: Optional[str] = None
) -> AuditPhaseBreakdown:
    """Serve once on the Karousos server, then audit with the staged
    pipeline's per-stage timers on; reports the phase breakdown the paper
    discusses qualitatively (preprocess vs re-execution vs postprocess).

    ``scheduler`` routes the audit through the DAG driver instead
    (DESIGN.md §13): stage totals then aggregate the per-node spans also
    returned in ``node_seconds``."""
    from repro.obs import MetricsRegistry
    from repro.verifier import Auditor

    full = ExperimentConfig(**{**cfg.__dict__, "warmup_fraction": 0.0})
    _, trace, advice, _ = _serve_with_warmup(full, KarousosPolicy())
    metrics = MetricsRegistry()
    auditor = Auditor(
        make_app(cfg.app_name), trace, advice,
        parallelism=cfg.jobs, metrics=metrics, scheduler=scheduler,
    )
    result = auditor.run()
    return AuditPhaseBreakdown(
        accepted=result.accepted,
        elapsed_seconds=result.stats["elapsed_seconds"],
        stage_seconds=dict(auditor.stage_seconds),
        metrics=metrics.snapshot(),
        driver="dag" if auditor.dag is not None else "pipeline",
        node_seconds=list(auditor.dag.node_seconds) if auditor.dag else [],
    )


# -- continuous auditing (DESIGN.md §6) ---------------------------------------


@dataclass
class ContinuousAuditComparison:
    """Epoch-sealed streaming audit vs the monolithic audit of one run."""

    seal_every: int
    epochs: int
    monolithic_seconds: float
    continuous_seconds: float  # sum of per-epoch audit times
    first_verdict_seconds: float  # time from first submit to first verdict
    peak_pending: int
    backpressure_events: int
    monolithic_accepted: bool
    continuous_accepted: bool
    handlers_match: bool  # per-epoch handler executions sum to monolithic

    @property
    def verdicts_match(self) -> bool:
        return self.monolithic_accepted == self.continuous_accepted


def measure_continuous_audit(
    cfg: ExperimentConfig,
    seal_every: int,
    max_pending: int = 4,
    repeats: int = 1,
) -> ContinuousAuditComparison:
    """Serve once with an epoch sealer, then audit the sealed stream
    continuously (checkpoint hand-off between epochs) and monolithically;
    minimum audit time over ``repeats`` for both sides."""
    from repro.continuous import ContinuousAuditor, EpochSealer
    from repro.server.run import run_server

    app_fn = _APPS[cfg.app_name][0]
    sealer = EpochSealer(seal_every)
    run = run_server(
        app_fn(),
        _workload(cfg),
        KarousosPolicy(),
        store=make_store(cfg),
        scheduler=RandomScheduler(cfg.seed),
        concurrency=cfg.concurrency,
        sealer=sealer,
    )

    mono_seconds = []
    mono_result = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        mono_result = audit(app_fn(), run.trace, run.advice, parallelism=cfg.jobs)
        mono_seconds.append(time.perf_counter() - started)

    cont_seconds = []
    auditor = None
    for _ in range(max(1, repeats)):
        auditor = ContinuousAuditor(
            app_fn(), parallelism=cfg.jobs, max_pending=max_pending
        )
        started = time.perf_counter()
        for epoch in sealer.epochs:
            auditor.submit(epoch)
        auditor.drain()
        cont_seconds.append(time.perf_counter() - started)

    stats = auditor.stats()
    handlers_match = stats["handlers_executed"] == mono_result.stats.get(
        "handlers_executed", -1
    )
    return ContinuousAuditComparison(
        seal_every=seal_every,
        epochs=len(sealer.epochs),
        monolithic_seconds=min(mono_seconds),
        continuous_seconds=min(cont_seconds),
        first_verdict_seconds=stats.get("first_verdict_seconds", 0.0),
        peak_pending=int(stats["peak_pending"]),
        backpressure_events=int(stats["backpressure_events"]),
        monolithic_accepted=mono_result.accepted,
        continuous_accepted=auditor.accepted,
        handlers_match=handlers_match,
    )


# -- Figure 8 ---------------------------------------------------------------------


@dataclass
class AdviceSizes:
    karousos_bytes: int
    orochi_bytes: int
    karousos_breakdown: Dict[str, int] = field(default_factory=dict)
    orochi_breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def variable_log_share(self) -> float:
        total = self.karousos_bytes or 1
        return self.karousos_breakdown.get("variable_logs", 0) / total


def measure_advice_sizes(cfg: ExperimentConfig) -> AdviceSizes:
    full = ExperimentConfig(**{**cfg.__dict__, "warmup_fraction": 0.0})
    _, _, k_advice, _ = _serve_with_warmup(full, KarousosPolicy())
    _, _, o_advice, _ = _serve_with_warmup(full, OrochiPolicy())
    return AdviceSizes(
        karousos_bytes=advice_size_bytes(k_advice),
        orochi_bytes=advice_size_bytes(o_advice),
        karousos_breakdown=advice_breakdown(k_advice),
        orochi_breakdown=advice_breakdown(o_advice),
    )


# -- Storage layer (DESIGN.md §8) ----------------------------------------------

STORAGE_SCHEMES = ("memory", "file", "gzip")


def _deterministic_stats(result) -> Dict[str, float]:
    return {k: v for k, v in result.stats.items() if k != "elapsed_seconds"}


def _scheme_backend(scheme: str, root: str):
    from repro.storage import backend_for

    if scheme == "memory":
        return backend_for("memory")
    return backend_for(scheme, os.path.join(root, scheme))


@dataclass
class StorageIoComparison:
    """Round-trip cost of each record-store scheme on one served
    trace+advice pair; times are minima over ``repeats``."""

    trace_events: int
    encode_seconds: Dict[str, float] = field(default_factory=dict)
    decode_seconds: Dict[str, float] = field(default_factory=dict)
    stored_bytes: Dict[str, int] = field(default_factory=dict)
    verdict_matches: Dict[str, bool] = field(default_factory=dict)

    @property
    def all_verdicts_match(self) -> bool:
        return all(self.verdict_matches.values())


def measure_storage_io(
    cfg: ExperimentConfig, root: str, repeats: int = 1
) -> StorageIoComparison:
    """Serve once, then push the trace+advice through every storage scheme:
    encode time, decode time, bytes at rest, and whether the audit of the
    decoded copy matches the audit of the original."""
    from repro.advice.codec import read_advice, write_advice
    from repro.trace.codec import read_trace, write_trace

    full = ExperimentConfig(**{**cfg.__dict__, "warmup_fraction": 0.0})
    _, trace, advice, _ = _serve_with_warmup(full, KarousosPolicy())
    app_fn = _APPS[cfg.app_name][0]
    baseline = audit(app_fn(), trace, advice)
    base_key = (
        baseline.accepted, baseline.reason, _deterministic_stats(baseline)
    )
    out = StorageIoComparison(trace_events=len(trace))
    for scheme in STORAGE_SCHEMES:
        enc, dec = [], []
        decoded = None
        for _ in range(max(1, repeats)):
            backend = _scheme_backend(scheme, root)
            started = time.perf_counter()
            write_trace(backend, "trace", trace)
            write_advice(backend, "advice", advice)
            enc.append(time.perf_counter() - started)
            out.stored_bytes[scheme] = _stored_bytes(scheme, backend, root)
            started = time.perf_counter()
            decoded = (read_trace(backend, "trace"), read_advice(backend, "advice"))
            dec.append(time.perf_counter() - started)
        result = audit(app_fn(), decoded[0], decoded[1])
        out.encode_seconds[scheme] = min(enc)
        out.decode_seconds[scheme] = min(dec)
        out.verdict_matches[scheme] = base_key == (
            result.accepted, result.reason, _deterministic_stats(result)
        )
    return out


def _stored_bytes(scheme: str, backend, root: str) -> int:
    if scheme == "memory":
        return sum(len(backend.raw(n)) for n in backend.list_streams())
    suffix = backend.suffix
    directory = os.path.join(root, scheme)
    return sum(
        os.path.getsize(os.path.join(directory, f))
        for f in os.listdir(directory)
        if f.endswith(suffix)
    )


@dataclass
class StreamingMemoryComparison:
    """Continuous audit over stored epoch streams vs a monolithic audit of
    the same run, with peak-memory measurements of the audit phase.

    ``*_peak_bytes`` are tracemalloc peaks (deterministic, interpreter
    baseline excluded) -- the quantity the O(epoch) claim is asserted on.
    ``*_peak_rss_kib`` are each side's true peak RSS (``ru_maxrss``)
    measured in a fresh subprocess, when ``measure_rss`` is set."""

    seal_every: int
    epochs: int
    trace_events: int
    streamed_peak_bytes: int
    monolithic_peak_bytes: int
    streamed_accepted: bool
    monolithic_accepted: bool
    streamed_peak_rss_kib: Optional[int] = None
    monolithic_peak_rss_kib: Optional[int] = None

    @property
    def verdicts_match(self) -> bool:
        return self.streamed_accepted == self.monolithic_accepted


def serve_to_store(cfg: ExperimentConfig, seal_every: int, root: str) -> int:
    """Serve once, persisting trace, advice, and sealed epoch streams to a
    file backend at ``root``; returns the epoch count."""
    from repro.advice.codec import write_advice
    from repro.continuous import EpochSealer
    from repro.continuous.codec import write_epoch_stored
    from repro.server.run import run_server
    from repro.storage import FileBackend

    backend = FileBackend(root)
    sealer = EpochSealer(seal_every, sink=lambda e: write_epoch_stored(backend, e))
    spool = backend.create("trace", "trace")
    run = run_server(
        _APPS[cfg.app_name][0](),
        _workload(cfg),
        KarousosPolicy(),
        store=make_store(cfg),
        scheduler=RandomScheduler(cfg.seed),
        concurrency=cfg.concurrency,
        sealer=sealer,
        trace_spool=spool,
    )
    write_advice(backend, "advice", run.advice)
    return len(sealer.epochs)


def _audit_streamed(app_name: str, root: str) -> bool:
    from repro.continuous import ContinuousAuditor, iter_epochs_stored
    from repro.storage import FileBackend

    auditor = ContinuousAuditor(_APPS[app_name][0]())
    auditor.run(iter_epochs_stored(FileBackend(root)))
    return auditor.accepted


def _audit_monolithic(app_name: str, root: str) -> bool:
    from repro.advice.codec import read_advice
    from repro.trace.codec import read_trace
    from repro.storage import FileBackend

    backend = FileBackend(root)
    return audit(
        _APPS[app_name][0](),
        read_trace(backend, "trace"),
        read_advice(backend, "advice"),
    ).accepted


def _traced_peak(fn) -> Tuple[int, bool]:
    import tracemalloc

    tracemalloc.start()
    try:
        accepted = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, accepted


def _subprocess_peak_rss(mode: str, app_name: str, root: str) -> Tuple[int, bool]:
    """Run one audit mode in a fresh interpreter; its ru_maxrss is a true
    whole-process peak-RSS for that mode alone."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys; from repro.harness.experiment import storage_child_main; "
        "sys.exit(storage_child_main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, mode, app_name, root],
        capture_output=True, text=True, env=env, check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return int(doc["peak_rss_kib"]), bool(doc["accepted"])


def _own_peak_rss_kib() -> int:
    """This process's peak RSS.  Prefers /proc VmHWM, which execve resets,
    over ru_maxrss, which a forked child inherits from its parent -- a fat
    parent would otherwise floor the measurement."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def storage_child_main(argv: List[str]) -> int:
    """Subprocess entry point for :func:`_subprocess_peak_rss`."""
    mode, app_name, root = argv
    runner = _audit_streamed if mode == "streamed" else _audit_monolithic
    accepted = runner(app_name, root)
    print(json.dumps({"peak_rss_kib": _own_peak_rss_kib(), "accepted": accepted}))
    return 0


def measure_streaming_memory(
    cfg: ExperimentConfig,
    seal_every: int,
    root: str,
    measure_rss: bool = False,
) -> StreamingMemoryComparison:
    """Serve to a file store once, then audit it both ways and measure the
    audit phase's peak memory.  The streamed side consumes
    ``iter_epochs_stored`` lazily, so its peak tracks the epoch size; the
    monolithic side must hold the whole decoded trace+advice."""
    epochs = serve_to_store(cfg, seal_every, root)
    streamed_peak, streamed_ok = _traced_peak(
        lambda: _audit_streamed(cfg.app_name, root)
    )
    mono_peak, mono_ok = _traced_peak(
        lambda: _audit_monolithic(cfg.app_name, root)
    )
    out = StreamingMemoryComparison(
        seal_every=seal_every,
        epochs=epochs,
        trace_events=2 * cfg.n_requests,
        streamed_peak_bytes=streamed_peak,
        monolithic_peak_bytes=mono_peak,
        streamed_accepted=streamed_ok,
        monolithic_accepted=mono_ok,
    )
    if measure_rss:
        out.streamed_peak_rss_kib, _ = _subprocess_peak_rss(
            "streamed", cfg.app_name, root
        )
        out.monolithic_peak_rss_kib, _ = _subprocess_peak_rss(
            "monolithic", cfg.app_name, root
        )
    return out
