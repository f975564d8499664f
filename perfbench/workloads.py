"""The three workloads: inputs generated from a seed, set-up, the timed
window, and the known-answer verdict checks.

Each ``run_*`` function returns a :class:`Outcome`.  With ``traced``
true it measures the window twice -- once untraced, once with the
:class:`~tracing.Tracer` installed -- and fills in the per-layer
metrics; the untraced window is the baseline for tracing overhead.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.advice.codec import ADVICE_RECORD_TYPES, read_advice, write_advice
from repro.attacks import ALL_ATTACKS, AttackNotApplicable
from repro.continuous import EpochSealer
from repro.continuous.codec import epoch_stream_name, write_epoch_stored
from repro.continuous.epoch import Epoch
from repro.core.work import scaled_work
from repro.harness.experiment import app_needs_store, make_app
from repro.kem.scheduler import RandomScheduler
from repro.obs import MetricsRegistry
from repro.server import KarousosPolicy, run_server
from repro.service import AuditService, TenantConfig
from repro.storage import backend_for
from repro.storage.records import encode_record
from repro.store import IsolationLevel, KVStore
from repro.trace.codec import read_trace
from repro.trace.trace import Request
from repro.verifier import audit
from repro.workload import workload_for
from repro.workload.generator import make_rid

import spec
from hostspeed import EVERY_S, RAW, Probes, Speed
from tracing import Patcher, Tracer

# The known answers.  Honest inputs must ACCEPT; inputs tampered by a
# repro.attacks attack must REJECT.  Any other verdict fails the run.
EXPECTED = {"honest": True, "tampered": False}

# Attacks that always leave an inexplicable execution, tried in a
# seed-chosen order until one has a target in the input.
TAMPER_ATTACKS = ("forge-write-value", "tamper-response", "inflate-opcounts",
                  "phantom-handler", "tamper-put-value")
# The fleet service's node journal cannot yet record a rejection whose
# site holds a HandlerId or TxId (json.dumps raises TypeError out of
# AuditService.run), so fleet-live draws from the attacks whose REJECT
# the service survives.  Widen to TAMPER_ATTACKS once that is fixed.
FLEET_TAMPER_ATTACKS = ("tamper-response", "drop-response-emitter",
                        "drop-tag")

# fleet-live's open-loop producer may fall behind its schedule by at
# most this much before the run is marked invalid.
LATE_BOUND_S = 0.5

WIKI_CONCURRENCY = 15
RENDER_PAGES = 6
# Concurrent renders make re-execution grouping and advice size follow
# the interleaving (audit cost swung 2x between seeds at concurrency 8);
# served one at a time the audit cost depends on the traffic only.
RENDER_CONCURRENCY = 1
FLEET_SEAL_EVERY = 10
FLEET_CONCURRENCY = 8
FLEET_QUOTA = 2


@dataclass
class Sizes:
    """Input sizes.  ``FULL`` is the benchmark; tests use ``TINY``."""

    wiki_requests: int = 600
    render_requests: int = 240  # 3 x ~5 s of serving at x16 in set-up
    render_work_scale: float = 16.0
    fleet_rate: float = 5.0  # epochs/s over all tenants: ~half of capacity
    setup_reps: int = 3
    min_cycles: int = 3
    warmup_requests: int = 30


FULL = Sizes()
TINY = Sizes(wiki_requests=40, render_requests=30, render_work_scale=2.0,
             fleet_rate=40.0, setup_reps=1, min_cycles=2, warmup_requests=10)


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)  # before adjustment
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    wrong: List[str] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None  # the traced window's spans

    def check(self, what: str, kind: str, accepted: bool, reason: str = "") -> None:
        self.attempted += 1
        if accepted != EXPECTED[kind]:
            got = "ACCEPT" if accepted else f"REJECT ({reason})"
            self.wrong.append(f"{what}: {kind} input got {got}")


# -- helpers -------------------------------------------------------------------


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(root) for f in files
    )


def tamper(rng: random.Random, trace, advice, attacks=TAMPER_ATTACKS):
    """Apply the first applicable attack, in a seed-chosen order."""
    by_name = {a.name: a for a in ALL_ATTACKS}
    names = list(attacks)
    rng.shuffle(names)
    for name in names:
        try:
            return name, by_name[name].apply(trace, advice)
        except AttackNotApplicable:
            continue
    raise RuntimeError("no tamper attack has a target in this input")


def _exact_counts(n: int, weights: List[float]) -> List[int]:
    """Split ``n`` into integer counts proportional to ``weights``."""
    total = sum(weights)
    counts = [int(n * w / total) for w in weights]
    counts[0] += n - sum(counts)
    return counts


def wiki_requests(n: int, seed: int) -> List[Request]:
    """The wiki mixed mix -- 25% page creates, 15% comments, 60% renders,
    shaped like :func:`repro.workload.wiki_workload` -- with the mix exact
    rather than drawn per request.  Drawn mixes swing the advice size
    about 15% between seeds, which would measure the seed rather than the
    program; the seed still picks the order and every target."""
    rng = random.Random(seed)
    kinds = []
    for kind, count in zip(("create", "comment", "render"),
                           _exact_counts(n, [25, 15, 60])):
        kinds.extend([kind] * count)
    rng.shuffle(kinds)
    kinds.remove("create")
    kinds.insert(0, "create")  # comments and renders need a page
    titles: List[str] = []
    out = []
    for i, kind in enumerate(kinds):
        rid = make_rid(i)
        if kind == "create":
            title = f"Page_{len(titles)}"
            titles.append(title)
            content = f"Contents of {title}.\nSection {len(titles) % 4}."
            out.append(Request.make(rid, "create_page", title=title,
                                    content=content))
        elif kind == "comment":
            out.append(Request.make(rid, "create_comment",
                                    title=rng.choice(titles),
                                    text=f"comment #{rng.randrange(1000)}"))
        else:
            out.append(Request.make(rid, "render", title=rng.choice(titles)))
    return out


def skewed_requests(n: int, pages: int, seed: int) -> List[Request]:
    """Zipf-like wiki render traffic: a write prefix creates ``pages``
    pages, then renders hit them with 1/rank popularity.  As in
    :func:`wiki_requests` the per-page counts are exact and the seed
    picks their order."""
    rng = random.Random(seed)
    titles = [f"Hot_{i}" for i in range(pages)]
    out = [
        Request.make(make_rid(i), "create_page", title=t,
                     content=f"Contents of {t}.")
        for i, t in enumerate(titles)
    ]
    counts = _exact_counts(n - pages, [1.0 / rank for rank in range(1, pages + 1)])
    renders = [t for t, count in zip(titles, counts) for _ in range(count)]
    rng.shuffle(renders)
    for i, title in enumerate(renders, start=pages):
        out.append(Request.make(make_rid(i), "render", title=title))
    return out


def serve_to_store(requests, seed: int, concurrency: int, root: str,
                   metrics: Optional[MetricsRegistry] = None,
                   clock: Callable[[], float] = time.perf_counter) -> float:
    """Serve wiki traffic like ``repro serve --store file``: the trace
    spools live, the advice stream is written, the binlog sealed.
    Returns the seconds from the first admission until all are sealed."""
    backend = backend_for("file", root, metrics=metrics)
    start = clock()
    store = KVStore(IsolationLevel.SERIALIZABLE, binlog_backend=backend,
                    metrics=metrics)
    run = run_server(
        make_app("wiki"), requests, KarousosPolicy(), store=store,
        scheduler=RandomScheduler(seed), concurrency=concurrency,
        trace_spool=backend.create("trace", "trace"), metrics=metrics,
    )
    write_advice(backend, "advice", run.advice)
    store.binlog.seal()
    return clock() - start


def read_and_audit(root: str, metrics: Optional[MetricsRegistry] = None):
    """Open the stored wiki streams and audit them with the defaults."""
    backend = backend_for("file", root, metrics=metrics)
    trace = read_trace(backend, "trace")
    advice = read_advice(backend, "advice")
    return trace, advice, audit(make_app("wiki"), trace, advice, metrics=metrics)


def warm_up(out: Outcome, workdir: str, sizes: Sizes,
            clock: Callable[[], float]) -> None:
    """Serve and audit a few requests so lazy imports and first-call
    costs land in set-up, not in the first timed cycle."""
    start = clock()
    root = os.path.join(workdir, "warmup")
    serve_to_store(wiki_requests(sizes.warmup_requests, seed=0), 0, 4, root)
    read_and_audit(root)
    shutil.rmtree(root)
    out.info["warmup_s"] = clock() - start


def registry_counts(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Counts from a repro.metrics/1 document; a fleet document holds one
    copy of each name per tenant (``tenant.<name>.`` prefix)."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})

    def total(table, name):
        return sum(v for k, v in table.items() if k.endswith(name))

    def peak(table, name):
        return max([v for k, v in table.items() if k.endswith(name)] or [0])

    return {
        "kem.activations": total(counters, "kem.activations"),
        "store.retries": total(counters, "store.retries"),
        "store.aborts": total(counters, "store.aborts"),
        "verifier.groups": total(counters, "reexec.groups"),
        "verifier.handlers_executed": total(counters, "reexec.handlers"),
        "verifier.graph_edges": peak(gauges, "pipeline.graph_edges"),
        "dag.nodes": total(counters, "dag.nodes_completed"),
        "service.quota_throttled": total(gauges, "service.quota_throttled"),
    }


def layer_metrics(tracer: Tracer, root_name: str, units: List[str],
                  counts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric table from one traced window: time metrics
    per unit, counts per unit (graph edges and epoch bytes as given), and
    the unaccounted remainder of the listed units."""
    summary = tracer.summary(root_name)
    out = {name: 0.0 for name in spec.per_layer_units()}
    per = max(len(units), 1)
    for name, seconds in summary["inclusive"].items():
        if name in out:
            out[name] = seconds / per
    for layer, table in spec.LAYERS.items():
        if table["spans"]:
            out[f"layer.{layer}.self_s"] = summary["self"].get(layer, 0.0) / per
    out["core.find_cycle_calls"] = summary["calls"].get("core.find_cycle_s", 0) / per
    out["storage.fsyncs"] = tracer.calls.get("storage.fsyncs", 0) / per
    out["verifier.bookkeeping_s"] = (
        summary["inclusive"].get("verifier.reexec_s", 0.0)
        - summary["inclusive"].get("app.cpu_work_s", 0.0)
    ) / per
    for name, value in counts.items():
        out[name] = value
    for name in ("kem.activations", "store.retries", "store.aborts",
                 "verifier.groups", "verifier.handlers_executed", "dag.nodes",
                 "service.quota_throttled"):
        out[name] = counts.get(name, 0) / per
    groups = counts.get("verifier.groups", 0)
    out["verifier.handlers_per_group"] = (
        counts.get("verifier.handlers_executed", 0) / groups if groups else 0.0
    )
    accounts = [summary["units"][unit] for unit in units
                if unit in summary["units"]]
    wall = sum(w for w, _ in accounts)
    unaccounted = sum(rest for _, rest in accounts)
    out["trace.unaccounted_s"] = unaccounted / per
    out["trace.unaccounted_frac"] = unaccounted / wall if wall else 0.0
    out["trace.spans_per_unit"] = len(tracer.spans) / per
    out["trace.units"] = float(len(units))
    return out


def timed_setup(out: Outcome, workdir: str, sizes: Sizes,
                step: Callable[[int, Callable[[], float]], object]
                ) -> Tuple[List[float], object]:
    """The set-up after imports: a warm-up, then ``step(rep, clock)`` run
    ``sizes.setup_reps`` times, host speed probed all along; ``clock``
    reads wall-clock time without the probes'.  Records in ``out.info``
    the median repetition and the whole set-up's speed factor; returns
    (each repetition's wall-clock speed factor, the last result)."""
    probes = Probes()
    seconds, speeds, result = [], [], None
    with probes.running():
        warm_up(out, workdir, sizes, probes.wall)
        for rep in range(sizes.setup_reps):
            start, since = probes.wall(), len(probes.times)
            result = step(rep, probes.wall)
            seconds.append(probes.wall() - start)
            speeds.append(probes.factor(since).wall)
    out.info.update(setup_step_s=statistics.median(seconds),
                    setup_speed=probes.factor().wall,
                    setup_probes=len(probes.times))
    return speeds, result


# -- batch workloads -----------------------------------------------------------


@dataclass
class BatchWindow:
    """What one timed window of audit cycles measured.  An untraced
    window probes host speed all along, and each timed piece gets the
    speed factor of the probes taken during it; a traced one does not
    probe (factor 1)."""

    probes: Probes = field(default_factory=Probes)
    walls: List[float] = field(default_factory=list)  # per cycle, no probes
    cpu_s: List[float] = field(default_factory=list)  # per cycle, no probes
    cpu_speed: List[float] = field(default_factory=list)
    serve_s: List[float] = field(default_factory=list)
    serve_speed: List[float] = field(default_factory=list)
    advice_bytes: List[int] = field(default_factory=list)  # per stored input
    audit_s: List[float] = field(default_factory=list)
    audit_speed: List[float] = field(default_factory=list)
    stored_bytes: List[int] = field(default_factory=list)
    snapshots: List[Dict[str, object]] = field(default_factory=list)
    inputs: Tuple[object, object] = (None, None)  # last (trace, advice)

    def audit(self, out: Outcome, i: int, root: str,
              metrics: Optional[MetricsRegistry]) -> None:
        """Read the stored streams back and audit them: one timed audit."""
        start, since = self.probes.wall(), len(self.probes.times)
        trace, advice, result = read_and_audit(root, metrics)
        self.audit_s.append(self.probes.wall() - start)
        self.audit_speed.append(self.probes.factor(since).wall)
        out.check(f"cycle {i}", "honest", result.accepted, result.reason)
        self.stored_bytes.append(dir_bytes(root))
        if metrics is not None:
            self.snapshots.append(metrics.snapshot())
        self.inputs = (trace, advice)


def _cycles(seconds: float, min_cycles: int,
            cycle: Callable[[BatchWindow, int, Optional[MetricsRegistry]], None],
            tracer: Optional[Tracer] = None) -> BatchWindow:
    """Run ``cycle`` until ``seconds`` passed and at least ``min_cycles``
    ran.  A traced window hands each cycle a metrics registry.  A full
    collection before each cycle starts every cycle from the same heap
    state instead of leaving earlier cycles' garbage to whichever cycle
    trips the collector; it is outside the cycle's wall and CPU time, as
    are the host-speed probes."""
    window = BatchWindow()
    probes = window.probes
    deadline = time.perf_counter() + seconds
    i = 0
    with probes.running() if tracer is None else nullcontext():
        while time.perf_counter() < deadline or i < min_cycles:
            gc.collect()
            metrics = MetricsRegistry() if tracer is not None else None
            start, cpu0, since = probes.wall(), probes.cpu(), len(probes.times)
            if tracer is None:
                cycle(window, i, metrics)
            else:
                with tracer.root("cycle", unit=f"audit-{i}"):
                    cycle(window, i, metrics)
            window.walls.append(probes.wall() - start)
            window.cpu_s.append(probes.cpu() - cpu0)
            window.cpu_speed.append(probes.factor(since).cpu)
            i += 1
    return window


def scaled(seconds: List[float], speeds: List[float]) -> List[float]:
    return [s * f for s, f in zip(seconds, speeds)]


def batch_metrics(requests: int, serve_s: List[float], audit_s: List[float],
                  cpu_s: List[float]) -> Dict[str, float]:
    """The timed end-to-end metrics of a batch window: serving time per
    serve, audit time per audit, CPU time per cycle."""
    return {
        "serve_rps": requests / statistics.median(serve_s),
        "audit_s": statistics.median(audit_s),
        "epoch_latency_p50_s": statistics.median(audit_s),
        "epoch_latency_p90_s": p90(audit_s),
        "fleet_cpu_ms_per_epoch": 1000.0 * statistics.mean(cpu_s),
    }


def _batch_outcome(out: Outcome, seed: int, requests: int,
                   measure: Callable[[Optional[Tracer]], BatchWindow],
                   traced: bool) -> Outcome:
    """End-to-end metrics from an untraced window, the tampered check,
    and with ``traced`` the per-layer metrics of a second window."""
    window = measure(None)
    out.metrics.update(batch_metrics(
        requests, scaled(window.serve_s, window.serve_speed),
        scaled(window.audit_s, window.audit_speed),
        scaled(window.cpu_s, window.cpu_speed)))
    out.metrics["advice_bytes_per_req"] = (
        statistics.mean(window.advice_bytes) / requests)
    out.raw.update(batch_metrics(requests, window.serve_s, window.audit_s,
                                 window.cpu_s))
    out.info.update(cycles=len(window.audit_s), serve_s=window.serve_s,
                    cycle_audit_s=window.audit_s,
                    window_speed=window.probes.factor())
    name, (bad_trace, bad_advice) = tamper(random.Random(seed), *window.inputs)
    result = audit(make_app("wiki"), bad_trace, bad_advice)
    out.check(f"tampered ({name})", "tampered", result.accepted, result.reason)
    out.info["attack"] = name
    if not traced:
        return out
    tracer = Tracer()
    tracer.install_layers()
    try:
        traced_window = measure(tracer)
    finally:
        tracer.restore()
    out.tracer = tracer
    counts: Dict[str, float] = {}
    for snapshot in traced_window.snapshots:
        for metric, value in registry_counts(snapshot).items():
            if metric == "verifier.graph_edges":
                counts[metric] = max(counts.get(metric, 0), value)
            else:
                counts[metric] = counts.get(metric, 0) + value
    out.per_layer = layer_metrics(
        tracer, "cycle", [f"audit-{i}" for i in range(len(traced_window.walls))],
        counts)
    out.per_layer["storage.bytes_at_rest"] = statistics.median(
        traced_window.stored_bytes)
    out.per_layer["trace.overhead_frac"] = (
        statistics.median(traced_window.walls) / statistics.median(window.walls)
        - 1.0
    )
    return out


def input_seeds(seed: int, count: int) -> List[int]:
    """The seeds of the ``count`` inputs a batch run rotates through.
    Batch audit cost swings with the input -- re-execution grouping and
    advice size follow the interleaving -- so each run measures several
    inputs drawn from its seed instead of betting on one."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def run_wiki_batch(workdir: str, seed: int, seconds: float, traced: bool,
                   sizes: Sizes = FULL) -> Outcome:
    out = Outcome()
    n = sizes.wiki_requests
    seeds = input_seeds(seed, sizes.setup_reps)
    inputs: List[List[Request]] = []
    timed_setup(out, workdir, sizes,
                lambda rep, clock: inputs.append(wiki_requests(n, seeds[rep])))

    advice_bytes: Dict[int, int] = {}  # per input; serving is deterministic

    def cycle(window: BatchWindow, i: int, metrics) -> None:
        root = os.path.join(workdir, f"cycle-{i}")
        k = i % len(inputs)
        since = len(window.probes.times)
        window.serve_s.append(serve_to_store(
            inputs[k], seeds[k], WIKI_CONCURRENCY, root, metrics,
            window.probes.wall))
        window.serve_speed.append(window.probes.factor(since).wall)
        advice_bytes[k] = os.path.getsize(os.path.join(root, "advice.rec"))
        window.audit(out, i, root, metrics)
        shutil.rmtree(root)

    def measure(tracer):
        window = _cycles(seconds, sizes.min_cycles, cycle, tracer)
        window.advice_bytes = list(advice_bytes.values())
        return window

    return _batch_outcome(out, seed, n, measure, traced)


def run_render_compute(workdir: str, seed: int, seconds: float, traced: bool,
                       sizes: Sizes = FULL) -> Outcome:
    # Serve and audit must run at the same scale.
    with scaled_work(sizes.render_work_scale):
        return _render_compute(workdir, seed, seconds, traced, sizes)


def _render_compute(workdir: str, seed: int, seconds: float, traced: bool,
                    sizes: Sizes) -> Outcome:
    out = Outcome()
    n = sizes.render_requests
    seeds = input_seeds(seed, sizes.setup_reps)
    roots: List[str] = []
    serve_s: List[float] = []

    def setup(rep: int, clock):
        root = os.path.join(workdir, f"render-{rep}")
        requests = skewed_requests(n, RENDER_PAGES, seeds[rep])
        serve_s.append(serve_to_store(requests, seeds[rep], RENDER_CONCURRENCY,
                                      root, clock=clock))
        roots.append(root)

    serve_speed, _ = timed_setup(out, workdir, sizes, setup)

    def measure(tracer):
        window = _cycles(
            seconds, sizes.min_cycles,
            lambda w, i, metrics: w.audit(out, i, roots[i % len(roots)], metrics),
            tracer)
        window.serve_s, window.serve_speed = serve_s, serve_speed  # set-up
        window.advice_bytes = [os.path.getsize(os.path.join(root, "advice.rec"))
                               for root in roots]
        return window

    return _batch_outcome(out, seed, n, measure, traced)


# -- fleet-live ----------------------------------------------------------------

# (tenant, app, tampered, fixed seed).  A tenant with a fixed seed serves
# the same traffic and interleaving whatever the run's seed: stacks' list
# requests fan out over every distinct dump, so its stream size swings
# several-fold between seeds (4-34 MiB over 25 epochs) and would measure
# the seed, not the program.  The fixed stream still grows from tens of
# KiB to about 1 MiB per epoch: the latency tail's heavy case.
FLEET_TENANTS = (
    ("wiki", "wiki", False, None),
    ("feed", "feed", False, None),
    ("stacks", "stacks", False, 2),
    ("wiki-tampered", "wiki", True, None),
)


@dataclass
class FleetInputs:
    template: str  # <template>/<tenant>/epoch-<k>.rec
    per_tenant: int  # epochs published per tenant
    attack_epoch: int
    attack: str
    requests: int  # requests inside the published epochs
    advice_bytes: int  # advice record bytes inside them
    epoch_bytes: List[int]
    serve_rps: List[float]  # one per set-up repetition so far


def _advice_record_bytes(backend, name: str) -> int:
    with backend.reader(name) as reader:
        return sum(len(encode_record(rtype, payload)) for rtype, payload in reader
                   if rtype in ADVICE_RECORD_TYPES)


def seal_fleet(workdir: str, seed: int, per_tenant: int,
               serve_rps: List[float], clock: Callable[[], float]
               ) -> FleetInputs:
    """Serve each tenant's traffic with sealing, as ``repro serve
    --seal-every N --store file`` does, keeping the first ``per_tenant``
    epochs; the tampered tenant gets one attacked epoch."""
    rng = random.Random(seed)
    template = os.path.join(workdir, "template")
    if os.path.exists(template):
        shutil.rmtree(template)
    # Epochs hold ~17 requests at seal-every 10 / concurrency 8; serve two
    # epochs' worth more than needed and check the count.
    n_requests = (per_tenant + 2) * 17
    attack_epoch = per_tenant - 1 - rng.randrange(3)
    attack = ""
    served, serve_s, requests, advice_bytes, epoch_bytes = 0, 0.0, 0, 0, []
    for name, app, tampered, fixed_seed in FLEET_TENANTS:
        traffic_seed, schedule_seed = rng.randrange(1 << 30), rng.randrange(1 << 30)
        if fixed_seed is not None:
            traffic_seed = schedule_seed = fixed_seed
        backend = backend_for("file", os.path.join(template, name))
        start = clock()
        sealer = EpochSealer(FLEET_SEAL_EVERY,
                             sink=lambda e, b=backend: write_epoch_stored(b, e))
        run_server(
            make_app(app), tenant_requests(app, n_requests, traffic_seed),
            KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE) if app_needs_store(app) else None,
            scheduler=RandomScheduler(schedule_seed),
            concurrency=FLEET_CONCURRENCY, sealer=sealer,
        )
        serve_s += clock() - start
        served += n_requests
        epochs = sealer.epochs
        if len(epochs) < per_tenant:
            raise RuntimeError(f"{name}: sealed {len(epochs)} epochs, "
                               f"need {per_tenant}")
        if tampered:
            victim = epochs[attack_epoch]
            attack, (trace, advice) = tamper(rng, victim.trace, victim.advice,
                                            FLEET_TAMPER_ATTACKS)
            write_epoch_stored(backend, Epoch(victim.index, trace, advice,
                                              victim.binlog_range))
        for epoch in epochs[:per_tenant]:
            stream = epoch_stream_name(epoch.index)
            requests += epoch.request_count
            advice_bytes += _advice_record_bytes(backend, stream)
            epoch_bytes.append(os.path.getsize(
                os.path.join(backend.root, stream + backend.suffix)))
    serve_rps.append(served / serve_s)
    return FleetInputs(template, per_tenant, attack_epoch, attack, requests,
                       advice_bytes, epoch_bytes, serve_rps)


def tenant_requests(app: str, n: int, seed: int) -> List[Request]:
    if app == "wiki":
        return wiki_requests(n, seed)
    return workload_for(app, n, seed=seed)


class _Probes:
    """Timestamps at the service's public calls, in both timed modes:
    when a poll opened each epoch, when each verdict appeared."""

    def __init__(self, expected_verdicts: int, service: AuditService):
        self.opened: Dict[Tuple[str, int], float] = {}
        self.admitted: Dict[Tuple[str, int], float] = {}
        self.verdict_at: Dict[Tuple[str, int], float] = {}
        self.expected = expected_verdicts
        self.service = service
        self.cpu_end = 0.0

    def install(self, patcher: Patcher) -> None:
        probes = self

        def poll(original):
            def wrapper(source, limit):
                start = time.perf_counter()
                epochs = original(source, limit)
                tenant = os.path.basename(source.backend.root)
                for epoch in epochs:
                    probes.opened[(tenant, epoch.index)] = start
                return epochs
            return wrapper

        def start_job(original):
            def wrapper(stream):
                start = time.perf_counter()
                started = original(stream)
                if started is not None:
                    probes.admitted[(stream.name, started[0].index)] = start
                probes._harvest(stream)
                return started
            return wrapper

        def finish_job(original):
            def wrapper(stream, epoch, dag):
                verdict = original(stream, epoch, dag)
                probes._harvest(stream)
                return verdict
            return wrapper

        patcher.patch("repro.service.tenant:EpochSource.poll", poll)
        patcher.patch("repro.service.tenant:TenantStream.start_job", start_job)
        patcher.patch("repro.service.tenant:TenantStream.finish_job", finish_job)

    def _harvest(self, stream) -> None:
        now = time.perf_counter()
        for index in stream.verdicts:
            self.verdict_at.setdefault((stream.name, index), now)
        if len(self.verdict_at) >= self.expected:
            self.cpu_end = time.process_time()
            self.service.request_stop()


@dataclass
class FleetWindow:
    """What one open-loop window measured."""

    service: AuditService
    probes: "_Probes"
    due: Dict[Tuple[str, int], float]  # scheduled publish time per epoch
    late: List[float]  # how far behind schedule each publish happened
    cpu_s: float  # the service's, without the probes'
    root: str
    speed: Speed  # from the window's host-speed probes

    def latencies(self) -> List[float]:
        return [self.probes.verdict_at[key] - at for key, at in self.due.items()
                if key in self.probes.verdict_at]

    def audit_times(self) -> List[float]:
        return [self.probes.verdict_at[key] - opened
                for key, opened in self.probes.opened.items()
                if key in self.probes.verdict_at]


def _probe_when_idle(probes: Probes, patcher: Patcher) -> None:
    """Probe host speed at the start of the service's idle sleeps, at most
    every ``EVERY_S``, sleeping only the rest of the interval: the service
    wakes when it would have, so its timing is unchanged."""
    main = threading.current_thread()
    next_at = [0.0]

    def sleep(original):
        def wrapper(seconds):
            start = time.perf_counter()
            if threading.current_thread() is not main or start < next_at[0]:
                return original(seconds)
            probes.take()
            next_at[0] = start + EVERY_S
            rest = seconds - (time.perf_counter() - start)
            if rest > 0:
                original(rest)
        return wrapper

    patcher.patch("repro.service.daemon:time.sleep", sleep)


def _fleet_window(workdir: str, inputs: FleetInputs, rate: float,
                  tracer: Optional[Tracer], deadline_s: float) -> FleetWindow:
    """Publish every epoch open-loop and audit them with the service.  An
    untraced window probes host speed before, during and after."""
    names = [tenant[0] for tenant in FLEET_TENANTS]
    window = os.path.join(workdir, "window")
    if os.path.exists(window):
        shutil.rmtree(window)
    schedule = []  # (tenant, epoch index) in publish order
    for k in range(inputs.per_tenant):
        schedule.extend((name, k) for name in names)
    for name in names:
        os.makedirs(os.path.join(window, "stage", name))
        os.makedirs(os.path.join(window, "store", name))
        for k in range(inputs.per_tenant):
            file = epoch_stream_name(k) + ".rec"
            shutil.copyfile(os.path.join(inputs.template, name, file),
                            os.path.join(window, "stage", name, file))
    service = AuditService(
        [TenantConfig(app=app, store=os.path.join(window, "store", name),
                      name=name, quota=FLEET_QUOTA)
         for name, app, _, _ in FLEET_TENANTS],
        state_dir=os.path.join(window, "state"), scheduler="serial",
    )
    probes = _Probes(len(schedule), service)
    # Traced, the probes wrap the tracer's wrappers; restoring the tracer
    # undoes both.
    patcher = tracer if tracer is not None else Patcher()
    probes.install(patcher)
    speed = Probes()
    if tracer is None:
        _probe_when_idle(speed, patcher)
        speed.take()
    gc.collect()
    due: Dict[Tuple[str, int], float] = {}
    late: List[float] = []
    stop_waiting = threading.Event()
    t0 = time.perf_counter() + 0.2

    def produce() -> None:
        for slot, (name, k) in enumerate(schedule):
            at = t0 + slot / rate
            if stop_waiting.wait(timeout=max(0.0, at - time.perf_counter())):
                return  # the window was cut short
            file = epoch_stream_name(k) + ".rec"
            os.rename(os.path.join(window, "stage", name, file),
                      os.path.join(window, "store", name, file))
            due[(name, k)] = at
            late.append(time.perf_counter() - at)
        # The service stops itself after the last verdict; this is only
        # the guard against a verdict that never comes.
        if not stop_waiting.wait(timeout=deadline_s):
            service.request_stop()

    producer = threading.Thread(target=produce, name="perfbench-producer")
    cpu0, probe_cpu0 = time.process_time(), speed.cpu_s
    producer.start()
    try:
        if tracer is None:
            service.run()
        else:
            with tracer.root("service.run", unit="fleet"):
                service.run()
    finally:
        stop_waiting.set()
        producer.join()
        patcher.restore()
    if not probes.cpu_end:
        probes.cpu_end = time.process_time()
    cpu_s = probes.cpu_end - cpu0 - (speed.cpu_s - probe_cpu0)
    if tracer is None:
        speed.take()
    return FleetWindow(service, probes, due, late, cpu_s, window,
                       speed.factor())


def _fleet_checks(out: Outcome, inputs: FleetInputs, service: AuditService) -> None:
    summary = service.summary()["tenants"]
    for name, _, tampered, _ in FLEET_TENANTS:
        verdicts = {e["epoch"]: e for e in summary[name]["epochs"]}
        for k in range(inputs.per_tenant):
            kind = "tampered" if tampered and k >= inputs.attack_epoch else "honest"
            entry = verdicts.get(k)
            if entry is None:
                out.attempted += 1
                out.wrong.append(f"{name} epoch {k}: no verdict")
                continue
            out.check(f"{name} epoch {k}", kind, entry["accepted"], entry["reason"])
        if tampered:
            first = min((k for k, e in verdicts.items() if not e["accepted"]),
                        default=None)
            if first != inputs.attack_epoch:
                out.wrong.append(f"{name}: first rejection at epoch {first}, "
                                 f"tampered epoch is {inputs.attack_epoch}")


def run_fleet_live(workdir: str, seed: int, seconds: float, traced: bool,
                   sizes: Sizes = FULL) -> Outcome:
    out = Outcome()
    rate = sizes.fleet_rate
    per_tenant = max(1, math.ceil(rate * seconds / len(FLEET_TENANTS)))
    serve_rps: List[float] = []
    serve_speed, inputs = timed_setup(
        out, workdir, sizes,
        lambda rep, clock: seal_fleet(workdir, seed, per_tenant, serve_rps,
                                      clock))
    deadline_s = 60.0 + seconds

    run = _fleet_window(workdir, inputs, rate, None, deadline_s)
    _fleet_checks(out, inputs, run.service)
    verdicts = len(run.probes.verdict_at)
    out.metrics.update(fleet_metrics(
        run, [rps / f for rps, f in zip(inputs.serve_rps, serve_speed)],
        run.speed))
    out.metrics["advice_bytes_per_req"] = inputs.advice_bytes / inputs.requests
    out.raw.update(fleet_metrics(run, inputs.serve_rps, RAW))
    out.info.update({
        "epochs": len(run.due), "verdicts": verdicts, "rate_per_s": rate,
        "window_speed": run.speed,
        "attack": inputs.attack, "attack_epoch": inputs.attack_epoch,
        "gen_late_max_s": max(run.late),
    })
    if max(run.late) > LATE_BOUND_S:
        out.invalid.append(f"producer fell {max(run.late):.3f}s behind schedule "
                           f"(bound {LATE_BOUND_S}s)")
    shutil.rmtree(run.root)
    if traced:
        tracer = Tracer()
        units: Dict[int, str] = {}

        def unit_of_start(args, result):
            if result is None:
                return None
            unit = f"{args[0].name}:{result[0].index}"
            units[id(result[1])] = unit
            return unit

        tracer.install_layers({
            "repro.service.tenant:TenantStream.start_job": unit_of_start,
            "repro.service.tenant:TenantStream.finish_job":
                lambda args, result: f"{args[0].name}:{args[1].index}",
            "repro.verifier.dag.driver:DagAuditor.execute":
                lambda args, result: units.get(id(args[0])),
        })
        traced_run = _fleet_window(workdir, inputs, rate, tracer, deadline_s)
        out.tracer = tracer
        _fleet_checks(out, inputs, traced_run.service)
        out.per_layer = fleet_layer_metrics(tracer, traced_run, inputs)
        out.per_layer["trace.overhead_frac"] = traced_run.cpu_s / run.cpu_s - 1.0
        shutil.rmtree(traced_run.root)
    return out


def fleet_metrics(run: FleetWindow, serve_rps: List[float],
                  speed: Speed) -> Dict[str, float]:
    """The timed end-to-end metrics of a fleet window, scaled by the
    window's speed factors; ``serve_rps`` holds one rate per set-up
    repetition."""
    latency = run.latencies()
    return {
        "serve_rps": statistics.median(serve_rps),
        "audit_s": speed.wall * statistics.median(run.audit_times()),
        "epoch_latency_p50_s": speed.wall * statistics.median(latency),
        "epoch_latency_p90_s": speed.wall * p90(latency),
        "fleet_cpu_ms_per_epoch": (
            speed.cpu * 1000.0 * run.cpu_s / max(len(run.probes.verdict_at), 1)),
    }


def fleet_layer_metrics(tracer: Tracer, run: FleetWindow,
                        inputs: FleetInputs) -> Dict[str, float]:
    probes = run.probes
    verdicts = len(probes.verdict_at)
    counts = registry_counts(run.service.fleet_snapshot())
    counts["continuous.epoch_bytes_mean"] = statistics.mean(inputs.epoch_bytes)
    counts["continuous.epoch_bytes_max"] = float(max(inputs.epoch_bytes))
    waits = [probes.admitted[key] - probes.opened[key]
             for key in probes.admitted if key in probes.opened]
    counts["service.queue_wait_p50_s"] = statistics.median(waits) if waits else 0.0
    # Backlog: epochs published but without a verdict, at each event.
    events = sorted([(t, 1) for t in run.due.values()]
                    + [(t, -1) for t in probes.verdict_at.values()])
    backlog = peak = 0
    for _, step in events:
        backlog += step
        peak = max(peak, backlog)
    counts["service.backlog_max"] = float(peak)
    counts["gen.late_p90_s"] = p90(run.late)
    counts["gen.late_max_s"] = max(run.late)
    epochs = [f"{name}:{k}" for name, k in probes.verdict_at]
    out = layer_metrics(tracer, "service.run", epochs, counts)
    summary = tracer.summary("service.run")
    window = summary["units"]["fleet"][0]
    idle = summary["inclusive"].get("service.idle_s", 0.0)
    out["service.idle_frac"] = idle / window if window else 0.0
    out["storage.bytes_at_rest"] = dir_bytes(run.root) / max(verdicts, 1)
    return out


RUNNERS = {
    spec.WIKI_BATCH: run_wiki_batch,
    spec.RENDER_COMPUTE: run_render_compute,
    spec.FLEET_LIVE: run_fleet_live,
}
