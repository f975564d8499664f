"""What the benchmark measures, and why: workloads, metrics and the
layer -> end-to-end prediction table.

``BENCHMARK.json`` has a fixed key set (name, why, unit, better, bound),
so the facts it cannot hold live here: which workloads each end-to-end
metric was defined for, and which end-to-end metric each per-layer
metric should move on which workload.  Later changes cite these names.
"""

from __future__ import annotations

WIKI_BATCH = "wiki-batch"
RENDER_COMPUTE = "render-compute"
FLEET_LIVE = "fleet-live"
WORKLOADS = (WIKI_BATCH, RENDER_COMPUTE, FLEET_LIVE)

# Why each workload exists (the long form of BENCHMARK.json's ``why``).
WHY = {
    WIKI_BATCH: (
        "The paper's Fig 6/7/8 path on its flagship app: serve 600 mixed "
        "wiki requests at concurrency 15 into a file record store, read "
        "both streams back and audit with the defaults. Codec decode and "
        "verifier bookkeeping dominate; the DAG, checkpoint and service "
        "layers are not on this path."
    ),
    RENDER_COMPUTE: (
        "240 Zipf-skewed, read-only wiki renders over 6 pages, served one "
        "at a time at KAROUSOS_WORK_SCALE=16, so app compute dominates "
        "re-execution and the paper's batching claim shows. A change that "
        "trades batching for cheaper bookkeeping shows here and not in "
        "wiki-batch."
    ),
    FLEET_LIVE: (
        "The only path through continuous, verifier.dag and service: four "
        "file-backed tenants (one with a tampered epoch) fed by an "
        "open-loop producer at 5 epochs/s, about half the fleet's measured "
        "capacity of ~11/s. Stacks epochs grow as its stream lengthens, "
        "giving the latency tail a real heavy case."
    ),
}

# End-to-end metrics.  Every run prints every one of them (BENCHMARK.json
# requires it); ``defined_for`` names the workloads the metric was chosen
# for, ``elsewhere`` says what the same name measures on the others.
# Every timing among them is adjusted to the reference host speed by the
# probes of hostspeed.py taken during the same phase; the report line
# holds the raw figures too.
END_TO_END = {
    "setup_s": {
        "unit": "s",
        "defined_for": WORKLOADS,
        "definition": "imports and a small serve+audit warm-up (once) plus "
        "the median of three repetitions of input generation and the "
        "serving/sealing done in setup",
    },
    "serve_rps": {
        "unit": "req/s",
        "defined_for": (WIKI_BATCH,),
        "definition": "requests / time from first admission until the trace "
        "and advice streams are sealed on disk",
        "elsewhere": "the same ratio for the serving done in setup "
        "(render-compute: one store; fleet-live: four sealed epoch streams)",
    },
    "advice_bytes_per_req": {
        "unit": "B",
        "defined_for": (WIKI_BATCH, RENDER_COMPUTE),
        "definition": "advice record bytes on disk / requests",
        "elsewhere": "fleet-live: advice records inside the published epoch "
        "streams / requests in them",
    },
    "audit_s": {
        "unit": "s",
        "defined_for": (WIKI_BATCH, RENDER_COMPUTE),
        "definition": "median time from opening the stored trace and advice "
        "until the verdict",
        "elsewhere": "fleet-live: median over epochs of the time from the "
        "poll that opened the epoch until finish_job returns for it",
    },
    "epoch_latency_p50_s": {
        "unit": "s",
        "defined_for": (FLEET_LIVE,),
        "definition": "median time from an epoch's scheduled publish time "
        "until TenantStream.finish_job returns for it",
        "elsewhere": "batch workloads: each audit is one epoch published when "
        "its streams are sealed, so this is the median audit time",
    },
    "epoch_latency_p90_s": {
        "unit": "s",
        "defined_for": (FLEET_LIVE,),
        "definition": "90th percentile of the same latency",
        "elsewhere": "batch workloads: 90th percentile audit time",
    },
    "fleet_cpu_ms_per_epoch": {
        "unit": "ms",
        "defined_for": (FLEET_LIVE,),
        "definition": "process CPU time over the measured window / verdicts",
        "elsewhere": "batch workloads: the same ratio with one verdict per "
        "audit (wiki-batch's window includes its serving)",
    },
    "peak_rss_mib": {
        "unit": "MiB",
        "defined_for": WORKLOADS,
        "definition": "peak resident set size of the run's process",
    },
}

# Reported in the result line's ``failed``/``attempted`` and in the report
# line, not as a BENCHMARK.json metric: it is 0 on every accepted run, and
# BENCHMARK.json metrics must never be 0.  Any wrong verdict fails the run.
VERDICT_ERROR_RATE = "verdict_error_rate"

# The layer -> end-to-end prediction table.  ``spans`` are the public
# calls the traced run wraps (metric name -> dotted targets); ``counts``
# are read from the program's repro.metrics/1 registry or counted by the
# benchmark.  ``busy`` is the workload where the layer does most work,
# ``flat`` where it is predicted absent or flat.
LAYERS = {
    "serving": {
        "modules": ["kem", "server", "store"],
        "spans": {"server.serve_s": ["repro.server.run:run_server"]},
        "counts": ["kem.activations", "store.retries", "store.aborts"],
        "moves": {"serve_rps": WIKI_BATCH},
        "busy": WIKI_BATCH,
        "flat": "render-compute and fleet-live (setup_s only)",
    },
    "codec": {
        "modules": ["trace.codec", "advice.codec", "storage"],
        "spans": {
            "advice.write_s": ["repro.advice.codec:write_advice"],
            "trace.read_s": ["repro.trace.codec:read_trace"],
            "advice.read_s": ["repro.advice.codec:read_advice"],
        },
        "counts": ["storage.bytes_at_rest", "storage.fsyncs"],
        "moves": {"serve_rps": WIKI_BATCH, "audit_s": WIKI_BATCH,
                  "advice_bytes_per_req": WIKI_BATCH},
        "busy": WIKI_BATCH,
        "flat": "small share in render-compute",
    },
    "verifier": {
        "modules": ["verifier.preprocess", "verifier.isolation",
                    "verifier.reexec", "verifier.postprocess", "core.graph"],
        "spans": {
            "verifier.preprocess_s": ["repro.verifier.preprocess:preprocess"],
            "verifier.isolation_s": [
                "repro.verifier.isolation:verify_isolation_level"],
            "verifier.reexec_s": [
                "repro.verifier.reexec:ReExecutor.run",
                "repro.verifier.parallel:execute_group",
                "repro.verifier.parallel:merge_delta",
            ],
            "verifier.postprocess_s": [
                "repro.verifier.postprocess:postprocess"],
            "core.find_cycle_s": ["repro.core.graph:Digraph.find_cycle"],
        },
        "counts": ["verifier.graph_edges", "core.find_cycle_calls"],
        "moves": {"audit_s": WIKI_BATCH},
        "busy": WIKI_BATCH,
        "flat": "smaller share of fleet-live latency",
    },
    "batching": {
        "modules": ["verifier.reexec", "core.work"],
        "spans": {"app.cpu_work_s": ["repro.core.work:cpu_work"]},
        "counts": ["verifier.groups", "verifier.handlers_executed",
                   "verifier.handlers_per_group", "verifier.bookkeeping_s"],
        "moves": {"audit_s": RENDER_COMPUTE},
        "busy": RENDER_COMPUTE,
        "flat": "bookkeeping dominates in wiki-batch",
    },
    "continuous": {
        "modules": ["continuous.codec", "continuous.checkpoint",
                    "continuous.journal"],
        "spans": {
            "continuous.epoch_read_s": [
                "repro.continuous.codec:read_epoch_stream"],
            "continuous.checkpoint_s": [
                "repro.continuous.checkpoint:checkpoint_from_audit",
                "repro.continuous.checkpoint:CheckpointStore.put",
            ],
            "continuous.journal_s": [
                "repro.continuous.journal:AuditJournal.record"],
        },
        "counts": ["continuous.epoch_bytes_mean", "continuous.epoch_bytes_max"],
        "moves": {"epoch_latency_p50_s": FLEET_LIVE,
                  "fleet_cpu_ms_per_epoch": FLEET_LIVE},
        "busy": FLEET_LIVE,
        "flat": "zero in both batch workloads",
    },
    "dag": {
        "modules": ["verifier.dag"],
        "spans": {
            "dag.compile_s": ["repro.verifier.dag.plan:compile_plan"],
            "dag.epoch_digest_s": ["repro.verifier.dag.plan:epoch_digest"],
            "dag.validate_s": ["repro.verifier.dag.plan:validate_plan"],
            "dag.node_exec_s": ["repro.verifier.dag.driver:DagAuditor.execute"],
            "dag.node_journal_s": [
                "repro.verifier.dag.journal:NodeJournal.record_node"],
        },
        "counts": ["dag.nodes"],
        "moves": {"fleet_cpu_ms_per_epoch": FLEET_LIVE,
                  "epoch_latency_p50_s": FLEET_LIVE},
        "busy": FLEET_LIVE,
        "flat": "zero in wiki-batch and render-compute while audit() "
        "defaults to the pipeline; if audit() moves to the DAG these "
        "appear there and audit_s must not rise",
    },
    "service": {
        "modules": ["service.daemon", "service.pool", "service.tenant"],
        "spans": {
            "service.ingest_s": ["repro.service.tenant:EpochSource.poll"],
            "service.admit_s": ["repro.service.tenant:TenantStream.start_job"],
            "service.pump_s": ["repro.service.pool:SharedDagPool.pump"],
            "service.harvest_s": [
                "repro.service.tenant:TenantStream.finish_job"],
            "service.idle_s": ["repro.service.daemon:time.sleep"],
        },
        "counts": ["service.queue_wait_p50_s", "service.idle_frac",
                   "service.backlog_max", "service.quota_throttled"],
        "moves": {"epoch_latency_p90_s": FLEET_LIVE},
        "busy": FLEET_LIVE,
        "flat": "absent from both batch workloads",
    },
    "gen": {
        "modules": ["perfbench (the load generator)"],
        "spans": {},
        "counts": ["gen.late_p90_s", "gen.late_max_s"],
        "moves": {"validity of fleet-live": FLEET_LIVE},
        "busy": FLEET_LIVE,
        "flat": "zero in both batch workloads",
    },
}

# Per-layer metrics every traced run prints, besides the LAYERS names:
# each layer's self time per unit, and the tracer's own accounting.  A
# unit is one audit cycle (batch) or one epoch from its admission to its
# verdict (fleet-live); ``trace.unaccounted_s`` is the part of a unit's
# wall-clock that no traced call covers, per unit, and
# ``trace.unaccounted_frac`` its share of the units' wall-clock.
TRACE_METRICS = {
    "trace.unaccounted_s": "s",
    "trace.unaccounted_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.spans_per_unit": "count",
    "trace.units": "count",
}


# Spans that time waiting, not work: kept out of their layer's self time.
IDLE_SPANS = ("service.idle_s",)


def span_metrics():
    """Timed per-layer metric name -> layer whose self time it adds to."""
    return {m: ("idle" if m in IDLE_SPANS else layer)
            for layer, spec in LAYERS.items() for m in spec["spans"]}


def per_layer_units():
    """Every per-layer metric name -> unit, in table order."""
    units = {}
    for layer, spec in LAYERS.items():
        for name in spec["spans"]:
            units[name] = "s"
        for name in spec["counts"]:
            units[name] = _count_unit(name)
        if spec["spans"]:
            units[f"layer.{layer}.self_s"] = "s"
    units.update(TRACE_METRICS)
    return units


def _count_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if "bytes" in name:
        return "B"
    return "count"
