"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import hostspeed
import run
import spec
import workloads
from tracing import Tracer
from conftest import BENCH, REPO

SEED = 3
SECONDS = 0.5


def _run(name, tmp_path, traced=False):
    return workloads.RUNNERS[name](str(tmp_path), SEED, SECONDS, traced,
                                   workloads.TINY)


def _result_line(outcome, capsys, traced=False):
    args = types.SimpleNamespace(workload="wiki-batch", seed=SEED,
                                 seconds=SECONDS, trace=int(traced))
    code = run.report(args, outcome, imported=0.1)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_every_workload_completes(name, tmp_path, capsys):
    outcome = _run(name, tmp_path)
    assert outcome.wrong == [] and outcome.invalid == []
    code, report, result = _result_line(outcome, capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2  # honest audits plus a tampered one
    assert set(result["metrics"]) == set(spec.END_TO_END)
    for metric, shown in result["metrics"].items():
        assert shown["unit"] == spec.END_TO_END[metric]["unit"]
        assert shown["value"] > 0, metric
    assert report[spec.VERDICT_ERROR_RATE] == 0.0
    assert set(report["host"]) == {"nproc", "cpu_model", "python", "commit",
                                   "dirty"}


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_traced_spans_fit_in_wall_clock(name, tmp_path, capsys):
    outcome = _run(name, tmp_path, traced=True)
    layer = outcome.per_layer
    assert set(layer) == set(spec.per_layer_units())
    assert layer["trace.unaccounted_s"] >= 0.0
    assert 0.0 <= layer["trace.unaccounted_frac"] <= 1.0
    for metric in layer:
        if metric.startswith("layer."):
            assert layer[metric] >= 0.0, metric
    units = outcome.tracer.summary("cycle" if name != spec.FLEET_LIVE
                                   else "service.run")["units"]
    assert units and all(0.0 <= rest <= wall for wall, rest in units.values())
    dag = [m for m in layer if m.startswith("dag.")]
    if name == spec.FLEET_LIVE:
        assert layer["dag.compile_s"] > 0 and layer["dag.epoch_digest_s"] > 0
        assert layer["service.pump_s"] > 0
    else:
        assert all(layer[m] == 0 for m in dag)
        assert layer["verifier.reexec_s"] > 0
    code, _, result = _result_line(outcome, capsys, traced=True)
    assert code == 0 and set(result["metrics"]) == set(spec.per_layer_units())


def test_timings_are_adjusted_by_the_host_probe(tmp_path, monkeypatch):
    # A host running the probe at half the reference speed halves every
    # reported timing; the raw figures stay as measured.
    slow = 2 * hostspeed.NOMINAL_S
    monkeypatch.setattr(hostspeed, "probe", lambda: (slow, slow))
    outcome = _run(spec.WIKI_BATCH, tmp_path)
    for metric in ("audit_s", "epoch_latency_p90_s", "fleet_cpu_ms_per_epoch"):
        assert outcome.metrics[metric] == pytest.approx(
            0.5 * outcome.raw[metric]), metric
    assert outcome.metrics["serve_rps"] == pytest.approx(
        2 * outcome.raw["serve_rps"])
    assert outcome.info["setup_speed"] == pytest.approx(0.5)
    assert hostspeed.Probes().factor() == hostspeed.RAW  # a traced window


def test_tracer_children_never_exceed_parent():
    tracer = Tracer()
    calls = []

    def leaf():
        calls.append(1)

    module = types.ModuleType("repro_fake_layer")
    module.leaf = leaf
    sys.modules[module.__name__] = module
    try:
        tracer.wrap("repro_fake_layer:leaf", "leaf_s")
        with tracer.root("cycle", unit="u0"):
            for _ in range(5):
                module.leaf()
        tracer.restore()
        module.leaf()
    finally:
        del sys.modules[module.__name__]
    assert len(calls) == 6 and len(tracer.spans) == 6  # root + 5 wrapped
    summary = tracer.summary("cycle")
    (wall, unaccounted), = summary["units"].values()
    assert wall == tracer.spans[0].end - tracer.spans[0].start
    assert 0.0 <= unaccounted <= wall
    assert summary["inclusive"]["leaf_s"] == pytest.approx(wall - unaccounted)
    assert all(span.unit == "u0" for span in tracer.spans)


def test_spans_are_written(tmp_path):
    tracer = Tracer()
    with tracer.root("cycle", unit="u0"):
        inner = tracer.open("leaf_s")
        tracer.close(inner)
    tracer.write(str(tmp_path / "spans.jsonl"))
    rows = [json.loads(line) for line in
            (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [(r["index"], r["name"], r["parent"], r["unit"]) for r in rows] == [
        (0, "cycle", -1, "u0"), (1, "leaf_s", 0, "u0")]
    assert rows[0]["start"] == 0.0 <= rows[1]["start"] <= rows[1]["end"] \
        <= rows[0]["end"]


@pytest.mark.parametrize("kind", ["honest", "tampered"])
def test_flipped_expected_verdict_fails_the_run(kind, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED, kind, not workloads.EXPECTED[kind])
    outcome = _run(spec.WIKI_BATCH, tmp_path)
    assert outcome.wrong
    code, report, result = _result_line(outcome, capsys)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert report[spec.VERDICT_ERROR_RATE] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wiki-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: m["unit"] for name, m in spec.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == (
        spec.per_layer_units())
