"""CLI observability surface: `audit --format json`, `--metrics-out`, and
`serve --metrics-out` (machine-readable verdicts and schema-valid metrics)."""

import json

import pytest

from repro.cli import EXIT_OK, EXIT_REJECTED, main
from repro.obs import validate_metrics_doc

pytestmark = pytest.mark.tier1


@pytest.fixture()
def served(tmp_path):
    store = tmp_path / "store"
    code = main(
        [
            "serve", "--app", "motd", "--requests", "20", "--seed", "7",
            "--concurrency", "4",
            "--store-path", str(store),
        ]
    )
    assert code == EXIT_OK
    return store


def _audit(store, *extra, app="motd"):
    return main(["audit", "--app", app, "--store-path", str(store), *extra])


class TestJsonFormat:
    def test_accepted_verdict_json(self, served, capsys):
        store = served
        code = _audit(store, "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        assert doc["reason"] == "accepted"
        assert set(doc) == {"accepted", "reason", "detail", "stats"}
        assert doc["stats"]["handlers_executed"] > 0

    def test_rejected_verdict_json(self, served, capsys):
        store = served
        code = _audit(store, "--format", "json", app="wiki")
        assert code == EXIT_REJECTED
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is False
        assert doc["reason"]
        assert isinstance(doc["detail"], str)

    def test_input_format_error_json(self, served, tmp_path, capsys):
        from repro.advice.codec import RT_META, STREAM_KIND
        from repro.storage import FileBackend
        from repro.storage.records import pack_json

        # An advice stream whose meta record is an empty object.
        with FileBackend(str(served)).create("advice", STREAM_KIND) as writer:
            writer.append(RT_META, pack_json({}))
        code = _audit(served, "--format", "json")
        assert code == EXIT_REJECTED
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is False
        assert doc["reason"] == "input-format"

    def test_continuous_verdict_json(self, served, capsys):
        store = served
        code = _audit(store, "--format", "json", "--epochs", "3")
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        assert isinstance(doc["epochs"], list) and doc["epochs"]
        first = doc["epochs"][0]
        assert set(first) == {
            "epoch", "accepted", "reason", "detail", "checkpoint_digest",
        }


class TestMetricsOut:
    def test_audit_metrics_out(self, served, tmp_path):
        store = served
        out = tmp_path / "metrics.json"
        code = _audit(store, "--metrics-out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        validate_metrics_doc(doc)
        assert doc["counters"]["pipeline.accepts"] == 1
        assert "pipeline.stage.reexec.seconds" in doc["histograms"]

    def test_parallel_audit_metrics_out(self, served, tmp_path):
        store = served
        out = tmp_path / "metrics.json"
        code = _audit(store, "--jobs", "2", "--metrics-out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        validate_metrics_doc(doc)
        assert doc["counters"]["worker.groups"] == doc["counters"]["reexec.groups"]

    def test_rejected_audit_records_diagnostic(self, served, tmp_path):
        store = served
        out = tmp_path / "metrics.json"
        code = _audit(store, "--metrics-out", str(out), app="wiki")
        assert code == EXIT_REJECTED
        doc = json.loads(out.read_text())
        validate_metrics_doc(doc)
        assert doc["counters"]["pipeline.rejects"] == 1
        assert doc["diagnostics"], "rejection must leave a structured diagnostic"
        assert doc["diagnostics"][0]["reason"]

    def test_serve_metrics_out(self, tmp_path):
        out = tmp_path / "metrics.json"
        code = main(
            [
                "serve", "--app", "motd", "--requests", "10",
                "--store-path", str(tmp_path / "store"),
                "--metrics-out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        validate_metrics_doc(doc)
        assert doc["counters"]["kem.requests"] == 10
        assert doc["counters"]["kem.responses"] == 10

    def test_progress_flag_prints_stages(self, served, capsys):
        store = served
        code = _audit(store, "--progress")
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "progress: reexec" in err
