"""Differential equivalence of the storage layer (DESIGN.md §8).

An audit must be a pure function of the *logical* trace+advice pair: the
record-stream round trip on any backend (memory, file, gzip) must never
change the verdict, the rejection reason, or the deterministic
statistics of auditing the in-memory pair directly.  Proven here on all
four bundled apps, honest and under every tamper in the attack library,
plus the CLI surface (``--store file|gzip``).
"""

import pytest

from repro.advice.codec import read_advice, write_advice
from repro.apps import feed_app, motd_app, stackdump_app, wiki_app
from repro.attacks import ALL_ATTACKS
from repro.cli import EXIT_OK, EXIT_REJECTED, main
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.storage import MemoryBackend, backend_for
from repro.trace.codec import read_trace, write_trace
from repro.verifier import audit
from repro.workload import (
    feed_workload,
    motd_workload,
    stacks_workload,
    wiki_workload,
)

pytestmark = pytest.mark.tier1

BACKENDS = ["memory", "file", "gzip"]


def _strip(stats):
    return {k: v for k, v in stats.items() if k != "elapsed_seconds"}


def _key(result):
    return (result.accepted, result.reason, _strip(result.stats))


def _runs():
    yield "motd", motd_app, motd_workload(14, mix="mixed", seed=41), None
    yield "stacks", stackdump_app, stacks_workload(14, mix="mixed", seed=42), (
        lambda: KVStore(IsolationLevel.SERIALIZABLE)
    )
    yield "wiki", wiki_app, wiki_workload(14, seed=43), (
        lambda: KVStore(IsolationLevel.SERIALIZABLE)
    )
    yield "feed", feed_app, feed_workload(14, mix="mixed", seed=44), (
        lambda: KVStore(IsolationLevel.SERIALIZABLE)
    )


@pytest.fixture(scope="module", params=list(_runs()), ids=lambda r: r[0])
def served(request):
    name, app_fn, workload, store_fn = request.param
    run = run_server(
        app_fn(),
        workload,
        KarousosPolicy(),
        store=store_fn() if store_fn else None,
        scheduler=RandomScheduler(2),
        concurrency=5,
    )
    return app_fn, run


def _backend(scheme, tmp_path):
    if scheme == "memory":
        return MemoryBackend()
    return backend_for(scheme, str(tmp_path / scheme))


def _roundtrip(backend, trace, advice):
    write_trace(backend, "trace", trace)
    write_advice(backend, "advice", advice)
    return read_trace(backend, "trace"), read_advice(backend, "advice")


def _direct_key(app_fn, trace, advice):
    """The baseline: the audit of the pair as served, never encoded."""
    return _key(audit(app_fn(), trace, advice))


@pytest.mark.parametrize("scheme", BACKENDS)
def test_honest_verdicts_identical(served, scheme, tmp_path):
    app_fn, run = served
    baseline = _direct_key(app_fn, run.trace, run.advice)
    assert baseline[0], baseline[1]  # the honest run must accept
    trace, advice = _roundtrip(_backend(scheme, tmp_path), run.trace, run.advice)
    assert _key(audit(app_fn(), trace, advice)) == baseline


@pytest.mark.parametrize("attack", ALL_ATTACKS, ids=lambda a: a.name)
def test_tampered_verdicts_identical(served, attack, tmp_path):
    """Every tamper must produce the same verdict/reason/stats whether the
    pair is audited as served or after a record-stream round trip through
    each backend."""
    app_fn, run = served
    try:
        tampered_trace, tampered_advice = attack.apply(run.trace, run.advice)
    except LookupError:
        pytest.skip("no target")
    baseline = _direct_key(app_fn, tampered_trace, tampered_advice)
    for scheme in BACKENDS:
        trace, advice = _roundtrip(
            _backend(scheme, tmp_path), tampered_trace, tampered_advice
        )
        assert _key(audit(app_fn(), trace, advice)) == baseline, (
            attack.name, scheme,
        )


# -- the CLI surface -----------------------------------------------------------


APPS = ["motd", "stacks", "wiki", "feed"]


def _serve_cli(app, tmp_path, *extra):
    out = tmp_path / "store"
    code = main([
        "serve", "--app", app, "--requests", "12", "--seed", "7",
        "--concurrency", "3", "--store", "file", "--store-path", str(out),
        *extra,
    ])
    assert code == EXIT_OK
    return out


@pytest.mark.parametrize("app", APPS)
def test_cli_file_store_roundtrip(app, tmp_path):
    out = _serve_cli(app, tmp_path)
    assert main(["audit", "--app", app, "--store", "file",
                 "--store-path", str(out)]) == EXIT_OK


@pytest.mark.parametrize("app", APPS)
def test_cli_gzip_epoch_store_resumes(app, tmp_path):
    out = tmp_path / "store"
    assert main([
        "serve", "--app", app, "--requests", "12", "--seed", "7",
        "--concurrency", "3", "--seal-every", "4",
        "--store", "gzip", "--store-path", str(out),
    ]) == EXIT_OK
    argv = ["audit", "--app", app, "--store", "gzip", "--store-path", str(out)]
    assert main(argv) == EXIT_OK
    # Checkpoints + journal persisted into the same store: re-running
    # resumes (all epochs already verified) instead of re-auditing.
    assert main(argv) == EXIT_OK
    from repro.continuous import AuditJournal

    journal = AuditJournal(backend=backend_for("gzip", str(out)))
    assert journal.last_verified() >= 0


def test_cli_corrupt_store_rejected(tmp_path):
    out = _serve_cli("wiki", tmp_path)
    blob = (out / "advice.rec").read_bytes()
    flipped = bytearray(blob)
    flipped[len(flipped) // 2] ^= 0xFF
    (out / "advice.rec").write_bytes(bytes(flipped))
    assert main(["audit", "--app", "wiki", "--store", "file",
                 "--store-path", str(out)]) == EXIT_REJECTED
