"""CLI round-trips: serve -> record store -> audit for every app, honest
and tampered, in both monolithic and continuous (epoch) modes."""

import pytest

from repro.advice.codec import read_advice, write_advice
from repro.attacks import ALL_ATTACKS
from repro.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from repro.storage import FileBackend
from repro.trace.codec import read_trace

pytestmark = pytest.mark.tier1

APPS = ["motd", "stacks", "wiki"]


def _serve(app, store, *extra):
    return main(
        [
            "serve", "--app", app, "--requests", "10", "--seed", "6",
            "--concurrency", "2", "--store-path", str(store), *extra,
        ]
    )


@pytest.fixture(params=APPS)
def served_app(request, tmp_path):
    app = request.param
    store = tmp_path / "store"
    assert _serve(app, store) == EXIT_OK
    return app, store


def _tamper(store):
    """Apply the first applicable guaranteed attack to the stored advice."""
    backend = FileBackend(str(store))
    trace = read_trace(backend, "trace")
    advice = read_advice(backend, "advice")
    for attack in ALL_ATTACKS:
        if not attack.guaranteed:
            continue
        try:
            t2, tampered = attack.apply(trace, advice)
        except LookupError:
            continue
        if t2 == trace and tampered != advice:
            write_advice(backend, "advice", tampered)
            return attack.name
    raise AssertionError("no applicable advice tamper")


class TestMonolithicRoundtrip:
    def test_honest_accepts(self, served_app):
        app, store = served_app
        code = main(["audit", "--app", app, "--store-path", str(store)])
        assert code == EXIT_OK

    def test_tampered_rejects(self, served_app):
        app, store = served_app
        _tamper(store)
        code = main(["audit", "--app", app, "--store-path", str(store)])
        assert code == EXIT_REJECTED


class TestContinuousRoundtrip:
    @pytest.fixture()
    def sealed(self, tmp_path, request):
        app = getattr(request, "param", "wiki")
        store = tmp_path / "store"
        assert _serve(app, store, "--seal-every", "2") == EXIT_OK
        return app, store

    def test_epochs_dir_honest_accepts(self, sealed, capsys):
        app, store = sealed
        code = main(["audit", "--app", app, "--store-path", str(store)])
        assert code == EXIT_OK
        assert "ACCEPT" in capsys.readouterr().out

    def test_epochs_dir_resumes(self, sealed, capsys):
        app, store = sealed
        args = ["audit", "--app", app, "--store-path", str(store)]
        assert main(args) == EXIT_OK
        capsys.readouterr()
        assert main(args) == EXIT_OK
        assert "resumed" in capsys.readouterr().out

    def test_offline_epochs_honest_accepts(self, sealed):
        app, store = sealed
        code = main(["audit", "--app", app, "--store-path", str(store),
                     "--epochs", "2"])
        assert code == EXIT_OK

    def test_offline_epochs_tampered_rejects(self, sealed, capsys):
        app, store = sealed
        _tamper(store)
        code = main(["audit", "--app", app, "--store-path", str(store),
                     "--epochs", "2"])
        assert code == EXIT_REJECTED
        assert "REJECT" in capsys.readouterr().out

    def test_offline_epochs_ignore_sealed_resume_state(self, sealed, capsys):
        """A re-cut (--epochs N) is a different epoch sequence from the
        sealed one: the journal the sealed audit left must not make it
        skip anything."""
        app, store = sealed
        assert main(["audit", "--app", app, "--store-path", str(store)]) == EXIT_OK
        capsys.readouterr()
        code = main(["audit", "--app", app, "--store-path", str(store),
                     "--epochs", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "resumed" not in out
        assert "0 epochs" not in out


class TestUsedStore:
    """Serving never appends to a store: a second run would share the
    first run's journal and checkpoints, and its audit would skip the
    new epochs as already verified."""

    def test_serve_refuses_used_store(self, tmp_path, capsys):
        store = tmp_path / "S"
        argv = ["serve", "--app", "wiki", "--requests", "30",
                "--seal-every", "10", "--store", "file",
                "--store-path", str(store)]
        assert main([*argv, "--seed", "1"]) == EXIT_OK
        assert main(["audit", "--app", "wiki", "--store", "file",
                     "--store-path", str(store)]) == EXIT_OK
        before = sorted(p.name for p in store.iterdir())
        capsys.readouterr()
        assert main([*argv, "--seed", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(store) in err and "already holds" in err
        assert sorted(p.name for p in store.iterdir()) == before

    def test_serve_refuses_store_of_other_scheme(self, tmp_path):
        store = tmp_path / "S"
        assert _serve("motd", store) == EXIT_OK
        assert _serve("motd", store, "--store", "gzip") == EXIT_USAGE

    def test_serve_accepts_empty_directory(self, tmp_path):
        store = tmp_path / "S"
        store.mkdir()
        assert _serve("motd", store) == EXIT_OK


class TestContinuousUsageErrors:
    def test_seal_every_rejected_with_threads(self):
        code = main(["serve", "--app", "motd", "--requests", "4",
                     "--threads", "2", "--seal-every", "2"])
        assert code == EXIT_USAGE

    def test_store_path_required(self):
        code = main(["audit", "--app", "motd"])
        assert code == EXIT_USAGE

    def test_empty_epochs_dir_is_usage_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(["audit", "--app", "motd", "--store-path", str(empty)])
        assert code == EXIT_USAGE
