"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main


@pytest.fixture()
def served(tmp_path):
    store = tmp_path / "store"
    code = main(
        [
            "serve", "--app", "motd", "--requests", "25", "--seed", "4",
            "--concurrency", "5", "--store-path", str(store),
        ]
    )
    assert code == EXIT_OK
    return store


class TestServe:
    def test_serve_writes_files(self, served):
        assert (served / "trace.rec").stat().st_size > 0
        assert (served / "advice.rec").stat().st_size > 0

    def test_unmodified_server_has_no_advice(self, tmp_path, capsys):
        store = tmp_path / "store"
        code = main(
            [
                "serve", "--app", "motd", "--requests", "5",
                "--server", "unmodified", "--store-path", str(store),
            ]
        )
        assert code == EXIT_USAGE
        assert "no advice" in capsys.readouterr().err
        assert not store.exists()

    def test_threaded_serving(self, tmp_path):
        code = main(
            [
                "serve", "--app", "stacks", "--requests", "15",
                "--threads", "3", "--isolation", "snapshot",
                "--store-path", str(tmp_path / "store"),
            ]
        )
        assert code == EXIT_OK

    def test_serve_without_store_path_persists_nothing(self, tmp_path, capsys):
        code = main(["serve", "--app", "motd", "--requests", "5"])
        assert code == EXIT_OK
        assert "store" not in capsys.readouterr().out


class TestAudit:
    def test_honest_accepts(self, served, capsys):
        code = main(["audit", "--app", "motd", "--store-path", str(served)])
        assert code == EXIT_OK
        assert "ACCEPT" in capsys.readouterr().out

    def test_singleton_groups_mode(self, served):
        code = main(["audit", "--app", "motd", "--store-path", str(served),
                     "--singleton-groups"])
        assert code == EXIT_OK

    def test_wrong_app_rejects(self, served, capsys):
        code = main(["audit", "--app", "wiki", "--store-path", str(served)])
        assert code == EXIT_REJECTED
        assert "REJECT" in capsys.readouterr().out

    def test_missing_store_is_usage_error(self, tmp_path, capsys):
        code = main(["audit", "--app", "motd",
                     "--store-path", str(tmp_path / "none")])
        assert code == EXIT_USAGE
        assert "no record store" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()


class TestAttack:
    def test_guaranteed_attack_caught(self, served, capsys):
        code = main(["attack", "--app", "motd", "--store-path", str(served),
                     "--name", "tamper-response"])
        assert code == EXIT_OK, "caught attack = success exit"
        assert "REJECT" in capsys.readouterr().out

    def test_attack_without_target_is_usage_error(self, served):
        # MOTD has no transactions: tx attacks have no target.
        code = main(["attack", "--app", "motd", "--store-path", str(served),
                     "--name", "tamper-put-value"])
        assert code == EXIT_USAGE

    def test_attack_requires_store_path(self):
        code = main(["attack", "--app", "motd", "--name", "tamper-response"])
        assert code == EXIT_USAGE


class TestAnalyze:
    def test_analyze_prints_table(self, capsys):
        assert main(["analyze", "--app", "wiki"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "config" in out and "read-only" in out
        assert "can-skip-logging" in out

    def test_list_attacks(self, capsys):
        assert main(["list-attacks"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tamper-response" in out
        assert "guaranteed" in out
