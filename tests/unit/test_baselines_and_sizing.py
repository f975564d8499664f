"""Unit tests for the sequential baseline and advice sizing."""


import pytest

from repro.advice import advice_breakdown, advice_size_bytes
from repro.advice.codec import write_advice
from repro.apps import motd_app, stackdump_app
from repro.baselines import sequential_reexecute
from repro.kem.scheduler import FifoScheduler, RandomScheduler
from repro.server import KarousosPolicy, OrochiPolicy, run_server
from repro.storage import FileBackend
from repro.store import IsolationLevel, KVStore
from repro.workload import motd_workload, stacks_workload


class TestSequentialBaseline:
    def test_sequential_trace_replays_exactly(self):
        # A c=1 FIFO original execution is itself sequential: replay agrees.
        run = run_server(
            motd_app(),
            motd_workload(20, seed=1),
            KarousosPolicy(),
            scheduler=FifoScheduler(),
            concurrency=1,
        )
        seq = sequential_reexecute(motd_app(), run.trace)
        assert seq.match_fraction == 1.0
        assert seq.mismatched == 0

    def test_concurrent_stacks_can_mismatch(self):
        # Retry errors depend on interleavings the baseline cannot follow:
        # the paper calls this baseline pessimistic for exactly this reason.
        run = run_server(
            stackdump_app(),
            stacks_workload(40, mix="mixed", seed=2),
            KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            scheduler=RandomScheduler(2),
            concurrency=8,
        )
        seq = sequential_reexecute(
            stackdump_app(), run.trace, lambda: KVStore(IsolationLevel.SERIALIZABLE)
        )
        assert seq.matched + seq.mismatched == 40
        assert 0.0 <= seq.match_fraction <= 1.0

    def test_outputs_keyed_by_rid(self):
        run = run_server(
            motd_app(), motd_workload(5, seed=3), KarousosPolicy(), concurrency=1
        )
        seq = sequential_reexecute(motd_app(), run.trace)
        assert set(seq.outputs) == set(run.trace.request_ids())


class TestAdviceSizing:
    def _advice(self, policy):
        return run_server(
            motd_app(), motd_workload(40, mix="mixed", seed=4), policy, concurrency=4
        ).advice

    def test_breakdown_sums_to_total(self):
        advice = self._advice(KarousosPolicy())
        breakdown = advice_breakdown(advice)
        assert sum(breakdown.values()) == advice_size_bytes(advice)

    def test_all_components_present(self):
        breakdown = advice_breakdown(self._advice(KarousosPolicy()))
        assert set(breakdown) == {
            "tags",
            "handler_logs",
            "variable_logs",
            "tx_logs",
            "write_order",
            "response_emitted_by",
            "opcounts",
            "nondet",
            "tx_windows",
        }

    def test_more_logging_means_more_bytes(self):
        karousos = advice_size_bytes(self._advice(KarousosPolicy()))
        # Same workload on the stacks app with a store: strictly more
        # advice components populated.
        run = run_server(
            stackdump_app(),
            stacks_workload(40, mix="mixed", seed=4),
            KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            concurrency=4,
        )
        assert advice_size_bytes(run.advice) > 0
        assert run.advice.tx_log_entry_count() > 0
        assert karousos > 0

    @pytest.mark.parametrize("policy", [KarousosPolicy, OrochiPolicy])
    def test_size_is_the_stored_advice_stream(self, tmp_path, policy):
        """Fig 8 measures the bytes the server writes: the ``advice``
        stream on disk, to the byte."""
        run = run_server(
            stackdump_app(),
            stacks_workload(30, mix="mixed", seed=5),
            policy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            concurrency=4,
        )
        backend = FileBackend(str(tmp_path))
        written = write_advice(backend, "advice", run.advice)
        on_disk = (tmp_path / "advice.rec").stat().st_size
        assert advice_size_bytes(run.advice) == written == on_disk
