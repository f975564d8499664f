"""Property tests for the DAG scheduler (repro.verifier.dag.scheduler)
and the driver's crash/resume contract (DESIGN.md §13).

Two determinism properties license every scheduler:

* *schedule independence*: any ready-queue ordering (here: seeded random
  shuffles injected through ``order_key``) yields byte-identical
  verdicts, reasons, and deterministic statistics -- because completions
  are only absorbed by the scheduler and merged in canonical group order
  later;
* *crash independence*: killing the run at every journal-write boundary
  and resuming from the node journal yields the same bytes as an unkilled
  run, with only the frontier re-executed.
"""

import random

import pytest

from repro.apps import motd_app
from repro.attacks import ALL_ATTACKS
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.storage import MemoryBackend
from repro.verifier import audit
from repro.verifier.dag import (
    DagAuditor,
    NodeJournal,
    SimulatedKill,
    make_scheduler,
)
from repro.workload import motd_workload

pytestmark = pytest.mark.tier1


def _strip(stats):
    return {k: v for k, v in stats.items() if k != "elapsed_seconds"}


def _fingerprint(result):
    return (result.accepted, result.reason, result.detail, _strip(result.stats))


@pytest.fixture(scope="module")
def served():
    run = run_server(
        motd_app(),
        motd_workload(12, mix="mixed", seed=41),
        KarousosPolicy(),
        scheduler=RandomScheduler(2),
        concurrency=4,
    )
    return run


@pytest.fixture(scope="module")
def tampered(served):
    attack = next(a for a in ALL_ATTACKS if a.name == "tamper-response")
    return attack.apply(served.trace, served.advice)


# -- the scheduler in isolation ------------------------------------------------


class _FakeNode:
    def __init__(self, node_id):
        self.node_id = node_id


class _RecordingRunner:
    """Runs nothing; records the order the scheduler drains nodes in."""

    def __init__(self, pooled=()):
        self.pooled = set(pooled)
        self.order = []

    def parallel_safe(self, node):
        return node.node_id in self.pooled

    def execute(self, node):
        return node.node_id

    def absorb(self, node, result):
        self.order.append(node.node_id)

    def remote_spec(self, node):
        return None

    def on_worker_failure(self, node):
        return node.node_id


def _diamond():
    nodes = [_FakeNode(n) for n in ("a", "b", "c", "d")]
    edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    return nodes, edges


class TestSchedulerKahn:
    def test_serial_drains_in_canonical_order(self):
        nodes, edges = _diamond()
        runner = _RecordingRunner()
        make_scheduler("serial").execute(nodes, edges, runner)
        assert runner.order == ["a", "b", "c", "d"]

    def test_shuffled_order_still_topological(self):
        nodes, edges = _diamond()
        for seed in range(8):
            rng = random.Random(seed)
            perm = {}
            runner = _RecordingRunner()
            make_scheduler(
                "serial",
                order_key=lambda n: perm.setdefault(n.node_id, rng.random()),
            ).execute(nodes, edges, runner)
            pos = {nid: i for i, nid in enumerate(runner.order)}
            assert len(runner.order) == 4
            for src, dst in edges:
                assert pos[src] < pos[dst], (seed, runner.order)

    def test_thread_pool_respects_edges(self):
        nodes, edges = _diamond()
        runner = _RecordingRunner(pooled={"b", "c"})
        make_scheduler("thread", jobs=2).execute(nodes, edges, runner)
        pos = {nid: i for i, nid in enumerate(runner.order)}
        for src, dst in edges:
            assert pos[src] < pos[dst], runner.order

    def test_cycle_deadlocks_loudly(self):
        nodes = [_FakeNode("a"), _FakeNode("b")]
        edges = [("a", "b"), ("b", "a")]
        with pytest.raises(RuntimeError, match="deadlock"):
            make_scheduler("serial").execute(nodes, edges, _RecordingRunner())


# -- schedule independence -----------------------------------------------------


class TestScheduleIndependence:
    def _dag_result(self, served, order_key=None, **kwargs):
        auditor = DagAuditor(
            motd_app(), served.trace, served.advice,
            app_name="motd", order_key=order_key, **kwargs,
        )
        return auditor.run()

    def test_shuffled_ready_queues_are_byte_identical(self, served):
        baseline = _fingerprint(self._dag_result(served))
        assert baseline[0], baseline
        for seed in range(6):
            rng = random.Random(seed)
            perm = {}
            got = self._dag_result(
                served,
                order_key=lambda n: perm.setdefault(n.node_id, rng.random()),
            )
            assert _fingerprint(got) == baseline, seed

    def test_shuffled_rejecting_runs_are_byte_identical(self, tampered):
        trace, advice = tampered
        baseline = audit(motd_app(), trace, advice)
        assert not baseline.accepted
        for seed in range(4):
            rng = random.Random(seed)
            perm = {}
            got = DagAuditor(
                motd_app(), trace, advice, app_name="motd",
                order_key=lambda n: perm.setdefault(n.node_id, rng.random()),
            ).run()
            assert got.accepted == baseline.accepted
            assert got.reason == baseline.reason, seed
            assert _strip(got.stats) == _strip(baseline.stats), seed

    def test_dag_matches_sequential_audit(self, served):
        seq = audit(motd_app(), served.trace, served.advice)
        dag = self._dag_result(served)
        assert _fingerprint(dag) == _fingerprint(seq)


# -- crash independence (kill at every journal record) -------------------------


class TestCrashResume:
    def _run(self, served, journal, resume=False, kill_after=None):
        auditor = DagAuditor(
            motd_app(), served.trace, served.advice, app_name="motd",
            journal=journal, resume=resume, kill_after=kill_after,
        )
        return auditor, auditor.run()

    def test_kill_at_every_record_then_resume_is_identical(self, served):
        backend = MemoryBackend()
        full, baseline_result = self._run(served, NodeJournal(backend))
        baseline = _fingerprint(baseline_result)
        total_writes = full._journal_writes
        assert total_writes > 2
        for kill_at in range(1, total_writes + 1):
            backend = MemoryBackend()
            with pytest.raises(SimulatedKill):
                self._run(
                    served, NodeJournal(backend), kill_after=kill_at
                )
            resumed, result = self._run(
                served, NodeJournal(backend), resume=True
            )
            assert _fingerprint(result) == baseline, kill_at
            # Only the frontier re-executes: every reexec completion that
            # made it into the journal replays instead.
            groups = len(served.advice.groups())
            assert resumed.resumed_nodes + resumed.executed_nodes <= groups
            if resumed.skipped_resumed:
                # The whole epoch verdict was journaled: nothing re-runs.
                assert resumed.executed_nodes == 0

    @pytest.mark.parametrize("attack", [
        "forge-write-value", "flip-entry-kind", "lie-response-emitter",
        "phantom-handler", "merge-tags", "tamper-response",
    ])
    def test_rejected_verdict_site_survives_the_journal(self, served, attack):
        # Rejection sites name HandlerIds, tuples of them and nested
        # dicts; the journaled verdict must decode back to the same site.
        trace, advice = next(
            a for a in ALL_ATTACKS if a.name == attack
        ).apply(served.trace, served.advice)
        baseline = audit(motd_app(), trace, advice)
        assert not baseline.accepted and baseline.site is not None
        backend = MemoryBackend()
        runs = []
        for resume in (False, True):
            auditor = DagAuditor(
                motd_app(), trace, advice, app_name="motd",
                journal=NodeJournal(backend), resume=resume,
            )
            runs.append((auditor, auditor.run()))
        (_, first), (resumed, replayed) = runs
        assert resumed.skipped_resumed == 1  # the verdict came from the journal
        for got in (first, replayed):
            assert (got.reason, got.detail, got.site) == (
                baseline.reason, baseline.detail, baseline.site
            )
        assert replayed.stage == first.stage

    def test_resume_without_journal_is_refused(self, served):
        from repro.verifier.dag import NodeJournalError

        with pytest.raises(NodeJournalError, match="no node journal"):
            self._run(served, NodeJournal(MemoryBackend()), resume=True)

    def test_resume_against_different_inputs_is_refused(self, served):
        from repro.verifier.dag import NodeJournalError

        backend = MemoryBackend()
        self._run(served, NodeJournal(backend))
        other = run_server(
            motd_app(),
            motd_workload(8, mix="mixed", seed=99),
            KarousosPolicy(),
            scheduler=RandomScheduler(2),
            concurrency=4,
        )
        with pytest.raises(NodeJournalError, match="refusing to resume"):
            DagAuditor(
                motd_app(), other.trace, other.advice, app_name="motd",
                journal=NodeJournal(backend), resume=True,
            ).run()

    def test_resumed_counters_surface_in_metrics(self, served):
        from repro.obs import MetricsRegistry

        backend = MemoryBackend()
        # Kill mid-reexec: after enough records to journal some deltas.
        with pytest.raises(SimulatedKill):
            self._run(served, NodeJournal(backend), kill_after=4)
        metrics = MetricsRegistry()
        auditor = DagAuditor(
            motd_app(), served.trace, served.advice, app_name="motd",
            journal=NodeJournal(backend), resume=True, metrics=metrics,
        )
        result = auditor.run()
        assert result.accepted
        snap = metrics.snapshot()
        counters = snap["counters"]
        assert counters.get("reexec.nodes_resumed", 0) == auditor.resumed_nodes
        assert counters.get("reexec.nodes_executed", 0) == auditor.executed_nodes
        assert auditor.resumed_nodes > 0
