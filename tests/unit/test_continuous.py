"""Unit tests for the continuous-auditing subsystem (repro.continuous):
epoch segmentation, advice slicing, checkpoint digests and chaining,
journals, the online sealer, and the streaming auditor's queue."""

import json

import pytest

from repro.advice import slice_advice
from repro.advice.records import Advice, VariableLogEntry
from repro.apps import motd_app, wiki_app
from repro.continuous import (
    AuditJournal,
    Checkpoint,
    CheckpointChainError,
    CheckpointStore,
    ContinuousAuditor,
    EpochSealer,
    GENESIS_DIGEST,
    balanced_cuts,
    compute_digest,
    decode_checkpoint,
    encode_checkpoint,
    iter_epochs_stored,
    read_epoch_stream,
    slice_epochs,
    write_epoch_stored,
)
from repro.continuous.checkpoint import RT_CHECKPOINT, STREAM_KIND, STREAM_NAME
from repro.core.ids import HandlerId
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.server.variables import INIT_REF
from repro.storage import FileBackend, MemoryBackend
from repro.store import IsolationLevel, KVStore
from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent
from repro.workload import motd_workload, wiki_workload

pytestmark = pytest.mark.tier1


def _trace(*events):
    t = Trace()
    for kind, rid in events:
        data = Request.make(rid, "get") if kind == REQ else {"ok": rid}
        t.append(TraceEvent(kind, rid, data))
    return t


class TestBalancedCuts:
    def test_sequential_trace_cuts_per_request(self):
        t = _trace((REQ, "a"), (RESP, "a"), (REQ, "b"), (RESP, "b"))
        assert balanced_cuts(t, 1) == [2, 4]

    def test_overlapping_requests_cut_only_when_drained(self):
        t = _trace(
            (REQ, "a"), (REQ, "b"), (RESP, "a"), (RESP, "b"),
            (REQ, "c"), (RESP, "c"),
        )
        assert balanced_cuts(t, 1) == [4, 6]

    def test_epoch_size_batches_responses(self):
        t = _trace(*[(k, f"r{i}") for i in range(4) for k in (REQ, RESP)])
        assert balanced_cuts(t, 3) == [6, 8]

    def test_final_cut_always_closes_the_trace(self):
        t = _trace((REQ, "a"), (RESP, "a"))
        assert balanced_cuts(t, 99)[-1] == len(t)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            balanced_cuts(_trace(), 0)


class TestSliceEpochs:
    def test_segments_are_frozen_and_cover_the_trace(self):
        t = _trace(*[(k, f"r{i}") for i in range(5) for k in (REQ, RESP)])
        epochs = slice_epochs(t, None, 2)
        assert [e.index for e in epochs] == list(range(len(epochs)))
        assert sum(len(e.trace) for e in epochs) == len(t)
        for e in epochs:
            assert e.trace.frozen
            assert e.trace.is_balanced()

    def test_tail_shorter_than_epoch_size(self):
        t = _trace(*[(k, f"r{i}") for i in range(5) for k in (REQ, RESP)])
        epochs = slice_epochs(t, None, 2)
        assert [e.request_count for e in epochs] == [2, 2, 1]


class TestSliceAdvice:
    def _advice(self):
        advice = Advice()
        hid = HandlerId("h")
        advice.tags = {"r1": "t1", "r2": "t2"}
        advice.opcounts = {("r1", hid): 3, ("r2", hid): 3}
        advice.response_emitted_by = {"r1": (hid, 1), "r2": (hid, 1)}
        advice.variable_logs = {
            "v": {
                INIT_REF: VariableLogEntry("write", value=0, prec=None),
                ("r1", hid, 2): VariableLogEntry("write", value=7, prec=INIT_REF),
                ("r2", hid, 2): VariableLogEntry("read", prec=("r1", hid, 2)),
            }
        }
        return advice, hid

    def test_keeps_only_requested_rids(self):
        advice, hid = self._advice()
        sliced = slice_advice(advice, {"r1"})
        assert set(sliced.tags) == {"r1"}
        assert set(sliced.opcounts) == {("r1", hid)}
        assert set(sliced.variable_logs["v"]) == {("r1", hid, 2)}

    def test_cross_epoch_prec_rewritten_to_init(self):
        advice, hid = self._advice()
        sliced = slice_advice(advice, {"r2"})
        entry = sliced.variable_logs["v"][("r2", hid, 2)]
        assert entry.prec == INIT_REF

    def test_init_keyed_entries_dropped(self):
        # The genesis backfill must not survive into an epoch slice: in
        # epoch k > 0 the carried initial value differs from genesis and
        # a kept entry would trip forged-initial-value on an honest run.
        advice, hid = self._advice()
        for rids in ({"r1"}, {"r2"}):
            assert INIT_REF not in slice_advice(advice, rids).variable_logs["v"]

    def test_original_advice_unmodified(self):
        advice, hid = self._advice()
        before = json.dumps(sorted(map(repr, advice.variable_logs["v"])))
        slice_advice(advice, {"r2"})
        assert json.dumps(sorted(map(repr, advice.variable_logs["v"]))) == before


class TestCheckpointDigest:
    def test_digest_independent_of_insertion_order(self):
        a = compute_digest(0, GENESIS_DIGEST, {"x": 1, "y": 2}, {"k": [1]})
        b = compute_digest(0, GENESIS_DIGEST, {"y": 2, "x": 1}, {"k": [1]})
        assert a == b

    def test_digest_covers_every_field(self):
        base = compute_digest(0, GENESIS_DIGEST, {"x": 1}, {"k": 2})
        assert compute_digest(1, GENESIS_DIGEST, {"x": 1}, {"k": 2}) != base
        assert compute_digest(0, "other", {"x": 1}, {"k": 2}) != base
        assert compute_digest(0, GENESIS_DIGEST, {"x": 2}, {"k": 2}) != base
        assert compute_digest(0, GENESIS_DIGEST, {"x": 1}, {"k": 3}) != base

    def test_nested_dict_values_canonicalized(self):
        a = compute_digest(0, GENESIS_DIGEST, {"x": {"a": 1, "b": 2}}, {})
        b = compute_digest(0, GENESIS_DIGEST, {"x": {"b": 2, "a": 1}}, {})
        assert a == b

    def test_checkpoint_verify_and_codec_roundtrip(self):
        cp = Checkpoint.make(2, "parent", {"v": (1, 2)}, {"k": None})
        assert cp.verify()
        again = decode_checkpoint(encode_checkpoint(cp))
        assert again == cp
        assert again.verify()


class TestCheckpointStore:
    def _chain(self, n=3):
        cps = []
        parent = GENESIS_DIGEST
        for i in range(n):
            cp = Checkpoint.make(i, parent, {"v": i}, {})
            cps.append(cp)
            parent = cp.digest
        return cps

    def test_persistence_roundtrip(self, tmp_path):
        store = CheckpointStore(FileBackend(str(tmp_path / "cps")))
        for cp in self._chain():
            store.put(cp)
        store.close()
        reloaded = CheckpointStore(FileBackend(str(tmp_path / "cps")))
        assert len(reloaded) == 3
        assert reloaded.latest().epoch == 2
        reloaded.verify_chain()

    def test_verify_chain_rejects_tampered_contents(self, tmp_path):
        backend = FileBackend(str(tmp_path / "cps"))
        store = CheckpointStore(backend)
        for cp in self._chain():
            store.put(cp)
        store.close()
        # Rewrite checkpoint 1's contents in place, keeping its digest.
        records = backend.load_tolerant(STREAM_NAME, STREAM_KIND)
        with backend.create(STREAM_NAME, STREAM_KIND) as writer:
            for rtype, payload in records:
                doc = json.loads(payload)
                if doc["epoch"] == 1:
                    doc["vars"] = [["v", 999]]
                writer.append(rtype, json.dumps(doc).encode())
        assert all(rtype == RT_CHECKPOINT for rtype, _ in records)
        with pytest.raises(CheckpointChainError):
            CheckpointStore(backend).verify_chain()

    def test_verify_chain_rejects_missing_link(self):
        store = CheckpointStore()
        cps = self._chain()
        store.put(cps[0])
        store.put(cps[2])
        with pytest.raises(CheckpointChainError):
            store.verify_chain()

    def test_verify_chain_rejects_broken_parent(self):
        store = CheckpointStore()
        cps = self._chain()
        store.put(cps[0])
        store.put(Checkpoint.make(1, "not-the-parent", {"v": 1}, {}))
        with pytest.raises(CheckpointChainError):
            store.verify_chain()


class TestAuditJournal:
    def test_reload_and_last_verified(self, tmp_path):
        backend = FileBackend(str(tmp_path / "j"))
        j = AuditJournal(backend)
        j.record("sealed", 0, requests=2)
        j.record("verified", 0, digest="d0")
        j.record("verified", 1, digest="d1")
        j.close()
        again = AuditJournal(FileBackend(str(tmp_path / "j")))
        assert again.last_verified() == 1
        assert len(again.events) == 3

    def test_last_verified_requires_contiguous_prefix(self):
        j = AuditJournal()
        j.record("verified", 0)
        j.record("verified", 2)
        assert j.last_verified() == 0

    def test_rejections_listed(self):
        j = AuditJournal()
        j.record("rejected", 3, reason="write-mismatch", detail="x")
        assert j.rejections()[0]["epoch"] == 3


class TestEpochCodec:
    def test_roundtrip_through_files(self, tmp_path):
        run = run_server(
            motd_app(), motd_workload(6, mix="mixed", seed=3), KarousosPolicy(),
            scheduler=RandomScheduler(1), concurrency=2,
            sealer=EpochSealer(2),
        )
        sealer = run.runtime.sealer
        backend = FileBackend(str(tmp_path))
        for epoch in sealer.epochs:
            write_epoch_stored(backend, epoch)
        loaded = list(iter_epochs_stored(backend))
        assert len(loaded) == len(sealer.epochs)
        for orig, back in zip(sealer.epochs, loaded):
            assert back.index == orig.index
            assert back.binlog_range == orig.binlog_range
            assert back.trace == orig.trace
            assert back.advice == orig.advice

    def test_single_epoch_roundtrip(self):
        sealer = EpochSealer(1)
        run_server(
            motd_app(), motd_workload(2, mix="mixed", seed=3), KarousosPolicy(),
            scheduler=RandomScheduler(1), concurrency=1, sealer=sealer,
        )
        epoch = sealer.epochs[0]
        backend = MemoryBackend()
        name = write_epoch_stored(backend, epoch)
        with backend.reader(name) as reader:
            assert read_epoch_stream(reader).advice == epoch.advice


class TestEpochSealer:
    def test_seals_balanced_quiescent_segments(self):
        sealer = EpochSealer(2)
        run = run_server(
            wiki_app(), wiki_workload(8, seed=5), KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            scheduler=RandomScheduler(1), concurrency=2, sealer=sealer,
        )
        assert len(sealer.epochs) >= 2
        assert sum(e.request_count for e in sealer.epochs) == 8
        for epoch in sealer.epochs:
            assert epoch.trace.is_balanced()
            assert epoch.trace.frozen
        # Binlog sub-ranges tile the full binlog.
        ranges = [e.binlog_range for e in sealer.epochs]
        assert ranges[0][0] == 0
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        assert ranges[-1][1] == len(run.store.binlog)

    def test_sink_receives_epochs_during_serve(self):
        seen = []
        sealer = EpochSealer(1, sink=seen.append)
        run_server(
            motd_app(), motd_workload(4, mix="mixed", seed=1), KarousosPolicy(),
            scheduler=RandomScheduler(1), concurrency=1, sealer=sealer,
        )
        assert seen == sealer.epochs
        assert len(seen) == 4

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            EpochSealer(0)


class TestContinuousAuditorQueue:
    def _epochs(self, n_requests=8):
        sealer = EpochSealer(1)
        run_server(
            motd_app(), motd_workload(n_requests, mix="mixed", seed=2),
            KarousosPolicy(), scheduler=RandomScheduler(1), concurrency=1,
            sealer=sealer,
        )
        return sealer.epochs

    def test_backpressure_bounds_the_queue(self):
        epochs = self._epochs()
        auditor = ContinuousAuditor(motd_app(), max_pending=2)
        for epoch in epochs:
            auditor.submit(epoch)
            assert auditor.pending <= 2
        auditor.drain()
        assert auditor.accepted
        assert auditor.peak_pending <= 2
        assert auditor.backpressure_events > 0
        assert auditor.stats()["epochs"] == len(epochs)

    def test_first_verdict_before_full_drain(self):
        epochs = self._epochs()
        auditor = ContinuousAuditor(motd_app())
        auditor.submit(epochs[0])
        verdict = auditor.step()
        assert verdict.accepted
        assert auditor.first_verdict_seconds is not None

    def test_rejects_max_pending_zero(self):
        with pytest.raises(ValueError):
            ContinuousAuditor(motd_app(), max_pending=0)
