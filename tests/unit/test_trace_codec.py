"""Unit tests for the trace wire format."""

import json

import pytest

from repro.errors import AdviceFormatError
from repro.kem.scheduler import RandomScheduler
from repro.apps import stackdump_app
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.trace.codec import decode_trace, encode_trace
from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent
from repro.verifier import audit
from repro.workload import stacks_workload


def sample_trace():
    t = Trace()
    t.append(TraceEvent(REQ, "r1", Request.make("r1", "get", day="mon", n=3)))
    t.append(TraceEvent(RESP, "r1", {"status": "ok", "items": (1, 2)}))
    return t


class TestRoundtrip:
    def test_events_preserved(self):
        decoded = decode_trace(encode_trace(sample_trace()))
        assert [(e.kind, e.rid) for e in decoded] == [(REQ, "r1"), (RESP, "r1")]
        assert decoded.request("r1").inputs == {"day": "mon", "n": 3}
        assert decoded.response("r1") == {"status": "ok", "items": (1, 2)}

    def test_decoded_trace_audits(self):
        run = run_server(
            stackdump_app(),
            stacks_workload(12, mix="mixed", seed=1),
            KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            scheduler=RandomScheduler(1),
            concurrency=4,
        )
        decoded = decode_trace(encode_trace(run.trace))
        assert audit(stackdump_app(), decoded, run.advice).accepted

    def test_empty_trace(self):
        assert len(decode_trace(encode_trace(Trace()))) == 0


class TestStrictness:
    def test_bad_json(self):
        with pytest.raises(AdviceFormatError):
            decode_trace("nope{")

    def test_wrong_version(self):
        doc = json.loads(encode_trace(sample_trace()))
        doc["version"] = 99
        with pytest.raises(AdviceFormatError):
            decode_trace(json.dumps(doc))

    def test_unknown_event_kind(self):
        doc = json.loads(encode_trace(sample_trace()))
        doc["events"][0]["kind"] = "PING"
        with pytest.raises(AdviceFormatError):
            decode_trace(json.dumps(doc))

    def test_non_mapping_payload(self):
        doc = json.loads(encode_trace(sample_trace()))
        doc["events"][0]["payload"] = 3
        with pytest.raises(AdviceFormatError):
            decode_trace(json.dumps(doc))
