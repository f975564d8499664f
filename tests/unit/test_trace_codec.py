"""Unit tests for the trace wire format (the ``trace`` record stream)."""

import json

import pytest

from repro.errors import AdviceFormatError
from repro.kem.scheduler import RandomScheduler
from repro.apps import stackdump_app
from repro.server import KarousosPolicy, run_server
from repro.storage import MemoryBackend
from repro.store import IsolationLevel, KVStore
from repro.trace.codec import (
    RT_EVENT,
    RT_META,
    STREAM_KIND,
    iter_trace_frames,
    read_trace,
    write_trace,
)
from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent
from repro.verifier import audit
from repro.workload import stacks_workload


def sample_trace():
    t = Trace()
    t.append(TraceEvent(REQ, "r1", Request.make("r1", "get", day="mon", n=3)))
    t.append(TraceEvent(RESP, "r1", {"status": "ok", "items": (1, 2)}))
    return t


def roundtrip(trace):
    backend = MemoryBackend()
    write_trace(backend, "trace", trace)
    return read_trace(backend, "trace")


def read_edited(rtype, edit):
    """Decode the sample trace's stream with the first ``rtype`` payload
    replaced by ``edit(parsed_payload)`` (bytes are used as-is)."""
    backend = MemoryBackend()
    done = False
    with backend.create("trace", STREAM_KIND) as writer:
        for rt, payload in iter_trace_frames(sample_trace()):
            if rt == rtype and not done:
                doc = edit(json.loads(payload))
                payload = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
                done = True
            writer.append(rt, payload)
    return read_trace(backend, "trace")


class TestRoundtrip:
    def test_events_preserved(self):
        decoded = roundtrip(sample_trace())
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
        decoded = roundtrip(run.trace)
        assert audit(stackdump_app(), decoded, run.advice).accepted

    def test_empty_trace(self):
        assert len(roundtrip(Trace())) == 0


class TestStrictness:
    def test_bad_json(self):
        with pytest.raises(AdviceFormatError):
            read_edited(RT_EVENT, lambda doc: b"nope{")

    def test_wrong_version(self):
        with pytest.raises(AdviceFormatError):
            read_edited(RT_META, lambda doc: {**doc, "version": 99})

    def test_unknown_event_kind(self):
        with pytest.raises(AdviceFormatError):
            read_edited(RT_EVENT, lambda doc: {**doc, "kind": "PING"})

    def test_non_mapping_payload(self):
        with pytest.raises(AdviceFormatError):
            read_edited(RT_EVENT, lambda doc: {**doc, "payload": 3})

    def test_missing_field(self):
        def drop_payload(doc):
            del doc["payload"]
            return doc

        with pytest.raises(AdviceFormatError):
            read_edited(RT_EVENT, drop_payload)
