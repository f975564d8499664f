"""The storage layer (DESIGN.md §8): record framing, pluggable backends,
corruption/truncation detection, torn-tail recovery, journal durability,
and property-style fuzz of the value/trace/advice/epoch codecs."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advice.codec import read_advice, write_advice
from repro.advice.records import Advice, VariableLogEntry
from repro.continuous.codec import (
    iter_epochs_stored,
    read_epoch_stream,
    write_epoch_stored,
)
from repro.continuous.epoch import Epoch
from repro.continuous.journal import AuditJournal
from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError
from repro.storage import (
    FileBackend,
    GzipBackend,
    MemoryBackend,
    RecordFormatError,
    RecordTruncatedError,
    backend_for,
    decode_stream_header,
    decode_value,
    encode_record,
    encode_stream_header,
    encode_value,
    read_stream,
    recover_stream,
)
from repro.trace.codec import iter_trace_records, read_trace, write_trace
from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent

pytestmark = pytest.mark.tier1


# -- frame format --------------------------------------------------------------


def _stream(kind, records):
    buf = bytearray(encode_stream_header(kind))
    for rtype, payload in records:
        buf += encode_record(rtype, payload)
    return bytes(buf)


def test_header_roundtrip():
    buf = encode_stream_header("trace")
    kind, start = decode_stream_header(buf)
    assert kind == "trace" and start == len(buf)


def test_bad_magic_rejected():
    with pytest.raises(RecordFormatError):
        decode_stream_header(b"NOPE" + b"\x05trace")


def test_records_roundtrip():
    records = [(1, b""), (7, b"x" * 1000), (250, "café".encode())]
    kind, got = read_stream(_stream("k", records))
    assert kind == "k" and got == records


def test_midstream_corruption_is_fatal():
    buf = bytearray(_stream("k", [(1, b"aaaa"), (2, b"bbbb")]))
    buf[len(encode_stream_header("k")) + 7] ^= 0xFF  # inside record 0
    with pytest.raises(RecordFormatError):
        read_stream(bytes(buf))
    # Tolerant recovery cannot rescue a corrupt *interior* either.
    with pytest.raises(RecordFormatError):
        recover_stream(bytes(buf))


def test_torn_tail_is_truncation_not_corruption():
    whole = _stream("k", [(1, b"aaaa"), (2, b"bbbb")])
    torn = whole[:-3]  # rip the final record's CRC
    with pytest.raises(RecordTruncatedError):
        read_stream(torn)
    kind, records, good = recover_stream(torn)
    assert kind == "k"
    assert records == [(1, b"aaaa")]
    assert whole[:good] == _stream("k", [(1, b"aaaa")])


# -- backends ------------------------------------------------------------------


@pytest.fixture(params=["memory", "file", "gzip"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return backend_for(request.param, str(tmp_path / request.param))


def test_backend_create_read(backend):
    with backend.create("s", "kind") as w:
        w.append(1, b"one")
        w.append(2, b"two")
    with backend.reader("s") as r:
        assert r.kind == "kind"
        assert list(r) == [(1, b"one"), (2, b"two")]
    assert backend.exists("s") and not backend.exists("t")
    assert backend.list_streams() == ["s"]
    backend.delete("s")
    assert not backend.exists("s")


def test_backend_append_resumes(backend):
    with backend.create("s", "kind") as w:
        w.append(1, b"one")
    with backend.append("s", "kind") as w:
        w.append(2, b"two")
    with backend.reader("s") as r:
        assert list(r) == [(1, b"one"), (2, b"two")]


def test_backend_append_wrong_kind(backend):
    backend.create("s", "kind").seal()
    with pytest.raises(RecordFormatError):
        backend.append("s", "other")


def test_backend_kind_checked_by_load_tolerant(backend):
    backend.create("s", "kind").seal()
    with pytest.raises(RecordFormatError):
        backend.load_tolerant("s", "other")
    assert backend.load_tolerant("missing", "kind") == []


def _chop(backend, name, drop):
    """Simulate a crash mid-append: drop the last ``drop`` raw bytes."""
    if isinstance(backend, MemoryBackend):
        del backend.raw(name)[-drop:]
    else:
        path = backend._path(name)
        os.truncate(path, os.path.getsize(path) - drop)


def test_torn_tail_recovered_on_append(backend):
    if isinstance(backend, GzipBackend):
        pytest.skip("gzip tails cannot be chopped at the byte level")
    with backend.create("s", "kind") as w:
        w.append(1, b"first")
        w.append(2, b"second")
    _chop(backend, "s", 3)
    assert backend.load_tolerant("s", "kind") == [(1, b"first")]
    with backend.append("s", "kind") as w:
        w.append(3, b"third")
    with backend.reader("s") as r:
        assert list(r) == [(1, b"first"), (3, b"third")]


def test_gzip_unsealed_stream_readable(tmp_path):
    """A crash before seal leaves no gzip trailer; whole records must
    still read back (Z_SYNC_FLUSH per record)."""
    backend = GzipBackend(str(tmp_path))
    w = backend.create("s", "kind")
    w.append(1, b"one")
    w.append(2, b"two")
    # No seal: simulate the process dying here.
    w._gz = None
    w._raw.close()
    assert backend.load_tolerant("s", "kind") == [(1, b"one"), (2, b"two")]
    with backend.append("s", "kind") as w2:  # recompacts, then appends
        w2.append(3, b"three")
    with backend.reader("s") as r:
        assert list(r) == [(1, b"one"), (2, b"two"), (3, b"three")]


def test_file_reader_midstream_corruption(tmp_path):
    backend = FileBackend(str(tmp_path))
    with backend.create("s", "kind") as w:
        w.append(1, b"a" * 64)
        w.append(2, b"b" * 64)
    path = backend._path("s")
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(RecordFormatError):
        with backend.reader("s") as r:
            list(r)


# -- journal durability (satellite: fsync per record, kill mid-write) ---------


def test_journal_fsyncs_every_record(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
    journal = AuditJournal(FileBackend(str(tmp_path)))
    journal.record("sealed", 0)
    journal.record("verified", 0, digest="d")
    assert len(synced) == 2


def test_journal_kill_mid_write_backend(tmp_path):
    backend = FileBackend(str(tmp_path))
    journal = AuditJournal(backend=backend)
    journal.record("sealed", 0)
    journal.record("verified", 0, digest="d0")
    journal.close()
    _chop(backend, "journal", 2)  # crash mid final record
    resumed = AuditJournal(backend=backend)
    assert resumed.last_verified() == -1  # 'verified' was the torn record
    resumed.record("verified", 0, digest="d0")
    resumed.close()
    assert AuditJournal(backend=backend).last_verified() == 0


# -- property-style fuzz (satellite: values through every codec) ---------------

_hids = st.builds(HandlerId, st.sampled_from(["f", "g"]))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),  # unicode included
    st.builds(TxId, _hids, st.integers(min_value=0, max_value=9)),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(_values)
def test_value_codec_roundtrip(value):
    assert decode_value(encode_value(value)) == value


def _fuzz_bundle(values):
    """A trace + advice pair carrying the fuzz values through every
    section the codecs treat as opaque value payloads."""
    trace = Trace()
    hid = HandlerId("f")
    advice = Advice()
    for i, value in enumerate(values):
        rid = f"r{i}"
        trace.append(TraceEvent(REQ, rid, Request.make(rid, "route", blob=value)))
        trace.append(TraceEvent(RESP, rid, value))
        advice.tags[rid] = "tag"
        advice.nondet[(rid, hid, i)] = value
        advice.variable_logs.setdefault("v", {})[(rid, hid, i)] = VariableLogEntry(
            access="write", value=value
        )
    return trace.freeze(), advice


@settings(max_examples=25, deadline=None)
@given(st.lists(_values, min_size=1, max_size=3))
def test_fuzz_trace_advice_epoch_records(values):
    trace, advice = _fuzz_bundle(values)
    backend = MemoryBackend()
    # Trace records.
    write_trace(backend, "trace", trace)
    assert read_trace(backend, "trace").events == trace.events
    # Advice records.
    write_advice(backend, "advice", advice)
    assert read_advice(backend, "advice") == advice
    # Epoch records embed both.
    write_epoch_stored(backend, Epoch(index=0, trace=trace, advice=advice))
    with backend.reader("epoch-0") as reader:
        epoch = read_epoch_stream(reader)
    assert epoch.trace.events == trace.events and epoch.advice == advice
    assert [e.index for e in iter_epochs_stored(backend)] == [0]


def test_large_payload_roundtrip():
    big = {"blob": "☃" * 50_000, "nested": [list(range(1000))] * 5}
    trace, advice = _fuzz_bundle([big])
    backend = MemoryBackend()
    write_trace(backend, "trace", trace)
    write_advice(backend, "advice", advice)
    assert read_trace(backend, "trace").events == trace.events
    assert read_advice(backend, "advice") == advice


@settings(max_examples=40, deadline=None)
@given(st.lists(_values, min_size=1, max_size=2), st.data())
def test_fuzz_single_byte_flip_never_decodes(values, data):
    trace, _ = _fuzz_bundle(values)
    backend = MemoryBackend()
    write_trace(backend, "trace", trace)
    raw = backend.raw("trace")
    pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    raw[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
    with pytest.raises(AdviceFormatError):
        read_trace(backend, "trace")


@settings(max_examples=40, deadline=None)
@given(st.lists(_values, min_size=1, max_size=2), st.data())
def test_fuzz_truncation_raises_or_yields_prefix(values, data):
    trace, _ = _fuzz_bundle(values)
    backend = MemoryBackend()
    write_trace(backend, "trace", trace)
    raw = backend.raw("trace")
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    del raw[cut:]
    try:
        got = read_trace(backend, "trace")
    except AdviceFormatError:
        return  # detected -- the common case
    # A cut at a record boundary is indistinguishable from a shorter
    # stream; it must decode to a strict prefix, never garbage.
    n = len(got.events)
    assert n < len(trace.events) and got.events == trace.events[:n]


def test_trace_stream_requires_meta_first():
    backend = MemoryBackend()
    with backend.create("trace", "trace") as w:
        w.append(2, b'{"kind": "REQ"}')  # RT_EVENT before RT_META
    with pytest.raises(AdviceFormatError):
        with backend.reader("trace") as r:
            list(iter_trace_records(r))


def test_wrong_stream_kind_rejected():
    backend = MemoryBackend()
    backend.create("trace", "advice").seal()
    with pytest.raises(AdviceFormatError):
        read_trace(backend, "trace")
