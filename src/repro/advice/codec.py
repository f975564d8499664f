"""Wire format for advice bundles.

The server ships advice to the verifier over a network (paper section 2.1:
"the advice sent from the server to the verifier needs to be kept small").
The one physical shape is a record stream (:mod:`repro.storage`): one
meta record, then one record per tag / handler log / variable log /
transaction log, then one record per remaining section, so a bundle can
be emitted and consumed incrementally (:func:`write_advice_records` /
:func:`read_advice_records`).

Decoding is strict: any structural surprise raises
:class:`~repro.errors.AdviceFormatError`, which the audit treats as a
rejection (malformed advice is server misbehaviour, never a crash).

The value encoding (:mod:`repro.storage.values`) is shared with every
other record stream; its names are re-exported here for compatibility.
Version 2 of the format writes primitive values bare; version-1 input
is refused by the version check (and by the value decoder).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.advice.records import (
    Advice,
    HandlerOpEntry,
    TxLogEntry,
    VariableLogEntry,
)
from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError
from repro.storage.backend import RecordReader, RecordWriter, StorageBackend
from repro.storage.records import (
    FRAME_OVERHEAD,
    encode_stream_header,
    pack_json,
    unpack_json,
)
from repro.storage.values import (  # noqa: F401  (compatibility re-exports)
    decode_hid,
    decode_tid,
    decode_value,
    encode_hid,
    encode_tid,
    encode_value,
)
from repro.store.kv import IsolationLevel

FORMAT_VERSION = 2

STREAM_KIND = "advice"

# Record types (stable wire identifiers; epoch streams embed these, so
# they must not collide with the epoch meta record (1) or the trace
# event record (2)).
RT_META = 19
RT_TAG = 20
RT_HANDLER_LOG = 21
RT_VARIABLE_LOG = 22
RT_TX_LOG = 23
RT_WRITE_ORDER = 24
RT_RESPONSE_BY = 25
RT_OPCOUNTS = 26
RT_NONDET = 27
RT_TX_WINDOWS = 28

ADVICE_RECORD_TYPES = (
    RT_META,
    RT_TAG,
    RT_HANDLER_LOG,
    RT_VARIABLE_LOG,
    RT_TX_LOG,
    RT_WRITE_ORDER,
    RT_RESPONSE_BY,
    RT_OPCOUNTS,
    RT_NONDET,
    RT_TX_WINDOWS,
)


# -- coordinates -----------------------------------------------------------------


def _encode_opkey(key: Tuple[str, HandlerId, int]) -> List:
    rid, hid, opnum = key
    return [rid, encode_hid(hid), opnum]


def _decode_opkey(data: object) -> Tuple[str, HandlerId, int]:
    if not isinstance(data, list) or len(data) != 3 or not isinstance(data[0], str):
        raise AdviceFormatError(f"bad op key: {data!r}")
    if not isinstance(data[2], int):
        raise AdviceFormatError(f"bad op key opnum: {data!r}")
    return (data[0], decode_hid(data[1]), data[2])


def _encode_txpos(pos: Tuple[str, TxId, int]) -> List:
    rid, tid, i = pos
    return [rid, encode_tid(tid), i]


def _decode_txpos(data: object) -> Tuple[str, TxId, int]:
    if not isinstance(data, list) or len(data) != 3 or not isinstance(data[0], str):
        raise AdviceFormatError(f"bad tx position: {data!r}")
    if not isinstance(data[2], int):
        raise AdviceFormatError(f"bad tx position index: {data!r}")
    return (data[0], decode_tid(data[1]), data[2])


# -- per-section entry codecs ---------------------------------------------------


def _encode_handler_entry(e: HandlerOpEntry) -> Dict:
    return {
        "hid": encode_hid(e.hid),
        "opnum": e.opnum,
        "optype": e.optype,
        "event": e.event,
        "fid": e.function_id,
    }


def _decode_handler_entry(e: Dict) -> HandlerOpEntry:
    return HandlerOpEntry(
        decode_hid(e["hid"]),
        _expect_int(e["opnum"]),
        _expect_str(e["optype"]),
        _expect_str(e["event"]),
        e.get("fid"),
    )


def _encode_varlog_entry(key, e: VariableLogEntry) -> Dict:
    return {
        "at": _encode_opkey(key),
        "access": e.access,
        "value": encode_value(e.value),
        "prec": None if e.prec is None else _encode_opkey(e.prec),
    }


def _decode_varlog_entry(e: Dict):
    key = _decode_opkey(e["at"])
    entry = VariableLogEntry(
        _expect_str(e["access"]),
        value=decode_value(e["value"]),
        prec=None if e["prec"] is None else _decode_opkey(e["prec"]),
    )
    return key, entry


def _encode_tx_entry(e: TxLogEntry) -> Dict:
    return {
        "hid": encode_hid(e.hid),
        "opnum": e.opnum,
        "optype": e.optype,
        "key": e.key,
        "contents": (
            _encode_txpos(e.opcontents)
            if e.optype == "GET" and e.opcontents is not None
            else encode_value(e.opcontents)
        ),
    }


def _decode_tx_entry(e: Dict) -> TxLogEntry:
    optype = _expect_str(e["optype"])
    if optype == "GET" and e["contents"] is not None and isinstance(
        e["contents"], list
    ):
        contents = _decode_txpos(e["contents"])
    else:
        contents = decode_value(e["contents"])
    return TxLogEntry(
        decode_hid(e["hid"]),
        _expect_int(e["opnum"]),
        optype,
        e.get("key"),
        contents,
    )


def _encode_tx_log(rid: str, tid: TxId, log: List[TxLogEntry]) -> Dict:
    return {
        "rid": rid,
        "tid": encode_tid(tid),
        "ops": [_encode_tx_entry(e) for e in log],
    }


def _encode_write_order(advice: Advice) -> List:
    return [_encode_txpos(p) for p in advice.write_order]


def _encode_response_by(advice: Advice) -> Dict:
    return {
        rid: [encode_hid(hid), opnum]
        for rid, (hid, opnum) in advice.response_emitted_by.items()
    }


def _encode_opcounts(advice: Advice) -> List:
    return [
        [rid, encode_hid(hid), count]
        for (rid, hid), count in advice.opcounts.items()
    ]


def _encode_nondet(advice: Advice) -> List:
    return [
        [_encode_opkey(key), encode_value(value)]
        for key, value in advice.nondet.items()
    ]


def _encode_tx_windows(advice: Advice) -> List:
    return [
        [rid, encode_tid(tid), start, commit]
        for (rid, tid), (start, commit) in advice.tx_windows.items()
    ]


# -- section accumulators ------------------------------------------------------


def _accum_tag(advice: Advice, rid: object, tag: object) -> None:
    if not isinstance(rid, str) or not isinstance(tag, str):
        raise AdviceFormatError("tags must map request ids to strings")
    if rid in advice.tags:
        raise AdviceFormatError(f"duplicate tag for request {rid}")
    advice.tags[rid] = tag


def _accum_handler_log(advice: Advice, rid: object, log: object) -> None:
    rid = _expect_str(rid)
    if rid in advice.handler_logs:
        raise AdviceFormatError(f"duplicate handler log for request {rid}")
    advice.handler_logs[rid] = [
        _decode_handler_entry(e) for e in _expect_list(log)
    ]


def _accum_variable_log(advice: Advice, var_id: object, entries: object) -> None:
    var_id = _expect_str(var_id)
    if var_id in advice.variable_logs:
        raise AdviceFormatError(f"duplicate variable log for {var_id}")
    log = {}
    for e in _expect_list(entries):
        key, entry = _decode_varlog_entry(e)
        if key in log:
            raise AdviceFormatError(f"duplicate variable log key {key}")
        log[key] = entry
    advice.variable_logs[var_id] = log


def _accum_tx_log(advice: Advice, tx: Dict) -> None:
    rid = _expect_str(tx["rid"])
    tid = decode_tid(tx["tid"])
    ops = [_decode_tx_entry(e) for e in _expect_list(tx["ops"])]
    if (rid, tid) in advice.tx_logs:
        raise AdviceFormatError(f"duplicate transaction {(rid, tid)}")
    advice.tx_logs[(rid, tid)] = ops


def _accum_write_order(advice: Advice, doc: object) -> None:
    advice.write_order = [_decode_txpos(p) for p in _expect_list(doc)]


def _accum_response_by(advice: Advice, doc: object) -> None:
    if not isinstance(doc, dict):
        raise AdviceFormatError("response_emitted_by must be an object")
    for rid, pair in doc.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise AdviceFormatError("bad response_emitted_by entry")
        advice.response_emitted_by[rid] = (decode_hid(pair[0]), _expect_int(pair[1]))


def _accum_opcounts(advice: Advice, doc: object) -> None:
    for item in _expect_list(doc):
        if not isinstance(item, list) or len(item) != 3:
            raise AdviceFormatError("bad opcounts entry")
        rid, hid_doc, count = item
        advice.opcounts[(_expect_str(rid), decode_hid(hid_doc))] = _expect_int(count)


def _accum_nondet(advice: Advice, doc: object) -> None:
    for item in _expect_list(doc):
        if not isinstance(item, list) or len(item) != 2:
            raise AdviceFormatError("bad nondet entry")
        advice.nondet[_decode_opkey(item[0])] = decode_value(item[1])


def _accum_tx_windows(advice: Advice, doc: object) -> None:
    for item in _expect_list(doc):
        if not isinstance(item, list) or len(item) != 4:
            raise AdviceFormatError("bad tx window entry")
        rid, tid_doc, start, commit = item
        if commit is not None and not isinstance(commit, int):
            raise AdviceFormatError("bad tx window commit")
        advice.tx_windows[(_expect_str(rid), decode_tid(tid_doc))] = (
            _expect_int(start),
            commit,
        )


def _decode_isolation(value: object) -> IsolationLevel:
    try:
        return IsolationLevel(value)
    except ValueError as exc:
        raise AdviceFormatError("bad isolation level") from exc


# -- record streams ------------------------------------------------------------


def iter_advice_frames(advice: Advice) -> Iterable[Tuple[int, bytes]]:
    """The bundle as ``(rtype, payload)`` frames, emitted section by
    section and entry by entry (big sections never serialise as one
    blob).  Epoch streams embed these frames directly."""
    yield RT_META, pack_json(
        {"version": FORMAT_VERSION, "isolation": advice.isolation_level.value}
    )
    for rid, tag in advice.tags.items():
        yield RT_TAG, pack_json([rid, tag])
    for rid, log in advice.handler_logs.items():
        yield RT_HANDLER_LOG, pack_json(
            {"rid": rid, "entries": [_encode_handler_entry(e) for e in log]}
        )
    for var_id, log in advice.variable_logs.items():
        yield RT_VARIABLE_LOG, pack_json(
            {
                "var": var_id,
                "entries": [_encode_varlog_entry(key, e) for key, e in log.items()],
            }
        )
    for (rid, tid), log in advice.tx_logs.items():
        yield RT_TX_LOG, pack_json(_encode_tx_log(rid, tid, log))
    yield RT_WRITE_ORDER, pack_json(_encode_write_order(advice))
    yield RT_RESPONSE_BY, pack_json(_encode_response_by(advice))
    yield RT_OPCOUNTS, pack_json(_encode_opcounts(advice))
    yield RT_NONDET, pack_json(_encode_nondet(advice))
    yield RT_TX_WINDOWS, pack_json(_encode_tx_windows(advice))


class AdviceAccumulator:
    """Builds an :class:`Advice` from a sequence of advice frames.

    Shared by the advice stream reader and the epoch stream reader, so
    both apply the same strict per-section validation.
    """

    def __init__(self) -> None:
        self.advice = Advice()
        self._saw_meta = False
        self._singletons: set = set()

    def feed(self, rtype: int, payload: bytes) -> None:
        try:
            self._feed(rtype, payload)
        except AdviceFormatError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise AdviceFormatError(
                f"malformed advice record: {type(exc).__name__}: {exc}"
            ) from exc

    def _feed(self, rtype: int, payload: bytes) -> None:
        if rtype == RT_META:
            if self._saw_meta:
                raise AdviceFormatError("duplicate advice meta record")
            doc = unpack_json(payload)
            if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
                raise AdviceFormatError(f"unsupported advice stream meta {doc!r}")
            if "isolation" not in doc:
                raise AdviceFormatError("bad isolation level")
            self.advice.isolation_level = _decode_isolation(doc["isolation"])
            self._saw_meta = True
            return
        if not self._saw_meta:
            raise AdviceFormatError("advice stream has no meta record")
        doc = unpack_json(payload)
        if rtype == RT_TAG:
            if not isinstance(doc, list) or len(doc) != 2:
                raise AdviceFormatError(f"bad tag record {doc!r}")
            _accum_tag(self.advice, doc[0], doc[1])
        elif rtype == RT_HANDLER_LOG:
            _accum_handler_log(self.advice, doc["rid"], doc["entries"])
        elif rtype == RT_VARIABLE_LOG:
            _accum_variable_log(self.advice, doc["var"], doc["entries"])
        elif rtype == RT_TX_LOG:
            _accum_tx_log(self.advice, doc)
        elif rtype in _SINGLETON_SECTIONS:
            if rtype in self._singletons:
                raise AdviceFormatError(f"duplicate advice section record {rtype}")
            self._singletons.add(rtype)
            _SINGLETON_SECTIONS[rtype](self.advice, doc)
        else:
            raise AdviceFormatError(f"unknown advice record type {rtype}")

    def finish(self) -> Advice:
        if not self._saw_meta:
            raise AdviceFormatError("advice stream has no meta record")
        return self.advice


_SINGLETON_SECTIONS = {
    RT_WRITE_ORDER: _accum_write_order,
    RT_RESPONSE_BY: _accum_response_by,
    RT_OPCOUNTS: _accum_opcounts,
    RT_NONDET: _accum_nondet,
    RT_TX_WINDOWS: _accum_tx_windows,
}


def write_advice_records(
    advice: Advice, writer: RecordWriter, seal: bool = True
) -> int:
    """Append the bundle's frames; returns the record bytes appended."""
    size = 0
    for rtype, payload in iter_advice_frames(advice):
        writer.append(rtype, payload)
        size += FRAME_OVERHEAD + len(payload)
    if seal:
        writer.seal()
    return size


def read_advice_records(reader: RecordReader) -> Advice:
    if reader.kind != STREAM_KIND:
        raise AdviceFormatError(
            f"expected an {STREAM_KIND!r} stream, found {reader.kind!r}"
        )
    accum = AdviceAccumulator()
    for rtype, payload in reader:
        accum.feed(rtype, payload)
    return accum.finish()


def write_advice(backend: StorageBackend, name: str, advice: Advice) -> int:
    """Store ``advice`` as stream ``name``; returns the stream's size in
    bytes before any backend compression (what
    :func:`repro.advice.sizing.advice_size_bytes` reports)."""
    header = len(encode_stream_header(STREAM_KIND))
    return header + write_advice_records(advice, backend.create(name, STREAM_KIND))


def read_advice(backend: StorageBackend, name: str) -> Advice:
    with backend.reader(name) as reader:
        return read_advice_records(reader)


# -- small validators ------------------------------------------------------------------


def _expect_list(value: object) -> list:
    if not isinstance(value, list):
        raise AdviceFormatError("expected a list")
    return value


def _expect_int(value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise AdviceFormatError(f"expected an int, got {value!r}")
    return value


def _expect_str(value: object) -> str:
    if not isinstance(value, str):
        raise AdviceFormatError(f"expected a string, got {value!r}")
    return value
