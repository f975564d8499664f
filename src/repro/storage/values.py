"""Compact value encoding shared by every persistence surface.

Round-trips the Python types applications may store -- None, bool, int,
float, str, and (possibly nested) lists/tuples/dicts -- plus the audit
transaction identifier (:class:`~repro.core.ids.TxId`) that appears
inside stored values such as binlog writer tokens.

Grammar (DESIGN.md §8, "Value encoding")::

    value := null | true | false | <number> | <string>   primitives, bare
           | [value, ...]                                 lists, bare
           | {"t": [value, ...]}                          tuples
           | {"d": [[value, value], ...]}                 dicts, as pairs
           | {"x": {"hid": ..., "opnum": int}}            TxIds

Only the three non-JSON shapes carry a tag, so a tagged object has
exactly one key.  :func:`decode_value` is strict: any other tree --
an unknown or extra key, a tag whose body has the wrong shape, a dict
key that decodes to an unhashable value -- raises
:class:`~repro.errors.AdviceFormatError` and nothing else.  The
version-1 encoding wrapped every primitive as ``{"t":"p","v":x}``;
those two-key objects are refused, never misread.

This lives in the storage layer because *every* codec needs it: trace
payloads, advice entries, checkpoints, digests, and the binlog all carry
values.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError

# Exact types written bare.  Encode and decode test ``type(x) in _BARE``
# first (one set lookup per element) and fall back to isinstance checks
# only for subclasses, which JSON parsing never produces.
_BARE = frozenset((str, int, float, bool, type(None)))
_PRIMITIVES = (str, int, float, bool)


# -- handler / transaction ids ------------------------------------------------


def encode_hid(hid: HandlerId) -> List[List]:
    """Canonical path encoding: [[function_id, opnum], ...] root-first."""
    return [[fid, opnum] for fid, opnum in hid.canonical()]


def decode_hid(data: object) -> HandlerId:
    if not isinstance(data, list) or not data:
        raise AdviceFormatError(f"bad handler id encoding: {data!r}")
    hid: Optional[HandlerId] = None
    for part in data:
        if (
            not isinstance(part, list)
            or len(part) != 2
            or not isinstance(part[0], str)
            or not isinstance(part[1], int)
        ):
            raise AdviceFormatError(f"bad handler id segment: {part!r}")
        hid = HandlerId(part[0], hid, part[1])
    return hid


def encode_tid(tid: TxId) -> Dict:
    return {"hid": encode_hid(tid.hid), "opnum": tid.opnum}


def decode_tid(data: object) -> TxId:
    if not isinstance(data, dict) or set(data) != {"hid", "opnum"}:
        raise AdviceFormatError(f"bad transaction id encoding: {data!r}")
    if not isinstance(data["opnum"], int):
        raise AdviceFormatError("transaction opnum must be an int")
    return TxId(decode_hid(data["hid"]), data["opnum"])


# -- values --------------------------------------------------------------------


def encode_value(value: object) -> object:
    """Compact encoding preserving tuple-ness and non-string dict keys."""
    cls = type(value)
    if cls in _BARE:
        return value
    if cls is list:
        return [v if type(v) in _BARE else encode_value(v) for v in value]
    if cls is dict:
        return {"d": [
            [k if type(k) in _BARE else encode_value(k),
             v if type(v) in _BARE else encode_value(v)]
            for k, v in value.items()
        ]}
    if cls is tuple:
        return {"t": [v if type(v) in _BARE else encode_value(v) for v in value]}
    if cls is TxId:
        return {"x": encode_tid(value)}
    # Subclasses (enums, named tuples, ...) encode as their base type.
    if isinstance(value, _PRIMITIVES):
        return value
    for base in (tuple, list, dict):
        if isinstance(value, base):
            return encode_value(base(value))
    raise AdviceFormatError(f"unencodable value of type {type(value).__name__}")


def decode_value(data: object) -> object:
    """Strict inverse of :func:`encode_value` over JSON trees."""
    cls = type(data)
    if cls in _BARE:
        return data
    if cls is list:
        return [x if type(x) in _BARE else decode_value(x) for x in data]
    if cls is dict and len(data) == 1:
        if "d" in data:
            return _decode_dict(data["d"])
        if "t" in data:
            body = data["t"]
            if type(body) is not list:
                raise AdviceFormatError(f"bad tuple encoding: {data!r}")
            return tuple([x if type(x) in _BARE else decode_value(x) for x in body])
        if "x" in data:
            return decode_tid(data["x"])
    if isinstance(data, _PRIMITIVES):
        return data
    raise AdviceFormatError(f"bad value encoding: {data!r}")


def _decode_dict(pairs: object) -> dict:
    if type(pairs) is not list:
        raise AdviceFormatError(f"bad dict encoding: {pairs!r}")
    out = {}
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            raise AdviceFormatError(f"bad dict entry: {pair!r}")
        key, value = pair
        if type(key) not in _BARE:
            key = decode_value(key)
        if type(value) not in _BARE:
            value = decode_value(value)
        try:
            out[key] = value
        except TypeError as exc:  # unhashable key (a list, dict, ...)
            raise AdviceFormatError(f"bad dict key: {key!r}") from exc
    return out


def canonical_value(value: object) -> object:
    """:func:`encode_value` with every dict's pairs sorted by their
    encoded key, so equal values encode identically whatever their
    insertion order.  The one canonical form digests hash (checkpoint
    chain, activation digests)."""
    cls = type(value)
    if cls in _BARE:
        return value
    if isinstance(value, dict):
        pairs = [[canonical_value(k), canonical_value(v)] for k, v in value.items()]
        pairs.sort(key=_pair_key)
        return {"d": pairs}
    if isinstance(value, tuple):
        return {"t": [canonical_value(v) for v in value]}
    if isinstance(value, list):
        return [canonical_value(v) for v in value]
    return encode_value(value)


def _pair_key(pair: list) -> str:
    return json.dumps(pair[0], sort_keys=True, separators=(",", ":"))
