"""Advice size measurement (paper section 6.3, Figure 8).

The paper reports the size of the advice the server transmits to the
verifier.  We measure exactly the bytes the server writes: the framed
records of the ``advice`` stream (:func:`repro.advice.codec.write_advice`),
applied alike to Karousos and Orochi-JS advice so the *relative* sizes
(the claim under test) compare the same encoding.
"""

from __future__ import annotations

from typing import Dict

from repro.advice import codec
from repro.advice.records import Advice
from repro.storage.records import FRAME_OVERHEAD, encode_stream_header

# The section each advice record type carries.  The meta record (format
# version, isolation level) and the stream header are a few dozen bytes
# of framing; they are counted with ``tags``, the section they precede,
# so the breakdown sums to the stream's size on disk.
_SECTION = {
    codec.RT_META: "tags",
    codec.RT_TAG: "tags",
    codec.RT_HANDLER_LOG: "handler_logs",
    codec.RT_VARIABLE_LOG: "variable_logs",
    codec.RT_TX_LOG: "tx_logs",
    codec.RT_WRITE_ORDER: "write_order",
    codec.RT_RESPONSE_BY: "response_emitted_by",
    codec.RT_OPCOUNTS: "opcounts",
    codec.RT_NONDET: "nondet",
    codec.RT_TX_WINDOWS: "tx_windows",
}


def advice_breakdown(advice: Advice) -> Dict[str, int]:
    """Bytes per advice component.  ``variable_logs`` dominating is the
    expected profile for MOTD and high-concurrency wiki (section 6.3)."""
    sizes = dict.fromkeys(_SECTION.values(), 0)
    sizes["tags"] = len(encode_stream_header(codec.STREAM_KIND))
    for rtype, payload in codec.iter_advice_frames(advice):
        sizes[_SECTION[rtype]] += FRAME_OVERHEAD + len(payload)
    return sizes


def advice_size_bytes(advice: Advice) -> int:
    """Size of the ``advice`` stream :func:`~repro.advice.codec.write_advice`
    writes for this bundle."""
    return sum(advice_breakdown(advice).values())
