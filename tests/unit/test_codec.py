"""Unit and property tests for the advice wire format (the ``advice``
record stream)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.advice.codec import (
    FORMAT_VERSION,
    RT_META,
    RT_OPCOUNTS,
    RT_TAG,
    STREAM_KIND,
    decode_hid,
    decode_value,
    encode_hid,
    encode_value,
    iter_advice_frames,
    read_advice,
    write_advice,
)
from repro.apps import motd_app, stackdump_app, wiki_app
from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.storage import MemoryBackend
from repro.store import IsolationLevel, KVStore
from repro.verifier import audit
from repro.workload import motd_workload, stacks_workload, wiki_workload


class TestHidEncoding:
    def test_roundtrip_chain(self):
        hid = HandlerId("c", HandlerId("b", HandlerId("a"), 2), 5)
        assert decode_hid(encode_hid(hid)) == hid

    def test_request_handler(self):
        hid = HandlerId("f", None, 0)
        assert decode_hid(encode_hid(hid)) == hid

    @pytest.mark.parametrize("bad", [[], "x", [[1, 2]], [["f"]], [["f", "x"]]])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AdviceFormatError):
            decode_hid(bad)


values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-10**6, 10**6),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


# Arbitrary JSON trees, biased towards the tagged shapes the decoder
# must tell apart from malformed input.
json_trees = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=5),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.sampled_from(["t", "d", "x", "v", "hid", "opnum"]),
                        children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=2),
    ),
    max_leaves=16,
)


class TestValueEncoding:
    @settings(max_examples=200)
    @given(values)
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tuple_vs_list_preserved(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert decode_value(encode_value([1, 2])) == [1, 2]
        assert type(decode_value(encode_value((1,)))) is tuple

    def test_non_string_dict_keys(self):
        value = {("r1", 2): "x", 5: "y"}
        assert decode_value(encode_value(value)) == value

    def test_txid_values(self):
        tid = TxId(HandlerId("f", None, 0), 3)
        assert decode_value(encode_value(tid)) == tid

    def test_unencodable_rejected(self):
        with pytest.raises(AdviceFormatError):
            encode_value(object())

    # An unknown tag, a tag with the wrong body, two tags, and a dict
    # key that decodes to an unhashable list; then unhashable tuple and
    # dict keys, bad pairs and bodies, a version-1 primitive wrapper and
    # a malformed value nested in a list.
    @pytest.mark.parametrize(
        "bad",
        [{"z": [1]}, {"t": 1}, {"t": [], "d": []}, {"d": [[[1], 2]]},
         {"d": [[{"t": [[1]]}, 2]]}, {"d": [[{"d": []}, 2]]}, {"d": [[1]]},
         {"d": 1}, {"x": 5}, {}, {"t": "p", "v": 1}, [{"t": "l"}]],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(AdviceFormatError):
            decode_value(bad)

    def test_primitive_distinctions_pinned(self):
        wire = json.loads(json.dumps(encode_value([True, 1, 1.0, 0, False, None])))
        assert wire == [True, 1, 1.0, 0, False, None]
        decoded = decode_value(wire)
        assert [type(x) for x in decoded] == [bool, int, float, int, bool, type(None)]

    def test_tuple_in_list_nesting(self):
        value = [(1, [2, (3,)]), [(), "s"]]
        wire = json.loads(json.dumps(encode_value(value)))
        assert wire == [{"t": [1, [2, {"t": [3]}]]}, [{"t": []}, "s"]]
        assert decode_value(wire) == value
        assert type(decode_value(wire)[0][1][1]) is tuple

    def test_txid_dict_key(self):
        tid = TxId(HandlerId("g", HandlerId("f", None, 0), 2), 3)
        value = {tid: "writer", (tid, 1): [tid]}
        wire = json.loads(json.dumps(encode_value(value)))
        assert decode_value(wire) == value

    @settings(max_examples=300)
    @given(json_trees)
    def test_any_json_tree_decodes_or_is_rejected(self, tree):
        try:
            value = decode_value(tree)
        except AdviceFormatError:
            return
        assert decode_value(json.loads(json.dumps(encode_value(value)))) == value


def _runs():
    yield run_server(
        motd_app(), motd_workload(15, seed=1), KarousosPolicy(),
        scheduler=RandomScheduler(1), concurrency=4,
    ), motd_app
    yield run_server(
        stackdump_app(), stacks_workload(15, mix="mixed", seed=2), KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(2), concurrency=4,
    ), stackdump_app
    yield run_server(
        wiki_app(), wiki_workload(15, seed=3), KarousosPolicy(),
        store=KVStore(IsolationLevel.READ_COMMITTED),
        scheduler=RandomScheduler(3), concurrency=4,
    ), wiki_app


def _roundtrip(advice):
    backend = MemoryBackend()
    write_advice(backend, "advice", advice)
    return read_advice(backend, "advice")


def _read_frames(frames):
    """Decode a hand-built advice stream."""
    backend = MemoryBackend()
    with backend.create("advice", STREAM_KIND) as writer:
        for rtype, payload in frames:
            writer.append(rtype, payload)
    return read_advice(backend, "advice")


class TestBundleRoundtrip:
    @pytest.mark.parametrize("run,app_fn", list(_runs()), ids=["motd", "stacks", "wiki"])
    def test_decoded_advice_still_verifies(self, run, app_fn):
        decoded = _roundtrip(run.advice)
        result = audit(app_fn(), run.trace, decoded)
        assert result.accepted, (result.reason, result.detail)

    @pytest.mark.parametrize("run,app_fn", list(_runs()), ids=["motd", "stacks", "wiki"])
    def test_roundtrip_preserves_structure(self, run, app_fn):
        decoded = _roundtrip(run.advice)
        assert decoded.tags == run.advice.tags
        assert decoded.opcounts == run.advice.opcounts
        assert decoded.handler_logs == run.advice.handler_logs
        assert decoded.variable_logs == run.advice.variable_logs
        assert decoded.tx_logs == run.advice.tx_logs
        assert decoded.write_order == run.advice.write_order
        assert decoded.response_emitted_by == run.advice.response_emitted_by
        assert decoded.nondet == run.advice.nondet
        assert decoded.isolation_level == run.advice.isolation_level

    def test_encoding_is_deterministic(self):
        run, _ = next(_runs())
        assert list(iter_advice_frames(run.advice)) == list(
            iter_advice_frames(run.advice)
        )


class TestStrictDecoding:
    def _frames(self):
        run, _ = next(_runs())
        return list(iter_advice_frames(run.advice))

    def _edit(self, rtype, edit):
        """The honest frames with the first ``rtype`` payload replaced by
        ``edit(parsed_payload)`` (bytes are used as-is)."""
        frames = self._frames()
        for i, (rt, payload) in enumerate(frames):
            if rt == rtype:
                doc = edit(json.loads(payload))
                frames[i] = (rt, doc if isinstance(doc, bytes) else
                             json.dumps(doc).encode())
                return frames
        raise AssertionError(f"no record of type {rtype}")

    def test_version_1_stream_refused(self):
        frames = self._frames()
        meta = json.loads(frames[0][1])
        assert frames[0][0] == RT_META
        assert meta["version"] == FORMAT_VERSION == 2
        with pytest.raises(AdviceFormatError):
            _read_frames(self._edit(RT_META, lambda doc: {**doc, "version": 1}))

    def test_wrong_version_rejected(self):
        frames = self._edit(
            RT_META, lambda doc: {**doc, "version": FORMAT_VERSION + 1}
        )
        with pytest.raises(AdviceFormatError):
            _read_frames(frames)

    def test_bad_isolation_rejected(self):
        frames = self._edit(RT_META, lambda doc: {**doc, "isolation": "quantum"})
        with pytest.raises(AdviceFormatError):
            _read_frames(frames)

    def test_non_json_rejected(self):
        with pytest.raises(AdviceFormatError):
            _read_frames(self._edit(RT_META, lambda doc: b"{not json"))

    def test_non_object_rejected(self):
        with pytest.raises(AdviceFormatError):
            _read_frames(self._edit(RT_META, lambda doc: [1, 2, 3]))

    def test_non_string_tag_rejected(self):
        frames = self._edit(RT_TAG, lambda doc: [doc[0], 42])
        with pytest.raises(AdviceFormatError):
            _read_frames(frames)

    def test_bool_opcount_rejected(self):
        def edit(doc):
            doc[0][2] = True
            return doc

        with pytest.raises(AdviceFormatError):
            _read_frames(self._edit(RT_OPCOUNTS, edit))
