"""Robustness fuzzing for the wire formats.

The verifier consumes advice from an adversary: the decoder must never
crash with anything other than a clean AdviceFormatError, no matter how
the stream is corrupted.  (A crash inside the audit would still be
caught and rejected, but the codec contract is stricter: corrupt bytes
are a *format* error, not an internal failure.)

Two layers are attacked.  Record payloads are mutated as JSON documents
and re-framed with a valid CRC, so the per-record decoders (not the CRC
check) see the damage; and the bytes of a stored ``.rec`` file are
flipped or truncated, which the framing must catch.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.advice.codec import STREAM_KIND as ADVICE_KIND
from repro.advice.codec import iter_advice_frames, read_advice, write_advice
from repro.apps import stackdump_app
from repro.errors import AdviceFormatError
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.storage import FileBackend, MemoryBackend
from repro.store import IsolationLevel, KVStore
from repro.trace.codec import STREAM_KIND as TRACE_KIND
from repro.trace.codec import iter_trace_frames, read_trace, write_trace
from repro.verifier import audit
from repro.workload import stacks_workload


@pytest.fixture(scope="module")
def honest():
    return run_server(
        stackdump_app(),
        stacks_workload(12, mix="mixed", seed=7),
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SNAPSHOT),
        scheduler=RandomScheduler(7),
        concurrency=4,
    )


def _mutate_json(doc, rng):
    """Randomly corrupt one node of a parsed JSON document."""
    def walk(node, path):
        sites = [(node, path)]
        if isinstance(node, dict):
            for k, v in node.items():
                sites.extend(walk(v, path + [k]))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                sites.extend(walk(v, path + [i]))
        return sites

    sites = walk(doc, [])
    target, path = sites[rng.randrange(len(sites))]
    mutation = rng.choice(["null", "string", "number", "drop", "list"])
    if not path:
        return {"corrupted": True}
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if mutation == "drop" and isinstance(parent, dict):
        del parent[key]
    elif mutation == "null":
        parent[key] = None
    elif mutation == "string":
        parent[key] = "garbage"
    elif mutation == "number":
        parent[key] = 424242
    else:
        parent[key] = ["garbage"]
    return doc


def _stream(kind, frames):
    """A memory backend holding one stream ``kind`` built from ``frames``
    (each re-framed, so every CRC is valid)."""
    backend = MemoryBackend()
    with backend.create(kind, kind) as writer:
        for rtype, payload in frames:
            writer.append(rtype, payload)
    return backend


def _mutate_one_frame(frames, rng):
    frames = list(frames)
    i = rng.randrange(len(frames))
    rtype, payload = frames[i]
    doc = _mutate_json(json.loads(payload), rng)
    frames[i] = (rtype, json.dumps(doc).encode())
    return frames


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_corrupted_advice_never_crashes_decoder(honest, seed):
    rng = random.Random(seed)
    frames = _mutate_one_frame(iter_advice_frames(honest.advice), rng)
    try:
        decoded = read_advice(_stream(ADVICE_KIND, frames), ADVICE_KIND)
    except AdviceFormatError:
        return  # clean rejection at the format boundary
    # Decoding succeeded: the audit must still terminate with a verdict
    # (accept iff the mutation was semantically inert).
    result = audit(stackdump_app(), honest.trace, decoded)
    assert isinstance(result.accepted, bool)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_corrupted_trace_never_crashes_decoder(honest, seed):
    rng = random.Random(seed)
    frames = _mutate_one_frame(iter_trace_frames(honest.trace), rng)
    try:
        read_trace(_stream(TRACE_KIND, frames), TRACE_KIND)
    except AdviceFormatError:
        pass


@settings(max_examples=40, deadline=None)
@given(junk=st.text(max_size=60))
def test_arbitrary_text_rejected_cleanly(honest, tmp_path_factory, junk):
    raw = junk.encode("utf-8")
    for kind, frames, read in (
        (ADVICE_KIND, list(iter_advice_frames(honest.advice)), read_advice),
        (TRACE_KIND, list(iter_trace_frames(honest.trace)), read_trace),
    ):
        # The junk as the meta record's payload ...
        meta_rtype = frames[0][0]
        with pytest.raises(AdviceFormatError):
            read(_stream(kind, [(meta_rtype, raw)] + frames[1:]), kind)
        # ... and as the whole stored file.
        root = tmp_path_factory.mktemp("junk")
        (root / f"{kind}.rec").write_bytes(raw)
        with pytest.raises(AdviceFormatError):
            read(FileBackend(str(root)), kind)


@pytest.fixture(scope="module")
def stored(honest, tmp_path_factory):
    """The honest run's streams as FileBackend ``.rec`` files."""
    root = tmp_path_factory.mktemp("stored")
    backend = FileBackend(str(root))
    write_trace(backend, "trace", honest.trace)
    write_advice(backend, "advice", honest.advice)
    return root


_READERS = {"advice": read_advice, "trace": read_trace}


def _read_damaged(tmp_path, stored, name, damage):
    blob = bytearray((stored / f"{name}.rec").read_bytes())
    (tmp_path / f"{name}.rec").write_bytes(bytes(damage(blob)))
    return _READERS[name](FileBackend(str(tmp_path)), name)


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_byte_flips_of_rec_file_rejected(tmp_path_factory, stored, name, seed):
    """Every flipped byte -- header, frame head, payload or CRC -- is
    detected; the reader raises a format error, never anything else."""
    rng = random.Random(seed)

    def flip(blob):
        for pos in rng.sample(range(len(blob)), rng.randint(1, 3)):
            blob[pos] ^= rng.randint(1, 255)
        return blob

    with pytest.raises(AdviceFormatError):
        _read_damaged(tmp_path_factory.mktemp("flip"), stored, name, flip)


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_truncated_rec_file_never_crashes_reader(
    tmp_path_factory, stored, name, seed
):
    """A cut anywhere either raises a format error or -- at a record
    boundary -- reads back as a prefix of the stream."""
    rng = random.Random(seed)
    size = (stored / f"{name}.rec").stat().st_size
    cut = rng.randrange(size)
    try:
        _read_damaged(
            tmp_path_factory.mktemp("cut"), stored, name, lambda b: b[:cut]
        )
    except AdviceFormatError:
        pass
