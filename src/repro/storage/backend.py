"""Pluggable record-stream backends (DESIGN.md §8).

A :class:`StorageBackend` is a namespace of named record streams (see
:mod:`repro.storage.records` for the frame format).  Three
implementations:

* :class:`MemoryBackend` -- byte arrays in a dict; zero durability, used
  by tests and in-process harnesses;
* :class:`FileBackend` -- one append-only file per stream under a root
  directory, flushed per record and fsynced on seal; opening a stream for
  append recovers a torn tail (a crash mid-append) by truncating to the
  last whole record;
* :class:`GzipBackend` -- the file backend with gzip compression
  (``Z_SYNC_FLUSH`` per record so readers see whole records); reopening
  for append recompacts the stream, since gzip members cannot be resumed
  in place.

Writers are append-only: the storage layer has no update or delete of
individual records, which is exactly the audit trust model -- history is
only ever extended.
"""

from __future__ import annotations

import gzip
import io
import os
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import MetricsRegistry, NULL_METRICS, ensure_metrics
from repro.storage.records import (
    RecordFormatError,
    RecordTruncatedError,
    _FRAME_CRC,
    _FRAME_HEAD,
    MAGIC,
    MAX_RECORD_LEN,
    decode_stream_header,
    encode_record,
    encode_stream_header,
    recover_stream,
)


class RecordWriter:
    """Append-only writer for one stream; context-manager friendly."""

    kind: str

    def append(self, rtype: int, payload: bytes) -> None:
        raise NotImplementedError

    def seal(self) -> None:
        """Flush everything durably (fsync where meaningful) and close."""
        raise NotImplementedError

    def close(self) -> None:
        self.seal()

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RecordReader:
    """Iterates ``(rtype, payload)`` pairs of one stream."""

    kind: str

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "RecordReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StorageBackend:
    """A namespace of named record streams.

    ``metrics`` (DESIGN.md §9) is observe-only: writers and readers report
    ``storage.<scheme>.records_written`` / ``bytes_written`` / ``fsyncs``
    / ``records_read`` / ``bytes_read`` into it, and nothing in the
    storage layer ever reads a metric back.
    """

    scheme = "abstract"
    metrics: MetricsRegistry = NULL_METRICS

    def create(self, name: str, kind: str) -> RecordWriter:
        """A fresh stream (truncates any existing one)."""
        raise NotImplementedError

    def append(self, name: str, kind: str, fsync_every: bool = False) -> RecordWriter:
        """Open (or create) a stream for appending, recovering a torn
        tail first.  ``fsync_every`` forces a durability barrier per
        record -- the audit journal's requirement."""
        raise NotImplementedError

    def reader(self, name: str) -> RecordReader:
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        raise NotImplementedError

    def list_streams(self, prefix: str = "") -> List[str]:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        raise NotImplementedError

    def load_tolerant(self, name: str, kind: str) -> List[Tuple[int, bytes]]:
        """Every whole record of a stream, ignoring a torn tail.

        The crash-resume read path for journals, checkpoints, and the
        binlog: an interrupted final append must never prevent reopening
        the stream.  Mid-stream corruption still raises.  A missing
        stream reads as empty.
        """
        if not self.exists(name):
            return []
        records: List[Tuple[int, bytes]] = []
        with self.reader(name) as reader:
            if reader.kind != kind:
                raise RecordFormatError(
                    f"stream {name!r} holds {reader.kind!r} records, wanted {kind!r}"
                )
            try:
                for rtype, payload in reader:
                    records.append((rtype, payload))
            except RecordTruncatedError:
                pass
        return records


# -- shared incremental frame reader ------------------------------------------


def _read_exact(fh, n: int, context: str) -> bytes:
    data = fh.read(n)
    if len(data) < n:
        raise RecordTruncatedError(f"torn {context}: wanted {n} bytes, got {len(data)}")
    return data


def _iter_file_records(fh) -> Iterator[Tuple[int, bytes]]:
    """Stream records from a binary file object without materialising the
    stream -- the memory bound behind ``--store file`` audits."""
    while True:
        head = fh.read(_FRAME_HEAD.size)
        if not head:
            return
        if len(head) < _FRAME_HEAD.size:
            raise RecordTruncatedError(
                f"torn frame header ({len(head)} bytes at stream tail)"
            )
        rtype, length = _FRAME_HEAD.unpack(head)
        if length > MAX_RECORD_LEN:
            raise RecordFormatError(f"record claims {length} bytes (corrupt length)")
        payload = _read_exact(fh, length, "record payload")
        (stored_crc,) = _FRAME_CRC.unpack(_read_exact(fh, _FRAME_CRC.size, "record CRC"))
        crc = zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF
        if crc != stored_crc:
            # Whether this is a torn tail depends on what follows; peek.
            if fh.read(1):
                raise RecordFormatError("CRC mismatch on mid-stream record")
            raise RecordTruncatedError("CRC mismatch on final record")
        yield rtype, payload


def _read_file_header(fh, where: str) -> str:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise RecordFormatError(f"{where} is not a record stream (magic {magic!r})")
    kind_len = fh.read(1)
    if not kind_len:
        raise RecordTruncatedError(f"{where}: stream header torn")
    raw = _read_exact(fh, kind_len[0], "stream kind")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"{where}: stream kind is not utf-8: {exc}") from None


# -- in-memory -----------------------------------------------------------------


class _MemoryWriter(RecordWriter):
    def __init__(self, buf: bytearray, kind: str, metrics: MetricsRegistry = NULL_METRICS):
        self._buf = buf
        self.kind = kind
        self.records_written = 0
        self._metrics = metrics

    def append(self, rtype: int, payload: bytes) -> None:
        if self._buf is None:
            raise ValueError("writer is sealed")
        encoded = encode_record(rtype, payload)
        self._buf += encoded
        self.records_written += 1
        self._metrics.counter("storage.memory.records_written").inc()
        self._metrics.counter("storage.memory.bytes_written").inc(len(encoded))

    def seal(self) -> None:
        self._buf = None


class _MemoryReader(RecordReader):
    def __init__(self, buf: bytes, metrics: MetricsRegistry = NULL_METRICS):
        self._buf = buf
        self.kind, self._start = decode_stream_header(buf)
        self._metrics = metrics

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:
        from repro.storage.records import scan_records

        for rtype, payload, _ in scan_records(self._buf, self._start):
            self._metrics.counter("storage.memory.records_read").inc()
            self._metrics.counter("storage.memory.bytes_read").inc(len(payload))
            yield rtype, payload


class MemoryBackend(StorageBackend):
    """Streams held in RAM; the zero-durability reference backend."""

    scheme = "memory"

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._streams: Dict[str, bytearray] = {}
        self.metrics = ensure_metrics(metrics)

    def create(self, name: str, kind: str) -> RecordWriter:
        buf = bytearray(encode_stream_header(kind))
        self._streams[name] = buf
        return _MemoryWriter(buf, kind, metrics=self.metrics)

    def append(self, name: str, kind: str, fsync_every: bool = False) -> RecordWriter:
        buf = self._streams.get(name)
        if buf is None:
            return self.create(name, kind)
        got_kind, _, good = recover_stream(bytes(buf))
        if got_kind != kind:
            raise RecordFormatError(
                f"stream {name!r} holds {got_kind!r} records, wanted {kind!r}"
            )
        del buf[good:]
        return _MemoryWriter(buf, kind, metrics=self.metrics)

    def reader(self, name: str) -> RecordReader:
        if name not in self._streams:
            raise FileNotFoundError(name)
        return _MemoryReader(bytes(self._streams[name]), metrics=self.metrics)

    def exists(self, name: str) -> bool:
        return name in self._streams

    def list_streams(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._streams if n.startswith(prefix))

    def delete(self, name: str) -> None:
        self._streams.pop(name, None)

    def raw(self, name: str) -> bytearray:
        """The live byte buffer -- test hook for corruption injection."""
        return self._streams[name]


# -- append-only files ---------------------------------------------------------


class _FileWriter(RecordWriter):
    scheme = "file"

    def __init__(self, fh, kind: str, fsync_every: bool = False,
                 metrics: MetricsRegistry = NULL_METRICS):
        self._fh = fh
        self.kind = kind
        self._fsync_every = fsync_every
        self.records_written = 0
        self._metrics = metrics

    def append(self, rtype: int, payload: bytes) -> None:
        if self._fh is None:
            raise ValueError("writer is sealed")
        encoded = encode_record(rtype, payload)
        self._fh.write(encoded)
        # Per-record flush: a crash loses at most the record being
        # written, and torn-tail recovery drops that one cleanly.
        self._fh.flush()
        if self._fsync_every:
            os.fsync(self._fh.fileno())
            self._metrics.counter(f"storage.{self.scheme}.fsyncs").inc()
        self.records_written += 1
        self._metrics.counter(f"storage.{self.scheme}.records_written").inc()
        self._metrics.counter(f"storage.{self.scheme}.bytes_written").inc(len(encoded))

    def seal(self) -> None:
        if self._fh is None:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._metrics.counter(f"storage.{self.scheme}.fsyncs").inc()
        self._fh.close()
        self._fh = None


class _FileReader(RecordReader):
    def __init__(self, path: str, metrics: MetricsRegistry = NULL_METRICS):
        self._fh = open(path, "rb")
        self._metrics = metrics
        try:
            self.kind = _read_file_header(self._fh, os.path.basename(path))
        except Exception:
            self._fh.close()
            raise

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:
        for rtype, payload in _iter_file_records(self._fh):
            self._metrics.counter("storage.file.records_read").inc()
            self._metrics.counter("storage.file.bytes_read").inc(len(payload))
            yield rtype, payload

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class FileBackend(StorageBackend):
    """One ``<name>.rec`` append-only file per stream under ``root``."""

    scheme = "file"
    suffix = ".rec"

    def __init__(self, root: str, metrics: Optional[MetricsRegistry] = None):
        self.root = root
        self.metrics = ensure_metrics(metrics)
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name + self.suffix)

    def create(self, name: str, kind: str) -> RecordWriter:
        fh = open(self._path(name), "wb")
        fh.write(encode_stream_header(kind))
        fh.flush()
        return _FileWriter(fh, kind, metrics=self.metrics)

    def append(self, name: str, kind: str, fsync_every: bool = False) -> RecordWriter:
        path = self._path(name)
        if not os.path.exists(path):
            writer = self.create(name, kind)
            writer._fsync_every = fsync_every
            return writer
        with open(path, "rb") as fh:
            buf = fh.read()
        got_kind, _, good = recover_stream(buf)
        if got_kind != kind:
            raise RecordFormatError(
                f"{path} holds {got_kind!r} records, wanted {kind!r}"
            )
        fh = open(path, "r+b")
        fh.truncate(good)
        fh.seek(good)
        return _FileWriter(fh, kind, fsync_every=fsync_every, metrics=self.metrics)

    def reader(self, name: str) -> RecordReader:
        return _FileReader(self._path(name), metrics=self.metrics)

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def list_streams(self, prefix: str = "") -> List[str]:
        names = []
        for entry in os.listdir(self.root):
            if entry.endswith(self.suffix):
                name = entry[: -len(self.suffix)]
                if name.startswith(prefix):
                    names.append(name)
        return sorted(names)

    def delete(self, name: str) -> None:
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            pass


# -- gzip-compressed files -----------------------------------------------------


class _GzipWriter(RecordWriter):
    def __init__(self, raw, gz, kind: str, fsync_every: bool = False,
                 metrics: MetricsRegistry = NULL_METRICS):
        self._raw = raw
        self._gz = gz
        self.kind = kind
        self._fsync_every = fsync_every
        self.records_written = 0
        self._metrics = metrics

    def append(self, rtype: int, payload: bytes) -> None:
        if self._gz is None:
            raise ValueError("writer is sealed")
        encoded = encode_record(rtype, payload)
        self._gz.write(encoded)
        # SYNC_FLUSH emits a deflate block boundary: everything written so
        # far decompresses without the stream trailer.
        self._gz.flush(zlib.Z_SYNC_FLUSH)
        self._raw.flush()
        if self._fsync_every:
            os.fsync(self._raw.fileno())
            self._metrics.counter("storage.gzip.fsyncs").inc()
        self.records_written += 1
        self._metrics.counter("storage.gzip.records_written").inc()
        self._metrics.counter("storage.gzip.bytes_written").inc(len(encoded))

    def seal(self) -> None:
        if self._gz is None:
            return
        self._gz.close()
        self._raw.flush()
        os.fsync(self._raw.fileno())
        self._metrics.counter("storage.gzip.fsyncs").inc()
        self._raw.close()
        self._gz = None
        self._raw = None


class _GzipReader(RecordReader):
    def __init__(self, path: str, metrics: MetricsRegistry = NULL_METRICS):
        self._metrics = metrics
        # Decompression tolerates a missing gzip trailer (unsealed or
        # torn stream); frame CRCs are the integrity check that matters.
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            buf = _decompress_tolerant(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise RecordFormatError(f"{path}: corrupt gzip stream: {exc}") from None
        fh = io.BytesIO(buf)
        self.kind = _read_file_header(fh, os.path.basename(path))
        self._fh = fh

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:
        for rtype, payload in _iter_file_records(self._fh):
            self._metrics.counter("storage.gzip.records_read").inc()
            self._metrics.counter("storage.gzip.bytes_read").inc(len(payload))
            yield rtype, payload


def _decompress_tolerant(raw: bytes) -> bytes:
    """Inflate a gzip stream, keeping whatever decompressed before any
    truncation (the frame layer then applies its own tail recovery)."""
    out = bytearray()
    decomp = zlib.decompressobj(wbits=31)
    try:
        out += decomp.decompress(raw)
        while decomp.eof and decomp.unused_data:
            # Concatenated members (append-after-seal writes a new one).
            raw = decomp.unused_data
            decomp = zlib.decompressobj(wbits=31)
            out += decomp.decompress(raw)
    except zlib.error:
        if not out:
            raise
    return bytes(out)


class GzipBackend(FileBackend):
    """The file backend, gzip-compressed (``<name>.recz``)."""

    scheme = "gzip"
    suffix = ".recz"

    def create(self, name: str, kind: str) -> RecordWriter:
        raw = open(self._path(name), "wb")
        gz = gzip.GzipFile(fileobj=raw, mode="wb", mtime=0)
        gz.write(encode_stream_header(kind))
        gz.flush(zlib.Z_SYNC_FLUSH)
        raw.flush()
        return _GzipWriter(raw, gz, kind, metrics=self.metrics)

    def append(self, name: str, kind: str, fsync_every: bool = False) -> RecordWriter:
        path = self._path(name)
        if not os.path.exists(path):
            writer = self.create(name, kind)
            writer._fsync_every = fsync_every
            return writer
        # Gzip members cannot be resumed in place: recompact the whole
        # clean prefix into a fresh stream, then keep appending.
        reader = self.reader(name)
        if reader.kind != kind:
            raise RecordFormatError(
                f"{path} holds {reader.kind!r} records, wanted {kind!r}"
            )
        records: List[Tuple[int, bytes]] = []
        try:
            for rtype, payload in reader:
                records.append((rtype, payload))
        except RecordTruncatedError:
            pass
        tmp = path + ".tmp"
        raw = open(tmp, "wb")
        gz = gzip.GzipFile(fileobj=raw, mode="wb", mtime=0)
        gz.write(encode_stream_header(kind))
        for rtype, payload in records:
            gz.write(encode_record(rtype, payload))
        gz.flush(zlib.Z_SYNC_FLUSH)
        raw.flush()
        writer = _GzipWriter(raw, gz, kind, fsync_every=fsync_every,
                             metrics=self.metrics)
        writer.records_written = len(records)
        os.replace(tmp, path)
        return writer

    def reader(self, name: str) -> RecordReader:
        return _GzipReader(self._path(name), metrics=self.metrics)


# -- selection ------------------------------------------------------------------

SCHEMES = ("memory", "file", "gzip")


def backend_for(
    scheme: str,
    path: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> StorageBackend:
    """The backend named by a CLI ``--store`` choice."""
    if scheme == "memory":
        return MemoryBackend(metrics=metrics)
    if path is None:
        raise ValueError(f"the {scheme!r} store needs a path")
    if scheme == "file":
        return FileBackend(path, metrics=metrics)
    if scheme == "gzip":
        return GzipBackend(path, metrics=metrics)
    raise ValueError(f"unknown storage scheme {scheme!r}")
