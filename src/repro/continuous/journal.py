"""Crash-resumable audit progress journal (DESIGN.md §6).

One event per record, appended and made *durable* (flush + fsync) as the
continuous audit progresses:

* ``{"event": "sealed",   "epoch": k, "requests": n}``
* ``{"event": "verified", "epoch": k, "digest": "..."}``
* ``{"event": "rejected", "epoch": k, "reason": "...", "detail": "..."}``

A restarted auditor loads the journal, finds the last verified epoch, and
resumes after it -- re-auditing nothing that already verified, provided
the checkpoint chain up to that epoch still verifies (a tampered
checkpoint store invalidates the journal's claim and the resume is
refused as ``checkpoint-chain-forged``).

Persisted with a ``backend`` (a
:class:`repro.storage.backend.StorageBackend`): a ``journal`` record
stream with per-record fsync, whose CRC framing and torn-tail recovery
mean a kill mid-append loses at most the record being written.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.storage.backend import StorageBackend
from repro.storage.records import pack_json, unpack_json

STREAM_KIND = "journal"
STREAM_NAME = "journal"
RT_JOURNAL_EVENT = 1


class AuditJournal:
    """Append-only, fsync-per-record progress log; in-memory when no
    ``backend`` is given."""

    def __init__(self, backend: Optional[StorageBackend] = None):
        self.backend = backend
        self._writer = None
        self.events: List[Dict] = []
        if backend is not None:
            for rtype, payload in backend.load_tolerant(STREAM_NAME, STREAM_KIND):
                if rtype == RT_JOURNAL_EVENT:
                    self.events.append(unpack_json(payload))

    def record(self, event: str, epoch: int, **fields: object) -> None:
        entry: Dict = {"event": event, "epoch": epoch}
        entry.update(fields)
        self.events.append(entry)
        if self.backend is not None:
            if self._writer is None:
                self._writer = self.backend.append(
                    STREAM_NAME, STREAM_KIND, fsync_every=True
                )
            self._writer.append(RT_JOURNAL_EVENT, pack_json(entry))

    def close(self) -> None:
        """Seal the backend stream (no-op for in-memory journals)."""
        if self._writer is not None:
            self._writer.seal()
            self._writer = None

    # -- resume queries ----------------------------------------------------

    def last_verified(self) -> int:
        """Highest epoch index with a contiguous verified prefix 0..k, or
        -1 if none: resumption must not trust a verified epoch whose
        predecessors are not all verified."""
        verified = {e["epoch"] for e in self.events if e["event"] == "verified"}
        last = -1
        while last + 1 in verified:
            last += 1
        return last

    def verified_digests(self) -> Dict[int, str]:
        """Checkpoint digest recorded at verification time, per epoch.
        These anchor resumption: a stored checkpoint whose digest was
        recomputed after forging its contents still chains internally,
        but cannot match the digest journalled when it was verified."""
        return {
            e["epoch"]: e["digest"]
            for e in self.events
            if e["event"] == "verified" and "digest" in e
        }

    def rejections(self) -> List[Dict]:
        return [e for e in self.events if e["event"] == "rejected"]
