"""Verified end-of-epoch state, chained by digest (DESIGN.md §6).

A :class:`Checkpoint` records what epoch *k*'s accepted audit proved about
the server's state at the seal point: the final value of every loggable
variable and the committed KV store contents.  Both are extracted from
*re-execution* (the verifier's own computation), never copied from the
advice: variable values come from walking the reconstructed write history
(initializer -> write_observer chain) into the variable dictionary, and
the KV state from replaying the verified write order over the previous
checkpoint's KV map.

Checkpoints form a hash chain: ``digest = H(index, parent_digest, vars,
kv)`` with the genesis parent a fixed constant.  Epoch *k+1*'s audit
initialises from checkpoint *k* (see :class:`repro.verifier.carry.CarryIn`),
so trust in a continuous audit reduces to trust in the chain: resuming
from storage re-verifies every digest, and a tampered stored checkpoint is
rejected as ``checkpoint-chain-forged`` before any epoch is re-audited.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import AdviceFormatError, KarousosError
from repro.storage.backend import StorageBackend
from repro.storage.values import canonical_value, decode_value, encode_value
from repro.server.variables import INIT_HID, INIT_RID, INIT_REF
from repro.verifier.carry import CarryIn
from repro.verifier.preprocess import AuditState
from repro.verifier.reexec import ReExecutor
from repro.verifier.state import VarState

GENESIS_DIGEST = "genesis"


class CheckpointError(KarousosError):
    """A checkpoint could not be extracted, stored, or verified."""


class CheckpointChainError(CheckpointError):
    """A stored checkpoint chain fails digest verification (forgery)."""


def compute_digest(
    index: int, parent_digest: str, vars: Dict[str, object], kv: Dict[str, object]
) -> str:
    doc = {
        "index": index,
        "parent": parent_digest,
        "vars": sorted(
            ([var_id, canonical_value(value)] for var_id, value in vars.items()),
            key=lambda pair: pair[0],
        ),
        "kv": sorted(
            ([key, canonical_value(value)] for key, value in kv.items()),
            key=lambda pair: pair[0],
        ),
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """Verified state at the end of one epoch."""

    epoch: int
    parent_digest: str
    vars: Dict[str, object]
    kv: Dict[str, object]
    digest: str

    @classmethod
    def make(
        cls,
        epoch: int,
        parent_digest: str,
        vars: Dict[str, object],
        kv: Dict[str, object],
    ) -> "Checkpoint":
        return cls(
            epoch=epoch,
            parent_digest=parent_digest,
            vars=dict(vars),
            kv=dict(kv),
            digest=compute_digest(epoch, parent_digest, vars, kv),
        )

    def verify(self) -> bool:
        return self.digest == compute_digest(
            self.epoch, self.parent_digest, self.vars, self.kv
        )

    def carry_in(self) -> CarryIn:
        return CarryIn(vars=dict(self.vars), kv=dict(self.kv))


# -- extraction from an accepted audit ---------------------------------------


def _final_var_value(var: VarState) -> object:
    """The value left by the last write in the reconstructed history chain.

    The chain starts at the initializer (the init pseudo-write unless the
    epoch's first write had no predecessor) and follows ``write_observer``;
    for an accepted audit of an honest epoch this is the total order of
    writes, so the chain's endpoint is the server's cell value at seal
    time.  The walk is bounded; a cyclic chain (impossible after an
    accepted audit) raises :class:`CheckpointError`.
    """
    key = var.initializer if var.initializer is not None else INIT_REF
    for _ in range(len(var.write_observer) + 1):
        nxt = var.write_observer.get(key)
        if nxt is None:
            break
        key = nxt
    else:
        raise CheckpointError(
            f"variable {var.var_id!r}: write history chain does not terminate"
        )
    if key == INIT_REF:
        return var.var_dict[(INIT_RID, INIT_HID)][0][1]
    rid, hid, opnum = key
    for w_opnum, value in var.var_dict.get((rid, hid), []):
        if w_opnum == opnum:
            return value
    raise CheckpointError(
        f"variable {var.var_id!r}: chain ends at {key} but no such write "
        f"re-executed"
    )


def checkpoint_from_audit(
    index: int,
    parent: Optional[Checkpoint],
    state: AuditState,
    re_exec: ReExecutor,
) -> Checkpoint:
    """Extract epoch ``index``'s checkpoint from its accepted audit.

    ``parent`` is epoch ``index - 1``'s checkpoint (None at genesis): its
    KV map is the base the epoch's verified write order is replayed over.
    """
    vars: Dict[str, object] = {}
    for var_id, var in re_exec.vars.items():
        if isinstance(var, VarState):
            vars[var_id] = _final_var_value(var)
        # Plain (non-loggable) variables are per-request on the verifier
        # side -- nothing crosses a request boundary, so nothing to carry.
    kv: Dict[str, object] = dict(parent.kv) if parent is not None else {}
    kv.update(state.initial_kv)
    for rid, tid, i in state.advice.write_order:
        entry = state.advice.tx_logs[(rid, tid)][i]
        kv[entry.key] = entry.opcontents
    parent_digest = parent.digest if parent is not None else GENESIS_DIGEST
    return Checkpoint.make(index, parent_digest, vars, kv)


# -- storage -------------------------------------------------------------------


def encode_checkpoint(cp: Checkpoint) -> str:
    doc = {
        "epoch": cp.epoch,
        "parent": cp.parent_digest,
        "vars": [[k, encode_value(v)] for k, v in sorted(cp.vars.items())],
        "kv": [[k, encode_value(v)] for k, v in sorted(cp.kv.items())],
        "digest": cp.digest,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def decode_checkpoint(payload: str) -> Checkpoint:
    try:
        doc = json.loads(payload)
        return Checkpoint(
            epoch=doc["epoch"],
            parent_digest=doc["parent"],
            vars={k: decode_value(v) for k, v in doc["vars"]},
            kv={k: decode_value(v) for k, v in doc["kv"]},
            digest=doc["digest"],
        )
    except (AdviceFormatError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


STREAM_KIND = "checkpoint"
STREAM_NAME = "checkpoints"
RT_CHECKPOINT = 1


class CheckpointStore:
    """Checkpoints by epoch index, optionally persisted.

    With a ``backend`` (a :class:`repro.storage.backend.StorageBackend`)
    the store is one append-only ``checkpoints`` record stream, one
    record per :meth:`put`, fsynced per record so a crash can never tear
    a checkpoint the journal already references.  Reopening replays the
    stream (later records for an index win) and recovers a torn tail.
    Without one, checkpoints live in memory only.

    :meth:`verify_chain` recomputes every digest and checks the parent
    links, so tampering with stored state is detected before any carried
    value is trusted.
    """

    def __init__(self, backend: Optional[StorageBackend] = None):
        self.backend = backend
        self._writer = None
        self._by_index: Dict[int, Checkpoint] = {}
        if backend is not None:
            for rtype, payload in backend.load_tolerant(STREAM_NAME, STREAM_KIND):
                if rtype != RT_CHECKPOINT:
                    raise CheckpointError(
                        f"unexpected checkpoint record type {rtype}"
                    )
                cp = decode_checkpoint(payload.decode("utf-8"))
                self._by_index[cp.epoch] = cp

    def __len__(self) -> int:
        return len(self._by_index)

    def __contains__(self, index: int) -> bool:
        return index in self._by_index

    def get(self, index: int) -> Optional[Checkpoint]:
        return self._by_index.get(index)

    def put(self, cp: Checkpoint) -> None:
        self._by_index[cp.epoch] = cp
        if self.backend is not None:
            if self._writer is None:
                # fsync_every: a "verified" journal entry must never
                # reference a checkpoint the store could still lose.
                self._writer = self.backend.append(
                    STREAM_NAME, STREAM_KIND, fsync_every=True
                )
            self._writer.append(
                RT_CHECKPOINT, encode_checkpoint(cp).encode("utf-8")
            )

    def close(self) -> None:
        """Seal the backend stream (no-op for in-memory stores)."""
        if self._writer is not None:
            self._writer.seal()
            self._writer = None

    def latest(self) -> Optional[Checkpoint]:
        if not self._by_index:
            return None
        return self._by_index[max(self._by_index)]

    def verify_chain(self, up_to: Optional[int] = None) -> None:
        """Check digests and parent links for epochs ``0..up_to`` (all
        stored epochs if None); raise :class:`CheckpointChainError` on the
        first inconsistency."""
        if up_to is None:
            up_to = max(self._by_index, default=-1)
        parent = GENESIS_DIGEST
        for index in range(up_to + 1):
            cp = self._by_index.get(index)
            if cp is None:
                raise CheckpointChainError(f"checkpoint {index} missing from chain")
            if cp.parent_digest != parent:
                raise CheckpointChainError(
                    f"checkpoint {index} parent digest does not match "
                    f"checkpoint {index - 1}"
                )
            if not cp.verify():
                raise CheckpointChainError(
                    f"checkpoint {index} digest does not match its contents"
                )
            parent = cp.digest
