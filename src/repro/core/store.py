"""QCKPT checkpoint store: a read-only reader for directories on disk.

Layout inside a storage backend::

    MANIFEST.json            # lists all records
    ckpt-000001.qckpt        # full checkpoint (QCKPT container)
    ckpt-000002.qckpt        # delta checkpoint (QCKPT container, kind=delta)

Every checkpoint is written by :class:`~repro.service.chunkstore.ChunkStore`
now.  :class:`CheckpointStore` answers the read verbs of the store protocol
over a QCKPT directory an earlier release wrote — full checkpoints, XOR /
append delta chains and lossy-transform objects all restore bitwise — and
refuses every writing verb with :class:`~repro.errors.ReadOnlyStoreError`.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.delta import apply_delta
from repro.core.restore import QckptSource, RestoreExecutor, RestorePlan
from repro.core.snapshot import TrainingSnapshot
from repro.errors import (
    CheckpointNotFoundError,
    ConfigError,
    IntegrityError,
    ReadOnlyStoreError,
    ReproError,
    SerializationError,
)
from repro.obs.metrics import MetricsRegistry
from repro.storage.backend import StorageBackend
from repro.storage.layout import MANIFEST_MARKER as MANIFEST_NAME

MANIFEST_VERSION = 1
_MAX_CHAIN_DEPTH = 64

KIND_FULL = "full"
KIND_DELTA = "delta"

DEFAULT_JOB = "default"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CheckpointRecord:
    """Manifest entry describing one stored checkpoint object (the manifest
    spells ``ckpt_id`` as ``"id"``)."""

    ckpt_id: str
    kind: str
    step: int
    object_name: str
    nbytes: int
    sha256: str
    codec: str
    created: float
    base_id: Optional[str] = None
    extra: Dict = field(default_factory=dict)

    @property
    def detail(self) -> str:
        """What this format adds to a listing: kind, codec, delta base."""
        base = f" on {self.base_id}" if self.base_id else ""
        return f"{self.kind} {self.codec}{base}"

    @classmethod
    def from_json(cls, data: Dict) -> "CheckpointRecord":
        try:
            return cls(
                ckpt_id=str(data["id"]),
                kind=str(data["kind"]),
                step=int(data["step"]),
                object_name=str(data["object_name"]),
                nbytes=int(data["nbytes"]),
                sha256=str(data["sha256"]),
                codec=str(data["codec"]),
                created=float(data["created"]),
                base_id=data.get("base_id"),
                extra=dict(data.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"malformed manifest record: {exc}") from exc


def _job_of(record: CheckpointRecord) -> str:
    return record.extra.get("job", DEFAULT_JOB)


def _recency(record: CheckpointRecord) -> Tuple[int, float, str]:
    return (record.step, record.created, record.ckpt_id)


class CheckpointStore:
    """Read-only view of a manifest-tracked QCKPT checkpoint collection.

    Every read — full load, partial load, recovery probe — runs through the
    unified restore pipeline (:mod:`repro.core.restore`): the store builds a
    :class:`~repro.core.restore.QckptSource` per stored object and lets the
    planner decide between one SHA-verified whole-object fetch (full
    restores, non-ranged backends) and CRC-verified ranged fetches (tensor
    subsets).  A delta chain is restored link by link, full base first.
    """

    def __init__(self, backend: StorageBackend):
        self.backend = backend
        self.metrics = MetricsRegistry()  # a trainer hook binds its stats here
        self._records: Dict[str, CheckpointRecord] = {}  # manifest order
        self._executor = RestoreExecutor()
        self._load_manifest()

    def _load_manifest(self) -> None:
        if not self.backend.exists(MANIFEST_NAME):
            return
        try:
            manifest = json.loads(self.backend.read(MANIFEST_NAME).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IntegrityError(f"manifest is not valid JSON: {exc}") from exc
        if manifest.get("version") != MANIFEST_VERSION:
            raise IntegrityError(
                f"unsupported manifest version {manifest.get('version')!r}"
            )
        for entry in manifest.get("records", []):
            record = CheckpointRecord.from_json(entry)
            self._records[record.ckpt_id] = record

    # -- writing: refused ---------------------------------------------------------

    def _read_only(self, verb: str):
        raise ReadOnlyStoreError(
            f"{verb}: a QCKPT store is read-only; new checkpoints go to a "
            "chunk store (repro.ChunkStore, or open_store(dir, shards=1) "
            "on a fresh directory)"
        )

    def save_snapshot(self, job_id: str, snapshot, extra=None):
        self._read_only("save_snapshot")

    def delete_checkpoint(self, job_id: str, ckpt_id: str) -> None:
        self._read_only("delete_checkpoint")

    def gc(self, keep_last_per_job: Optional[int] = None) -> Dict[str, int]:
        self._read_only("gc")

    # -- discovery ----------------------------------------------------------------

    def jobs(self) -> List[str]:
        """Job ids with at least one committed checkpoint (a record without
        ``extra["job"]`` — a store written before jobs were recorded —
        belongs to ``"default"``)."""
        return sorted({_job_of(r) for r in self._records.values()})

    def checkpoints(self, job_id: str) -> List[CheckpointRecord]:
        """``job_id``'s records in commit order."""
        return [r for r in self._records.values() if _job_of(r) == job_id]

    def _newest_first(self, job_id: str) -> List[CheckpointRecord]:
        """``job_id``'s records, highest step first (ties: latest created)."""
        return sorted(self.checkpoints(job_id), key=_recency, reverse=True)

    def latest(self, job_id: str) -> Optional[str]:
        """Id of ``job_id``'s newest record; ``None`` without one."""
        newest = self._newest_first(job_id)
        return newest[0].ckpt_id if newest else None

    def _record(self, job_id: str, ckpt_id: Optional[str]) -> CheckpointRecord:
        """One of ``job_id``'s records (``ckpt_id=None``: its latest)."""
        ckpt_id = ckpt_id or self.latest(job_id)
        record = self._records.get(ckpt_id)
        if record is None or _job_of(record) != job_id:
            what = f"checkpoint {ckpt_id!r}" if ckpt_id else "checkpoints"
            raise CheckpointNotFoundError(f"job {job_id!r} has no {what}")
        return record

    # -- loading -----------------------------------------------------------------

    def _resolve_chain(self, checkpoint_id: str) -> List[CheckpointRecord]:
        """Records from ``checkpoint_id`` back to its full base (validated)."""
        chain: List[CheckpointRecord] = []
        seen: Set[str] = set()
        cursor: Optional[str] = checkpoint_id
        while cursor is not None:
            if cursor in seen or len(chain) >= _MAX_CHAIN_DEPTH:
                raise IntegrityError(
                    f"delta chain of {checkpoint_id!r} is cyclic or exceeds "
                    f"{_MAX_CHAIN_DEPTH} links"
                )
            seen.add(cursor)
            record = self._records.get(cursor)
            if record is None:
                raise CheckpointNotFoundError(
                    f"checkpoint {cursor!r} not found"
                )
            chain.append(record)
            cursor = record.base_id if record.kind == KIND_DELTA else None
        if chain[-1].kind != KIND_FULL:
            raise IntegrityError(
                f"delta chain of {checkpoint_id!r} does not end in a full checkpoint"
            )
        return chain

    def _source_for(self, record: CheckpointRecord) -> QckptSource:
        return QckptSource(
            self.backend, record.object_name, expected_sha256=record.sha256
        )

    def plan_restore(
        self,
        job_id: str,
        ckpt_id: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
    ) -> RestorePlan:
        """Fetch plan for one restore, delta chain included (header-sized
        I/O only): each link's plan carries the older link's as ``base``,
        and :meth:`~repro.core.restore.RestorePlan.links` lists them
        oldest first."""
        chain = self._resolve_chain(self._record(job_id, ckpt_id).ckpt_id)
        wanted = None if names is None else tuple(dict.fromkeys(names))
        plan = None
        for record in reversed(chain):
            link = self._source_for(record).plan(
                wanted, require_all=False, prefetch=False
            )
            link.checkpoint_id = record.ckpt_id
            link.base_id = record.base_id
            link.base = plan
            plan = link
        return plan

    @staticmethod
    def _subset_delta(full_delta: Dict, wanted: Tuple[str, ...]) -> Dict:
        """The slice of one delta record that touches ``wanted`` tensors."""
        return {
            "entries": {
                name: entry
                for name, entry in full_delta["entries"].items()
                if name in wanted
            },
            "removed": [
                name
                for name in full_delta.get("removed", [])
                if name in wanted
            ],
        }

    def _restore_chain(
        self,
        chain: List[CheckpointRecord],
        wanted: Optional[Tuple[str, ...]],
    ) -> Tuple[Dict, Dict[str, np.ndarray]]:
        """Restore ``chain`` (newest record first) link by link: the full
        base, then each delta applied on top of what the links before it
        restored.  A whole-object read is verified before its header is
        parsed."""
        meta: Dict = {}
        tensors: Dict[str, np.ndarray] = {}
        for record in reversed(chain):
            source = self._source_for(record)
            link_meta, link_tensors = self._executor.run(
                source, source.plan(wanted, require_all=False)
            )
            if record.kind == KIND_FULL:
                tensors = link_tensors
            else:
                delta = link_meta["delta"]
                if wanted is not None:
                    delta = self._subset_delta(delta, wanted)
                tensors = apply_delta(tensors, link_tensors, delta)
            meta = link_meta
        return meta, tensors

    def load_tensors(
        self,
        job_id: str,
        ckpt_id: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
    ) -> Tuple[Dict, Dict[str, np.ndarray]]:
        """Resolve one checkpoint (through its delta chain) to
        ``(snapshot_meta, tensors)``.

        ``names`` restores only those tensors, transferring only their
        chunks: reading the O(kB) parameters out of a checkpoint whose 2^n
        statevector cache is orders of magnitude larger.  Delta chains are
        resolved per tensor (XOR/append entries pull the tensor's base;
        untouched records are skipped).  Ranged fetches cannot check the
        whole-file SHA-256; every transferred chunk is still CRC32-verified.
        """
        record = self._record(job_id, ckpt_id)
        wanted = None if names is None else tuple(dict.fromkeys(names))
        meta, tensors = self._restore_chain(
            self._resolve_chain(record.ckpt_id), wanted
        )
        if wanted is not None:
            missing = [name for name in wanted if name not in tensors]
            if missing:
                raise SerializationError(
                    f"tensors not present in {record.ckpt_id!r}: {missing}"
                )
        return meta["snapshot"], tensors

    def load_snapshot(
        self, job_id: str, ckpt_id: Optional[str] = None
    ) -> TrainingSnapshot:
        """Reconstruct a snapshot (``ckpt_id=None`` selects the latest)."""
        meta, tensors = self.load_tensors(job_id, ckpt_id)
        return TrainingSnapshot.from_payload(meta, tensors)

    # -- recovery -----------------------------------------------------------------

    def _first_restorable(self, job_id: str, load):
        """Walk ``job_id``'s records newest-first; ``(id, load(id), skipped)``
        for the first one ``load`` restores.  Recovery must tolerate damage:
        a record may be torn, bit-rotted, or a delta whose base is gone."""
        skipped: List[Tuple[str, str]] = []
        for record in self._newest_first(job_id):
            try:
                return record.ckpt_id, load(record.ckpt_id), skipped
            except ReproError as exc:
                logger.warning(
                    "skipping damaged checkpoint %s (step %d): %s",
                    record.ckpt_id,
                    record.step,
                    exc,
                )
                skipped.append((record.ckpt_id, str(exc)))
        return None, None, skipped

    def latest_valid(
        self, job_id: str
    ) -> Tuple[Optional[str], Optional[TrainingSnapshot], List[Tuple[str, str]]]:
        """Newest checkpoint of ``job_id`` that loads and validates end to
        end, skipping damaged ones: ``(id, snapshot, skipped)``."""
        return self._first_restorable(
            job_id, lambda ckpt_id: self.load_snapshot(job_id, ckpt_id)
        )

    def latest_valid_partial(
        self, job_id: str, names: Sequence[str]
    ) -> Tuple[Optional[str], Optional[Dict], List[Tuple[str, str]]]:
        """Newest checkpoint whose named tensors restore:
        ``(id, {name: array} or None, skipped)``.  Only the requested
        tensors' chunks are planned and fetched per candidate, so probing a
        damaged history costs ranged reads, not full transfers."""
        if not tuple(names):
            raise ConfigError(
                "latest_valid_partial needs at least one tensor name"
            )
        return self._first_restorable(
            job_id,
            lambda ckpt_id: self.load_tensors(job_id, ckpt_id, names)[1],
        )

    def verify(self, job_id: str, ckpt_id: str) -> Tuple[bool, str]:
        """Validate one checkpoint end to end (chain resolution included)."""
        try:
            self.load_snapshot(job_id, ckpt_id)
            return True, "ok"
        except ReproError as exc:
            return False, str(exc)

    def total_physical_bytes(self) -> int:
        """Sum of stored object sizes according to the manifest."""
        return sum(record.nbytes for record in self._records.values())
