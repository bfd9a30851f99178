"""Checkpoint store: manifest, discovery, delta chains, retention, recovery.

Layout inside a storage backend::

    MANIFEST.json            # atomic-replace updated, lists all records
    ckpt-000001.qckpt        # full checkpoint (QCKPT container)
    ckpt-000002.qckpt        # delta checkpoint (QCKPT container, kind=delta)

Ordering guarantee: an object is fully written (atomically) *before* the
manifest mentions it, so a crash between the two leaves an orphan object —
never a dangling manifest entry.  Orphans are swept by :meth:`CheckpointStore.gc`.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.delta import apply_delta, encode_delta
from repro.core.integrity import sha256_hex
from repro.core.restore import (
    QckptSource,
    RestoreExecutor,
    RestorePlan,
)
from repro.core.serialize import pack_payload
from repro.core.snapshot import TrainingSnapshot
from repro.errors import (
    CheckpointNotFoundError,
    ConfigError,
    IntegrityError,
    ReproError,
    SerializationError,
)
from repro.faults.crashpoints import crash_point, register_crash_point
from repro.obs.metrics import MetricsRegistry
from repro.storage.backend import StorageBackend
from repro.storage.layout import MANIFEST_MARKER as MANIFEST_NAME

CP_OBJECT_BEFORE_WRITE = register_crash_point(
    "corestore.object.before-write",
    "die before a checkpoint object reaches the backend (manifest unchanged)",
)
CP_MANIFEST_BEFORE_WRITE = register_crash_point(
    "corestore.manifest.before-write",
    "die with the object durable but MANIFEST.json not yet rewritten "
    "(an orphan object, swept by gc)",
)
CP_MANIFEST_AFTER_WRITE = register_crash_point(
    "corestore.manifest.after-write",
    "die right after the atomic MANIFEST.json replace (commit point)",
)

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

    def to_json(self) -> Dict:
        data = asdict(self)
        data["id"] = data.pop("ckpt_id")
        return data

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


@dataclass
class _DeltaBase:
    """A job's last full save, which its next deltas are encoded against."""

    record: CheckpointRecord
    tensors: Dict[str, np.ndarray]
    deltas: int = 0  # committed against this base so far


@dataclass(frozen=True)
class RetentionPolicy:
    """Which checkpoints the store's ``retention=`` (and :meth:`CheckpointStore.gc`) keeps.

    ``keep_last`` retains each job's N records with the highest steps (one
    job's saves never evict another's); ``keep_every``
    additionally retains records whose step is a multiple of that stride
    (long-horizon history).  Bases of retained deltas are always retained,
    transitively — GC never breaks a restore chain.
    """

    keep_last: Optional[int] = None
    keep_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.keep_last is not None and self.keep_last < 1:
            raise ConfigError(f"keep_last must be >= 1, got {self.keep_last}")
        if self.keep_every is not None and self.keep_every < 1:
            raise ConfigError(f"keep_every must be >= 1, got {self.keep_every}")


class CheckpointStore:
    """Durable, manifest-tracked checkpoint collection on a backend.

    Every read — full load, partial load, recovery probe — runs through the
    unified restore pipeline (:mod:`repro.core.restore`): the store builds a
    :class:`~repro.core.restore.QckptSource` per stored object and lets the
    planner decide between one SHA-verified whole-object fetch (full
    restores, non-ranged backends) and CRC-verified ranged fetches (tensor
    subsets).  ``restore_workers`` bounds the executor's fetch parallelism.

    Delta-chain read-ahead: restoring a chain fetches link 1, decodes it
    while links 2..(1+``readahead_links``) are already being prefetched on
    the executor's threads, and so on — transfer latency of later links
    hides behind decode/XOR-apply of earlier ones.  ``readahead_links=0``
    restores chains strictly sequentially (fetch, decode, fetch, ...).

    How :meth:`save_snapshot` writes is the store's, since the store owns
    the format: ``codec`` / ``transforms`` encode every object it packs;
    with ``delta`` a job's saves are a full checkpoint every ``full_every``
    saves and XOR deltas against that full in between (chain length bounded
    by construction; the base's tensors are kept in memory, so a delta costs
    no store round trip); ``retention`` is applied after every save.
    """

    def __init__(
        self,
        backend: StorageBackend,
        restore_workers: int = 4,
        readahead_links: int = 2,
        retry=None,
        codec: str = "zlib-6",
        transforms: Optional[Dict[str, str]] = None,
        delta: bool = False,
        full_every: int = 10,
        retention: Optional[RetentionPolicy] = None,
    ):
        if readahead_links < 0:
            raise ConfigError(
                f"readahead_links must be >= 0, got {readahead_links}"
            )
        if full_every < 1:
            raise ConfigError(f"full_every must be >= 1, got {full_every}")
        if delta and transforms:
            raise ConfigError(
                "delta checkpoints require lossless storage; lossy transforms "
                "would make XOR deltas diverge from the stored base"
            )
        self.backend = backend
        self.readahead_links = int(readahead_links)
        self.codec = codec
        self.transforms = dict(transforms or {})
        self.delta = bool(delta)
        self.full_every = int(full_every)
        self.retention = retention
        self.metrics = MetricsRegistry()
        # The delta cadence per job, advanced only when a save commits.
        self._delta_base: Dict[str, _DeltaBase] = {}
        self._lock = threading.RLock()
        self._records: Dict[str, CheckpointRecord] = {}
        self._order: List[str] = []
        self._next_seq = 1
        # retry: an optional repro.reliability.RetryPolicy — restores retry
        # transient fetch failures and refetch blocks that fail verification.
        self._executor = RestoreExecutor(
            max_workers=restore_workers, retry=retry
        )
        self._load_manifest()

    # -- manifest ---------------------------------------------------------------

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
        self._next_seq = int(manifest.get("next_seq", 1))
        for entry in manifest.get("records", []):
            record = CheckpointRecord.from_json(entry)
            self._records[record.ckpt_id] = record
            self._order.append(record.ckpt_id)

    def _write_manifest(self) -> None:
        manifest = {
            "version": MANIFEST_VERSION,
            "next_seq": self._next_seq,
            "records": [self._records[i].to_json() for i in self._order],
        }
        data = json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8")
        crash_point(CP_MANIFEST_BEFORE_WRITE)
        self.backend.write(MANIFEST_NAME, data)
        crash_point(CP_MANIFEST_AFTER_WRITE)

    # -- identifiers ---------------------------------------------------------------

    def _allocate_id(self) -> str:
        checkpoint_id = f"ckpt-{self._next_seq:06d}"
        self._next_seq += 1
        return checkpoint_id

    # -- saving -----------------------------------------------------------------

    def _commit(
        self,
        kind: str,
        step: int,
        data: bytes,
        codec: str,
        base_id: Optional[str],
        extra: Optional[Dict],
    ) -> CheckpointRecord:
        """Object first, manifest second, under the store's lock."""
        with self._lock:
            checkpoint_id = self._allocate_id()
            record = CheckpointRecord(
                ckpt_id=checkpoint_id,
                kind=kind,
                step=step,
                object_name=f"{checkpoint_id}.qckpt",
                nbytes=len(data),
                sha256=sha256_hex(data),
                codec=codec,
                created=time.time(),
                base_id=base_id,
                extra=dict(extra or {}),
            )
            crash_point(CP_OBJECT_BEFORE_WRITE)
            self.backend.write(record.object_name, data)
            self._records[record.ckpt_id] = record
            self._order.append(record.ckpt_id)
            self._write_manifest()
        return record

    def save_snapshot(
        self,
        job_id: str,
        snapshot: TrainingSnapshot,
        extra: Optional[Dict] = None,
    ) -> CheckpointRecord:
        """Commit ``snapshot`` for ``job_id`` as the store is configured.

        Full or delta is decided here, at commit time and under the store's
        lock, from what has actually been committed — a writer that queues
        several saves ahead cannot skew the cadence.  The job id is recorded
        as ``extra["job"]``; retention runs after the save.
        """
        extra = {**(extra or {}), "job": job_id}
        with self._lock:
            base = self._delta_base.get(job_id) if self.delta else None
            if (
                base is not None
                and base.deltas < self.full_every - 1
                and base.record.ckpt_id in self._records  # not gc'd under us
            ):
                record = self.save_delta(
                    snapshot,
                    base.record.ckpt_id,
                    base_tensors=base.tensors,
                    codec=self.codec,
                    extra=extra,
                )
                base.deltas += 1
            else:
                record = self.save_full(
                    snapshot,
                    codec=self.codec,
                    transforms=self.transforms,
                    extra=extra,
                )
                if self.delta:
                    # A private copy: the caller may mutate its snapshot.
                    _, tensors = snapshot.copy().to_payload()
                    self._delta_base[job_id] = _DeltaBase(record, tensors)
            if self.retention is not None:
                self._retain(self.retention)
        return record

    def save_full(
        self,
        snapshot: TrainingSnapshot,
        codec: str = "zlib-6",
        transforms: Optional[Dict[str, str]] = None,
        extra: Optional[Dict] = None,
    ) -> CheckpointRecord:
        """Persist a full checkpoint; returns its manifest record."""
        meta, tensors = snapshot.to_payload()
        data = pack_payload(
            {"kind": KIND_FULL, "snapshot": meta},
            tensors,
            codec=codec,
            transforms=transforms,
        )
        return self._commit(KIND_FULL, snapshot.step, data, codec, None, extra)

    def save_delta(
        self,
        snapshot: TrainingSnapshot,
        base_id: str,
        base_tensors: Optional[Dict[str, np.ndarray]] = None,
        codec: str = "zlib-6",
        extra: Optional[Dict] = None,
    ) -> CheckpointRecord:
        """Persist a delta against ``base_id``.

        ``base_tensors`` avoids a re-read when the caller (the manager) kept
        the base's decoded tensors in memory; otherwise the base chain is
        loaded from the store.
        """
        with self._lock:
            if base_id not in self._records:
                raise CheckpointNotFoundError(f"base checkpoint {base_id!r} not found")
        if base_tensors is None:
            base_tensors = self._restore_chain(
                self._resolve_chain(base_id), None
            )[1]
        meta, tensors = snapshot.to_payload()
        delta_tensors, delta_meta = encode_delta(base_tensors, tensors)
        data = pack_payload(
            {
                "kind": KIND_DELTA,
                "base_id": base_id,
                "snapshot": meta,
                "delta": delta_meta,
            },
            delta_tensors,
            codec=codec,
        )
        return self._commit(
            KIND_DELTA, snapshot.step, data, codec, base_id, extra
        )

    # -- discovery ----------------------------------------------------------------

    def jobs(self) -> List[str]:
        """Job ids with at least one committed checkpoint (a record without
        ``extra["job"]`` — a store written before jobs were recorded —
        belongs to ``"default"``)."""
        with self._lock:
            return sorted({_job_of(r) for r in self._records.values()})

    def checkpoints(self, job_id: str) -> List[CheckpointRecord]:
        """``job_id``'s records in commit order."""
        with self._lock:
            records = [self._records[i] for i in self._order]
        return [r for r in records if _job_of(r) == job_id]

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
        with self._lock:
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
            with self._lock:
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

    def _plan_chain(
        self,
        chain: List[CheckpointRecord],
        wanted: Optional[Tuple[str, ...]],
        sources: Optional[List[QckptSource]] = None,
        prefetch: bool = False,
    ) -> RestorePlan:
        """One plan for ``chain`` (newest record first): each link's plan
        carries the older link's as ``base``.  Header-sized I/O only,
        unless ``prefetch`` (see :meth:`QckptSource.plan`)."""
        plan = None
        for i in reversed(range(len(chain))):
            source = sources[i] if sources else self._source_for(chain[i])
            link = source.plan(wanted, require_all=False, prefetch=prefetch)
            link.checkpoint_id = chain[i].ckpt_id
            link.base_id = chain[i].base_id
            link.base = plan
            plan = link
        return plan

    def plan_restore(
        self,
        job_id: str,
        ckpt_id: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
    ) -> RestorePlan:
        """Fetch plan for one restore, delta chain included (no payload
        transfer): what would this restore fetch?  The plan's
        :meth:`~repro.core.restore.RestorePlan.links` double as the
        read-ahead schedule."""
        chain = self._resolve_chain(self._record(job_id, ckpt_id).ckpt_id)
        wanted = None if names is None else tuple(dict.fromkeys(names))
        return self._plan_chain(chain, wanted)

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
        """Pipelined chain restore: decode link i, prefetch links i+1...

        A single object is read whole and verified before its header is
        parsed.  Multi-link chains plan every link upfront (header-sized
        I/O), then walk oldest-first with up to ``readahead_links`` links
        of transfer in flight ahead of the decode cursor — later links'
        transfer latency hides behind earlier links' decode and XOR-apply.
        On any failure the outstanding read-ahead is cancelled, so no
        background I/O outlives the restore.
        """
        sources = [self._source_for(record) for record in chain]
        plans = self._plan_chain(
            chain, wanted, sources, prefetch=len(chain) == 1
        ).links()
        sources.reverse()  # full base first, like the plans
        handles: List = [None] * len(plans)
        meta: Dict = {}
        tensors: Dict[str, np.ndarray] = {}
        try:
            for i in range(len(plans)):
                if self.readahead_links > 0:
                    ahead = min(len(plans), i + 1 + self.readahead_links)
                    for j in range(i + 1, ahead):
                        if handles[j] is None:
                            handles[j] = self._executor.prefetch(
                                sources[j], plans[j]
                            )
                link_meta, link_tensors = self._executor.run(
                    sources[i], plans[i], prefetched=handles[i]
                )
                # Release the consumed link: the source caches the whole
                # container buffer on non-ranged paths, so keeping every
                # link alive would make peak memory O(chain) instead of
                # O(readahead window).
                handles[i] = None
                sources[i] = None
                if i == 0:
                    meta, tensors = link_meta, link_tensors
                else:
                    delta = link_meta["delta"]
                    if wanted is not None:
                        delta = self._subset_delta(delta, wanted)
                    tensors = apply_delta(tensors, link_tensors, delta)
                    meta = link_meta
        finally:
            for handle in handles:
                if handle is not None:
                    handle.cancel()
        return meta, tensors

    def load_tensors(
        self,
        job_id: str,
        ckpt_id: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
    ) -> Tuple[Dict, Dict[str, np.ndarray]]:
        """Resolve one checkpoint (through its delta chain, with read-ahead
        across links) to ``(snapshot_meta, tensors)``.

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
        a record may be torn (crash mid-write on a non-atomic store),
        bit-rotted, or a delta whose base is gone."""
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

    def chain_length(self, checkpoint_id: str) -> int:
        """Number of objects a restore of ``checkpoint_id`` must read."""
        return len(self._resolve_chain(checkpoint_id))

    # -- verification ---------------------------------------------------------------

    def verify(self, job_id: str, ckpt_id: str) -> Tuple[bool, str]:
        """Validate one checkpoint end to end (chain resolution included)."""
        try:
            self.load_snapshot(job_id, ckpt_id)
            return True, "ok"
        except ReproError as exc:
            return False, str(exc)

    def object_validator(self):
        """``(name, data) -> bool`` callback for storage-layer scrubbing.

        Checkpoint objects validate against their manifest SHA-256; the
        manifest itself validates by parsing.  Replicated backends use this
        to break divergence ties that byte-voting cannot resolve (see
        :meth:`repro.storage.replicated.ReplicatedBackend.scrub`).
        """
        with self._lock:
            expected = {
                record.object_name: record.sha256
                for record in self._records.values()
            }

        def validate(name: str, data: bytes) -> bool:
            if name == MANIFEST_NAME:
                try:
                    manifest = json.loads(data.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    return False
                return manifest.get("version") == MANIFEST_VERSION
            digest = expected.get(name)
            return digest is not None and sha256_hex(data) == digest

        return validate

    # -- deletion & retention ---------------------------------------------------------

    def delete_checkpoint(self, job_id: str, ckpt_id: str) -> None:
        """Remove one checkpoint (manifest first, object second)."""
        with self._lock:
            record = self._record(job_id, ckpt_id)
            dependents = [
                r.ckpt_id
                for r in self._records.values()
                if r.base_id == ckpt_id
            ]
            if dependents:
                raise ConfigError(
                    f"cannot delete {ckpt_id!r}: deltas {dependents} "
                    "depend on it"
                )
            del self._records[ckpt_id]
            self._order.remove(ckpt_id)
            self._write_manifest()
            self.backend.delete(record.object_name)

    def _retained_ids(self, retention: RetentionPolicy) -> Set[str]:
        records = list(self._records.values())
        keep: Set[str] = set()
        if retention.keep_last is not None:
            for job_id in self.jobs():
                newest = self._newest_first(job_id)[: retention.keep_last]
                keep.update(r.ckpt_id for r in newest)
        if retention.keep_every is not None:
            keep.update(
                r.ckpt_id
                for r in records
                if r.step % retention.keep_every == 0
            )
        if retention.keep_last is None and retention.keep_every is None:
            keep.update(r.ckpt_id for r in records)
        # Never break a chain: pull in bases transitively.
        frontier = list(keep)
        while frontier:
            record = self._records[frontier.pop()]
            if record.base_id and record.base_id not in keep:
                keep.add(record.base_id)
                frontier.append(record.base_id)
        return keep

    def gc(
        self,
        keep_last_per_job: Optional[int] = None,
        keep_every: Optional[int] = None,
    ) -> Dict[str, int]:
        """Apply retention (see :class:`RetentionPolicy`) and sweep orphan
        objects.  Returns ``{"manifests": n, "chunks": n, "bytes": n}``
        deleted — the chunk store's keys: records dropped from the
        manifest, objects removed, and their size."""
        return self._retain(RetentionPolicy(keep_last_per_job, keep_every))

    def _retain(self, retention: RetentionPolicy) -> Dict[str, int]:
        with self._lock:
            keep = self._retained_ids(retention)
            doomed = [i for i in self._order if i not in keep]
            for checkpoint_id in doomed:
                del self._records[checkpoint_id]
            self._order = [i for i in self._order if i in keep]
            self._write_manifest()
            # Everything the manifest no longer (or never) references.
            referenced = {self._records[i].object_name for i in self._order}
            deleted_objects = deleted_bytes = 0
            for name in self.backend.list("ckpt-"):
                if name not in referenced:
                    deleted_bytes += self.backend.size(name)
                    self.backend.delete(name)
                    deleted_objects += 1
        return {
            "manifests": len(doomed),
            "chunks": deleted_objects,
            "bytes": deleted_bytes,
        }

    def total_physical_bytes(self) -> int:
        """Sum of stored object sizes according to the manifest."""
        with self._lock:
            return sum(record.nbytes for record in self._records.values())
