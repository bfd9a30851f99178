"""Content-addressed, sharded chunk store for multi-job checkpointing.

The one store that writes checkpoints.  Where the QCKPT stores of earlier
releases (read by :class:`~repro.core.store.CheckpointStore`) persisted each
checkpoint as one monolithic object, the chunk store splits every snapshot
into fixed-size blocks of canonical tensor bytes and addresses each block by
the SHA-256 of its *raw* content:

* blocks whose content was already written — by an earlier checkpoint of the
  same job, or by *any other job* sharing the store — are not written again
  (cross-checkpoint and cross-job dedup; sweep fleets share their initial
  and slow-moving tensors),
* the content address doubles as the integrity check: a chunk read back must
  hash to its own name,
* chunk names hash uniformly, so putting a
  :class:`~repro.storage.sharded.ShardedBackend` underneath spreads fleet
  write traffic across devices with no placement state.

Layout inside the backend (flat namespace, possibly sharded)::

    ch-<sha256[:32]>             # one compressed block of tensor bytes
    job-<job>-ckpt-000001.json   # checkpoint manifest: meta tree + block map

Ordering guarantee: every referenced chunk is fully written *before* the
checkpoint manifest that names it, so a crash leaves at most orphan chunks —
swept by :meth:`ChunkStore.gc` against the set of blocks reachable from
surviving manifests.  Refcounts are therefore never persisted; manifests are
the single source of truth.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codecs import COSTLY, STORED, get_codec
from repro.core.hashing import block_address_stream
from repro.core.restore import (
    CONTENT_ADDRESS_PREFIX,
    BlockSpec,
    MODE_WHOLE,
    ObjectPlan,
    RestoreExecutor,
    RestorePlan,
    RestoreSource,
    TensorPlan,
    content_address,
)
from repro.core.serialize import tensor_to_bytes
from repro.core.snapshot import TrainingSnapshot
from repro.errors import (
    CheckpointNotFoundError,
    ConfigError,
    IntegrityError,
    ReproError,
    SerializationError,
    StorageError,
    TransientStorageError,
)
from repro.faults.crashpoints import crash_point, register_crash_point
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.obs.trace import span_scope
from repro.storage.backend import StorageBackend, validate_name
from repro.storage.metadb import index_manifest

CP_CHUNK_BEFORE_WRITE = register_crash_point(
    "chunkstore.chunk.before-write",
    "die before a new chunk's payload reaches the backend",
)
CP_CHUNK_AFTER_WRITE = register_crash_point(
    "chunkstore.chunk.after-write",
    "die after the chunk write lands but before it is published to the "
    "dedup index (an orphan chunk, no manifest)",
)
CP_MANIFEST_BEFORE_WRITE = register_crash_point(
    "chunkstore.manifest.before-write",
    "die with every chunk durable but the checkpoint manifest unwritten",
)
CP_MANIFEST_AFTER_WRITE = register_crash_point(
    "chunkstore.manifest.after-write",
    "die after the manifest commit point but before in-memory bookkeeping",
)

CHUNK_PREFIX = CONTENT_ADDRESS_PREFIX
MANIFEST_VERSION = 1


def chunk_name(raw: bytes, codec_name: str) -> str:
    """Content address of one raw block.

    The codec is part of the identity: the same raw content stored under two
    codecs is two different objects, so stores reopened with a different
    codec neither overwrite old-codec chunks nor dedup against them — every
    manifest's ``codec`` field describes all of its blocks.  (The address
    format itself is owned by :func:`repro.core.restore.content_address`, so
    the restore executor can verify chunks without importing this module.)
    """
    return content_address(raw, codec_name)


class ChunkStoreStats(StatsView):
    """Dedup accounting across the store's lifetime (this process).

    ``logical`` counts every block reference as if dedup did not exist;
    ``physical`` counts blocks actually written.  Their ratio is what
    content addressing saved.  Registry-backed (``store.*`` series) so a
    fleet daemon's shared registry sees the same numbers.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        super().__init__()
        registry = metrics if metrics is not None else MetricsRegistry()
        for name in (
            "chunks_written",
            "chunks_deduped",
            "logical_bytes",
            "physical_bytes",
            "manifest_bytes",
            "checkpoints",
        ):
            self._bind(name, registry.counter(f"store.{name}"))

    @property
    def dedup_ratio(self) -> float:
        if self.physical_bytes == 0:
            return 1.0
        return self.logical_bytes / self.physical_bytes


class ChunkManifestSource(RestoreSource):
    """Restore source over one chunk-store checkpoint manifest.

    Plans chunk-object fetches: each block of a requested tensor is one
    content-addressed object, read whole (chunk objects *are* blocks) and
    verified against its address by the executor.  Chunks shared by several
    tensors are fetched once.  Reads go through :meth:`StorageBackend.read`,
    so a :class:`~repro.storage.tiered.TieredBackend` underneath promotes
    every chunk a restore touches — repeated restores of hot jobs run at
    fast-tier speed.
    """

    kind = "chunks"

    def __init__(self, backend: StorageBackend, object_name: str, manifest: Dict):
        self.backend = backend
        self.object_name = object_name
        self.manifest = manifest

    @property
    def supports_read_into(self) -> bool:
        return self.backend.supports_read_into

    def read_object(self, name: str, into=None) -> bytes:
        try:
            if into is None:
                return self.backend.read(name)
            return self.backend.read(name, into=into)
        except TransientStorageError:
            # Retryable by contract: let the executor's retry policy see
            # it instead of laundering it into permanent-looking damage.
            raise
        except StorageError as exc:
            if name.startswith(CHUNK_PREFIX):
                # The classic damage mode: a gc raced this restore, or a
                # shard was wiped.  Surface it as integrity damage naming
                # the checkpoint, not a bare missing-object error.
                raise IntegrityError(
                    f"checkpoint {self.manifest.get('ckpt_id')!r} of job "
                    f"{self.manifest.get('job')!r} references chunk {name} "
                    f"which is missing from the store "
                    f"(garbage-collected or lost): {exc}"
                ) from exc
            raise

    def read_range(self, name: str, start: int, length: int) -> bytes:
        return self.read_object(name)[start : start + length]

    def plan(
        self,
        names: Optional[Sequence[str]] = None,
        require_all: bool = True,
    ) -> RestorePlan:
        manifest = self.manifest
        wanted = None if names is None else tuple(dict.fromkeys(names))
        tensors: Dict[str, TensorPlan] = {}
        objects: Dict[str, ObjectPlan] = {}
        # What a full restore fetches: each *distinct* chunk once — blocks
        # deduplicated within the checkpoint share one stored object.
        total_stored = 0
        stored_addresses: set = set()
        found: set = set()
        for entry in manifest["tensors"]:
            blocks_meta = entry["blocks"]
            for block in blocks_meta:
                if block["chunk"] not in stored_addresses:
                    stored_addresses.add(block["chunk"])
                    total_stored += int(block["stored_nbytes"])
            name = entry["name"]
            if wanted is not None and name not in wanted:
                continue
            found.add(name)
            blocks = []
            for seq, block in enumerate(blocks_meta):
                address = block["chunk"]
                blocks.append(
                    BlockSpec(
                        tensor=name,
                        seq=seq,
                        object_name=address,
                        start=0,
                        stored_nbytes=int(block["stored_nbytes"]),
                        raw_nbytes=int(block["raw_nbytes"]),
                        chunk_address=address,
                    )
                )
                if address not in objects:
                    objects[address] = ObjectPlan(
                        name=address,
                        mode=MODE_WHOLE,
                        nbytes=int(block["stored_nbytes"]),
                    )
            tensors[name] = TensorPlan(
                name=name,
                dtype=entry["dtype"],
                shape=tuple(int(d) for d in entry["shape"]),
                transform="identity",
                transform_meta={},
                blocks=tuple(blocks),
            )
        if require_all and wanted is not None and found != set(wanted):
            missing = sorted(set(wanted) - found)
            raise SerializationError(
                f"tensors not in this checkpoint: {missing}"
            )
        return RestorePlan(
            kind=self.kind,
            meta=manifest["meta"],
            codec=manifest["codec"],
            tensors=tensors,
            objects=list(objects.values()),
            requested=wanted,
            total_stored_bytes=total_stored,
            checkpoint_id=manifest.get("ckpt_id"),
        )


@dataclass(frozen=True)
class ChunkCheckpointRecord:
    """Summary of one checkpoint committed to the chunk store."""

    job_id: str
    ckpt_id: str
    step: int
    object_name: str
    created: float
    n_blocks: int
    n_new_blocks: int
    logical_bytes: int
    physical_bytes: int
    extra: Dict = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Bytes this save added to the store."""
        return self.physical_bytes

    @property
    def detail(self) -> str:
        """What this format adds to a listing: its block count."""
        return self.extra.get("damaged") or f"{self.n_blocks} block(s)"


class ChunkStore:
    """Multi-tenant snapshot store with content-addressed block dedup.

    Thread-safe: writer-pool workers serving different jobs commit
    checkpoints concurrently.  The chunk index is guarded by a lock; chunk
    payload writes are idempotent (same name ⇒ same bytes) so two workers
    racing on a block both land the identical object.
    """

    def __init__(
        self,
        backend: StorageBackend,
        codec: str = "zlib-6",
        block_bytes: int = 1 << 16,
        restore_workers: int = 4,
        tier_placement: bool = True,
        placement_journal=None,
        retry=None,
        metrics: Optional[MetricsRegistry] = None,
        metadb=None,
    ):
        if block_bytes < 64:
            raise ConfigError(f"block_bytes must be >= 64, got {block_bytes}")
        self.backend = backend
        self.codec = get_codec(codec)
        self.block_bytes = int(block_bytes)
        self.restore_workers = int(restore_workers)
        self.tier_placement = bool(tier_placement)
        # Shared placement journal (repro.storage.placement): when set,
        # fleet-wide sweeps like rebalance_tiers() serialize on its
        # "rebalance" lease, so two daemons sharing this store never demote
        # the same chunk set concurrently.
        self.placement_journal = placement_journal
        # Optional repro.storage.metadb.MetaDB: manifest headers and chunk
        # refs are mirrored there (files written first, index second) so
        # discovery, latest_valid and gc's liveness set become point
        # queries.  Every process sharing the backend must share the index
        # file too; the index is reconciled against the file listing on
        # open and any miss falls back to the scan.
        self.metadb = metadb
        # retry: an optional repro.reliability.RetryPolicy — restores retry
        # transient fetch failures and refetch blocks that fail verification.
        self._executor = RestoreExecutor(
            max_workers=restore_workers, retry=retry
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = ChunkStoreStats(self.metrics)
        self._lock = threading.RLock()
        # raw-hash name -> stored (compressed) size, built by the first save
        # (_dedup_map).  -1 marks a chunk another save is currently
        # packing+writing; a real size is published only AFTER the chunk's
        # backend write landed, so deduping against a known entry never
        # references bytes that might not exist.
        self._known: Optional[Dict[str, int]] = None
        # addresses pinned by in-flight saves (written or about to be
        # referenced, manifest not yet committed); gc treats them as live.
        self._inflight: Dict[str, int] = {}
        self._next_seq: Dict[str, int] = {}
        # job id -> the manifest object currently pinned to its fast tier.
        self._pinned_manifests: Dict[str, str] = {}
        # Whether the index's answers stand in for a scan of the files: set
        # by a successful reconcile, cleared when a write to it fails.
        self._index_current = False
        self._adopt_existing()

    def _adopt_existing(self) -> None:
        """Pick up a reopened store's jobs: each one's next sequence number
        and its newest manifest (re-pinned to the fast tier).

        One listing of the manifest *names* is all the backend is asked for.
        With a metadata index the names only reconcile it (reading just the
        manifests it does not know) and the rest is one query; without one,
        or when it fails, the names themselves say it.  The dedup map is not
        needed to restore and is left to the first save (:meth:`_dedup_map`).
        """
        listed = self.backend.list("job-")
        newest = None
        if self.metadb is not None:
            try:
                unindexed = self._reconcile_index(set(listed))
                newest = self.metadb.newest_manifests()
            except StorageError:
                self._index_current = False
        if newest is None:
            newest, unindexed = {}, listed
        # A listed manifest the index would not take (torn, another build's
        # version, unreadable just now) still owns its sequence number: the
        # next save must step past the file, never replace it.
        for object_name in unindexed:
            job_id, seq = _parse_manifest_name(object_name)
            if job_id is not None:
                newest[job_id] = max(
                    newest.get(job_id, (0, "")), (seq, object_name)
                )
        for job_id, (seq, object_name) in newest.items():
            self._next_seq[job_id] = seq + 1
            self._pin_manifest(object_name)

    def _dedup_map(self) -> Dict[str, int]:
        """The dedup map, built by the first save (caller holds the lock):
        one query when the index is current, every manifest read otherwise
        — the files are always enough.

        Only chunks actually present in the backend are adopted: a manifest
        may survive the loss of a chunk (a wiped shard), and deduping against
        a phantom entry would silently propagate the damage into brand-new
        checkpoints instead of letting the re-save heal it.
        """
        if self._known is None:
            present = set(self.backend.list(CHUNK_PREFIX))
            sizes = self._from_index("chunk_sizes", self.codec.name)
            if sizes is None:
                sizes = self._chunk_sizes_by_scan()
            self._known = {
                chunk: int(nbytes)
                for chunk, nbytes in sizes.items()
                if chunk in present
            }
        return self._known

    def _chunk_sizes_by_scan(self) -> Dict[str, int]:
        """``chunk -> stored_nbytes`` over this codec's readable manifests."""
        sizes: Dict[str, int] = {}
        for object_name in self.backend.list("job-"):
            if _parse_manifest_name(object_name)[0] is None:
                continue
            try:
                manifest = self._read_manifest(object_name)
            except ReproError:
                continue  # damaged manifest: recovery skips it too
            if manifest.get("codec") != self.codec.name:
                continue  # other-codec chunks live in a disjoint address space
            for entry in manifest["tensors"]:
                for block in entry["blocks"]:
                    sizes[block["chunk"]] = int(block["stored_nbytes"])
        return sizes

    def _reconcile_index(self, listed: set) -> List[str]:
        """Make the index's manifest rows agree with the backend listing
        (``listed``: every ``job-`` name in it).

        Rows whose file is gone are deleted; listed manifests the index
        does not know are read (only the delta) and inserted.  Damaged
        manifests stay out of the index, matching the recovery path, and
        their names are returned.  Once this has succeeded the index speaks
        for the readable files, a "none" included, until a write to it
        fails.
        """
        known_rows = self.metadb.manifest_objects()
        for object_name in known_rows - listed:
            self.metadb.delete_manifest(object_name)
        unindexed = []
        for object_name in sorted(listed - known_rows):
            if _parse_manifest_name(object_name)[0] is None:
                continue
            try:
                manifest = self._read_manifest(object_name)
            except ReproError:
                unindexed.append(object_name)
                continue
            index_manifest(self.metadb, object_name, manifest)
        self._index_current = True
        return unindexed

    def _from_index(self, query: str, *args):
        """The index's answer to ``query``, or ``None`` when it cannot
        speak for the files (no index, not reconciled by this store, or the
        query failed) and the caller must scan."""
        if not self._index_current:
            return None
        try:
            return getattr(self.metadb, query)(*args)
        except StorageError:
            return None

    def _index_write(self, object_name: str, manifest: Optional[Dict]) -> None:
        """Mirror one committed manifest write — or, with ``manifest=None``,
        delete — into the index (files first, index second).  A failed
        write leaves the index behind the files, so its answers stop being
        trusted until the next reconcile."""
        if self.metadb is None:
            return
        try:
            if manifest is None:
                self.metadb.delete_manifest(object_name)
            else:
                index_manifest(self.metadb, object_name, manifest)
        except StorageError:
            self._index_current = False

    # -- tier-aware placement ---------------------------------------------------

    def _tier_of(self, name: str):
        """The tiered backend holding ``name``, if placement is enabled."""
        if not self.tier_placement:
            return None
        return self.backend.tier_for(name)

    def _pin_manifest(self, object_name: str) -> None:
        """Keep a job's *newest* manifest fast-tier resident.

        The newest manifest is what every restore, discovery and gc pass
        reads first; pinning it means chunk churn cannot evict it.  Older
        manifests of the job are unpinned as newer ones land (they stay
        LRU-resident until evicted), so pinned bytes stay bounded at one
        manifest per job per tier no matter how long the history grows.
        """
        tier = self._tier_of(object_name)
        if tier is None:
            return
        job_id, _ = _parse_manifest_name(object_name)
        try:
            tier.pin(object_name)
        except (StorageError, ReproError):
            return  # placement is an optimization, never a save/load failure
        if job_id is not None:
            with self._lock:
                previous = self._pinned_manifests.get(job_id)
                self._pinned_manifests[job_id] = object_name
            if previous is not None and previous != object_name:
                previous_tier = self._tier_of(previous)
                if previous_tier is not None:
                    try:
                        previous_tier.unpin(previous)
                    except (StorageError, ReproError):
                        # Same contract as the pin above: advisory journal
                        # writes must never fail an already-committed save.
                        pass

    def rebalance_tiers(self, hot_per_job: int = 1) -> Dict[str, int]:
        """Demote cold chunks, promote the hot set; returns move counts.

        The *hot set* is every chunk referenced by the newest ``hot_per_job``
        checkpoints of each job — what the next fleet-wide restore would
        touch.  Fast-tier-resident chunks outside it are demoted (making
        room), hot chunks are promoted while capacity allows.  Manifests
        stay pinned throughout.  A no-op without a tiered backend.

        With a :attr:`placement_journal`, the sweep runs only while holding
        the journal's ``rebalance`` lease: two daemons sharing the store
        take turns instead of demoting the same chunks concurrently.  A
        store that cannot get the lease returns zero moves and names the
        current holder under ``"lease_holder"``.
        """
        if hot_per_job < 1:
            raise ConfigError(f"hot_per_job must be >= 1, got {hot_per_job}")
        journal = self.placement_journal
        if journal is not None:
            from repro.storage.placement import LEASE_REBALANCE

            if not journal.acquire_lease(LEASE_REBALANCE):
                return {
                    "promoted": 0,
                    "demoted": 0,
                    "lease_holder": journal.lease_holder(LEASE_REBALANCE),
                }
            try:
                return self._rebalance_tiers_locked(hot_per_job)
            finally:
                journal.release_lease(LEASE_REBALANCE)
        return self._rebalance_tiers_locked(hot_per_job)

    def _rebalance_tiers_locked(self, hot_per_job: int) -> Dict[str, int]:
        hot: set = set()
        for job_id in self.jobs():
            for object_name in self.manifest_names(job_id)[-hot_per_job:]:
                hot.update(self._manifest_references(object_name))
        promoted = 0
        demoted = 0
        addresses = self.backend.list(CHUNK_PREFIX)
        # Demote every cold chunk first so promotions land in freed space
        # instead of evicting other hot chunks.
        for address in addresses:
            if address in hot:
                continue
            tier = self._tier_of(address)
            if tier is None:
                continue
            try:
                demoted += 1 if tier.demote(address) else 0
            except (StorageError, ReproError):
                continue  # placement is best-effort
        for address in addresses:
            if address not in hot:
                continue
            tier = self._tier_of(address)
            if tier is None:
                continue
            try:
                promoted += 1 if tier.promote(address) else 0
            except (StorageError, ReproError):
                continue
        return {"promoted": promoted, "demoted": demoted}

    # -- saving -----------------------------------------------------------------

    def save_snapshot(
        self,
        job_id: str,
        snapshot: TrainingSnapshot,
        extra: Optional[Dict] = None,
    ) -> ChunkCheckpointRecord:
        """Commit ``snapshot`` for ``job_id``; dedups against every tenant.

        Observability wrapper: the commit runs under a ``store.save`` span
        (joining whatever trace is ambient — e.g. a pool task's) and its
        latency lands in the per-job ``save.seconds`` histogram.
        """
        started = time.perf_counter()
        stages: Dict[str, float] = {}
        # How this save's new blocks get encoded, by the codec's verdict:
        # stored as they are (and their raw bytes), or compressed.
        split = {"stored_blocks": 0, "stored_bytes": 0, "deflated_blocks": 0}
        with span_scope("store.save", job=job_id) as span:
            record = self._save_snapshot(job_id, snapshot, extra, stages, split)
            if span is not None:
                # Stage attribution for `qckpt profile`: wall seconds per
                # pipeline stage plus byte counts, accumulated inline by
                # the commit (no per-block spans on the hot path).
                span.attrs["ckpt"] = record.ckpt_id
                span.attrs["stages"] = {
                    stage: round(seconds, 6)
                    for stage, seconds in stages.items()
                    if seconds > 0
                }
                span.attrs["encode"] = dict(split)
                span.attrs["bytes"] = record.logical_bytes
                span.attrs["new_bytes"] = record.physical_bytes
        for key, amount in split.items():
            if amount:
                self.metrics.counter(f"save.encode.{key}").inc(amount)
        self.metrics.histogram("save.seconds", job=job_id).observe(
            time.perf_counter() - started
        )
        return record

    def _save_snapshot(
        self,
        job_id: str,
        snapshot: TrainingSnapshot,
        extra: Optional[Dict] = None,
        stages: Optional[Dict[str, float]] = None,
        split: Optional[Dict[str, int]] = None,
    ) -> ChunkCheckpointRecord:
        """The actual commit (see :meth:`save_snapshot`).

        Block packing (hash + compress) and chunk writes run outside the
        index lock, so concurrent jobs overlap their CPU and I/O; only index
        bookkeeping and sequence allocation serialize.  A new chunk is
        published to the dedup index only *after* its backend write returned
        — a racing save deduping against it can safely commit a manifest
        naming it.  Every address this save will reference (new or deduped)
        is pinned in ``_inflight`` until the manifest lands, so a concurrent
        :meth:`gc` cannot sweep it out from underneath the commit.

        Hashing makes one zero-copy pass per tensor: each block is a
        ``memoryview`` slice of the serialized stream fed straight into the
        address hash (:func:`repro.core.hashing.block_address_stream`), so no
        per-block ``bytes`` copy exists before the dedup decision.  Encoding
        takes one of three paths per likely-new block, chosen by the codec's
        own probe of the block's bytes (:meth:`repro.core.codecs.Codec.probe`,
        run once): a block that will not shrink is *stored* inline, a block
        too small to be worth a thread hop is compressed inline, and only a
        block with real compression work is *pipelined* — a single packer
        thread, created when the first such block appears, speculatively
        compresses it while this thread writes the current one, so
        compression CPU overlaps backend I/O within one save.  Speculation is
        a pure perf hint — a block that turns out to dedup just discards the
        encode (``save.pipeline.wasted`` counts those, ``.speculated`` the
        attempts).  ``split`` tallies the verdicts of the blocks this save
        encoded (the ``save.encode.*`` counters and the span's ``encode``).
        """
        _validate_job_id(job_id)
        if stages is None:
            stages = {}
        stages.setdefault("serialize", 0.0)
        stages.setdefault("hash", 0.0)
        stages.setdefault("encode", 0.0)
        stages.setdefault("write", 0.0)
        stages.setdefault("manifest", 0.0)
        with self._lock:
            self._dedup_map()
        meta, tensors = snapshot.to_payload()
        directory = []
        n_blocks = 0
        n_new = 0
        logical = 0
        physical = 0
        reserved: List[str] = []
        pinned: List[str] = []
        # Each block that looks new is probed once (Codec.probe): only a
        # COSTLY verdict is compressed ahead on the packer thread; a STORED
        # or CHEAP block is encoded inline when its turn comes, since that
        # takes less time than the hop to another thread.
        packer: Optional[ThreadPoolExecutor] = None
        futures: Dict[int, Future] = {}
        verdicts: Dict[int, str] = {}

        def pin(address: str) -> None:
            self._inflight[address] = self._inflight.get(address, 0) + 1
            pinned.append(address)

        try:
            for name in sorted(tensors):
                stage_t0 = time.perf_counter()
                raw, dtype_token, shape = tensor_to_bytes(tensors[name])
                stage_t1 = time.perf_counter()
                stages["serialize"] += stage_t1 - stage_t0
                pairs = list(
                    block_address_stream(raw, self.block_bytes, self.codec.name)
                )
                stages["hash"] += time.perf_counter() - stage_t1
                futures.clear()
                verdicts.clear()
                blocks = []
                for idx, (piece, address) in enumerate(pairs):
                    for ahead in (idx, idx + 1):
                        if ahead >= len(pairs) or ahead in verdicts:
                            continue
                        with self._lock:
                            likely_new = (
                                self._known.get(pairs[ahead][1]) is None
                            )
                        if not likely_new:
                            continue
                        stage_t0 = time.perf_counter()
                        verdict = self.codec.probe(pairs[ahead][0])
                        stages["encode"] += time.perf_counter() - stage_t0
                        verdicts[ahead] = verdict
                        if verdict == COSTLY:
                            if packer is None:
                                packer = ThreadPoolExecutor(
                                    max_workers=1,
                                    thread_name_prefix="qckpt-pack",
                                )
                            futures[ahead] = packer.submit(
                                self.codec.encode, pairs[ahead][0], verdict
                            )
                            self.metrics.counter(
                                "save.pipeline.speculated"
                            ).inc()
                    n_blocks += 1
                    with self._lock:
                        pin(address)
                    encoded = futures.pop(idx, None)
                    stored_nbytes, was_new = self._ensure_block(
                        piece, address, reserved, encoded=encoded,
                        verdict=verdicts.get(idx), stages=stages,
                        split=split,
                    )
                    if encoded is not None and not was_new:
                        self.metrics.counter("save.pipeline.wasted").inc()
                    if was_new:
                        n_new += 1
                        physical += stored_nbytes
                    blocks.append(
                        {
                            "chunk": address,
                            "raw_nbytes": len(piece),
                            "stored_nbytes": int(stored_nbytes),
                        }
                    )
                    logical += int(stored_nbytes)
                directory.append(
                    {
                        "name": name,
                        "dtype": dtype_token,
                        "shape": list(shape),
                        "blocks": blocks,
                    }
                )
            with self._lock:
                seq = self._next_seq.get(job_id, 1)
                self._next_seq[job_id] = seq + 1
                ckpt_id = f"ckpt-{seq:06d}"
            object_name = f"job-{job_id}-{ckpt_id}.json"
            manifest = {
                "version": MANIFEST_VERSION,
                "job": job_id,
                "ckpt_id": ckpt_id,
                "step": snapshot.step,
                "created": time.time(),
                "codec": self.codec.name,
                "meta": meta,
                "tensors": directory,
                "extra": dict(extra or {}),
            }
            stage_t0 = time.perf_counter()
            manifest_bytes = json.dumps(manifest, sort_keys=True).encode(
                "utf-8"
            )
            crash_point(CP_MANIFEST_BEFORE_WRITE)
            self.backend.write(object_name, manifest_bytes)
            crash_point(CP_MANIFEST_AFTER_WRITE)
            # Manifest first, index second: a crash here leaves the index
            # behind, and reconcile-on-open reads the delta.
            self._index_write(object_name, manifest)
            self._pin_manifest(object_name)
            stages["manifest"] += time.perf_counter() - stage_t0
        except BaseException:
            # Roll back reservations that never published: concurrent
            # writers must not wait on (or dedup against) content whose
            # write died.  Published chunks stay — their bytes are in the
            # backend; if no manifest ever names them, gc sweeps them.
            with self._lock:
                for address in reserved:
                    if self._known.get(address) == -1:
                        del self._known[address]
                self._unpin(pinned)
            raise
        finally:
            # Unconsumed speculation (aborted save) must not keep views of
            # the tensor stream alive or leave the packer thread behind.
            for future in futures.values():
                future.cancel()
            if packer is not None:
                packer.shutdown(wait=True)
        with self._lock:
            self._unpin(pinned)
            self.stats.chunks_written += n_new
            self.stats.logical_bytes += logical
            self.stats.physical_bytes += physical
            self.stats.manifest_bytes += len(manifest_bytes)
            self.stats.checkpoints += 1
        return ChunkCheckpointRecord(
            job_id=job_id,
            ckpt_id=ckpt_id,
            step=snapshot.step,
            object_name=object_name,
            created=float(manifest["created"]),
            n_blocks=n_blocks,
            n_new_blocks=n_new,
            logical_bytes=logical,
            physical_bytes=physical,
            extra=dict(extra or {}),
        )

    def _ensure_block(
        self,
        piece,
        address: str,
        reserved: List[str],
        encoded: Optional[Future] = None,
        verdict: Optional[str] = None,
        stages: Optional[Dict[str, float]] = None,
        split: Optional[Dict[str, int]] = None,
    ) -> Tuple[int, bool]:
        """Make sure ``address`` holds ``piece``; returns ``(size, was_new)``.

        Three outcomes per attempt: the chunk is published (dedup hit), this
        thread claims the reservation and writes it, or another thread holds
        the reservation — then wait for its write to publish.  If that
        writer fails, its rollback removes the reservation and the wait
        returns ``None``; we loop and claim the address ourselves (we hold
        the bytes in hand, so the failed peer must not fail us too).

        ``piece`` is any bytes-like view of the block; ``encoded`` optionally
        carries a speculative compress-ahead future whose result replaces the
        inline ``codec.encode`` when this thread wins the claim, and
        ``verdict`` the codec's probe of the block when the caller already
        ran it (``split`` tallies the verdicts of the blocks encoded here).
        """
        while True:
            with self._lock:
                stored_nbytes = self._known.get(address)
                if stored_nbytes is None:
                    # Reserve the address so a racing writer of the same
                    # content skips the redundant encode+write.
                    self._known[address] = -1
                    reserved.append(address)
                    claimed = True
                elif stored_nbytes == -1:
                    claimed = False
                else:
                    self.stats.chunks_deduped += 1
                    return int(stored_nbytes), False
            if claimed:
                stage_t0 = time.perf_counter()
                if verdict is None:
                    verdict = self.codec.probe(piece)
                if encoded is not None:
                    stored = encoded.result()
                else:
                    stored = self.codec.encode(piece, verdict)
                if not isinstance(stored, bytes):
                    # The identity codec hands the input view back; the
                    # backend must never hold a view aliasing a live tensor.
                    stored = bytes(stored)
                stage_t1 = time.perf_counter()
                crash_point(CP_CHUNK_BEFORE_WRITE)
                self.backend.write(address, stored)
                crash_point(CP_CHUNK_AFTER_WRITE)
                if stages is not None:
                    stage_t2 = time.perf_counter()
                    stages["encode"] += stage_t1 - stage_t0
                    stages["write"] += stage_t2 - stage_t1
                if split is not None:
                    if verdict == STORED:
                        split["stored_blocks"] += 1
                        split["stored_bytes"] += len(piece)
                    else:
                        split["deflated_blocks"] += 1
                with self._lock:
                    # Write landed: now (and only now) publish it, so a
                    # racing save deduping against this entry can safely
                    # commit a manifest naming the chunk.
                    self._known[address] = len(stored)
                return len(stored), True
            stage_t0 = time.perf_counter()
            waited = self._wait_for_size(address)
            if stages is not None:
                # Waiting on a peer's in-flight write is write-bound time.
                stages["write"] += time.perf_counter() - stage_t0
            if waited is not None:
                with self._lock:
                    self.stats.chunks_deduped += 1
                return waited, False

    def _unpin(self, pinned: List[str]) -> None:
        """Release this save's in-flight pins (caller holds the lock)."""
        for address in pinned:
            count = self._inflight.get(address, 0) - 1
            if count <= 0:
                self._inflight.pop(address, None)
            else:
                self._inflight[address] = count
        pinned.clear()

    def _wait_for_size(
        self, address: str, timeout: float = 60.0
    ) -> Optional[int]:
        """Wait for a reserved chunk to publish its stored size.

        Returns the size once the owning writer's backend write lands, or
        ``None`` if the reservation disappeared (the writer failed and
        rolled back) — the caller should claim the address itself.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                size = self._known.get(address)
                if size is None:
                    return None
                if size >= 0:
                    return size
            time.sleep(0.001)
        raise IntegrityError(f"chunk {address} never finished packing")

    # -- discovery ----------------------------------------------------------------

    def jobs(self) -> List[str]:
        """Job ids with at least one committed checkpoint."""
        jobs = self._from_index("jobs")
        if jobs is not None:
            return jobs
        found = set()
        for object_name in self.backend.list("job-"):
            job_id, _ = _parse_manifest_name(object_name)
            if job_id is not None:
                found.add(job_id)
        return sorted(found)

    def manifest_names(self, job_id: str) -> List[str]:
        """Manifest object names of ``job_id`` in commit (sequence) order."""
        _validate_job_id(job_id)
        names = self._from_index("manifest_names", job_id)
        if names is not None:
            return names
        return self.backend.list(f"job-{job_id}-ckpt-")

    def has_checkpoints(self, job_id: str) -> bool:
        """Whether ``job_id`` has at least one committed checkpoint — the
        daemon's resumability probe, one point query under an index."""
        _validate_job_id(job_id)
        found = self._from_index("has_manifests", job_id)
        if found is not None:
            return found
        return bool(self.backend.list(f"job-{job_id}-ckpt-"))

    def checkpoints(self, job_id: str) -> List[ChunkCheckpointRecord]:
        """``job_id``'s committed checkpoints in commit order, read back
        from their manifests.  What a save added cannot be told apart
        afterwards (its blocks may have been, or since become, shared), so
        ``nbytes`` here is what restoring the checkpoint fetches: each
        distinct chunk once.  An unreadable manifest is still listed — at
        step -1, the reason as its ``detail`` — so nothing on disk goes
        unreported."""
        records = []
        for object_name in self.manifest_names(job_id):
            refs, step, created, extra = [], -1, 0.0, {}
            try:
                manifest = self._read_manifest(object_name)
                refs = [b for e in manifest["tensors"] for b in e["blocks"]]
                step, created = int(manifest["step"]), float(manifest["created"])
                extra = dict(manifest.get("extra") or {})
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                extra = {"damaged": f"unreadable manifest: {exc}"}
            sizes = {b["chunk"]: int(b["stored_nbytes"]) for b in refs}
            records.append(
                ChunkCheckpointRecord(
                    job_id=job_id,
                    ckpt_id=f"ckpt-{_parse_manifest_name(object_name)[1]:06d}",
                    step=step,
                    object_name=object_name,
                    created=created,
                    n_blocks=len(refs),
                    n_new_blocks=0,
                    logical_bytes=sum(int(b["stored_nbytes"]) for b in refs),
                    physical_bytes=sum(sizes.values()),
                    extra=extra,
                )
            )
        return records

    def latest(self, job_id: str) -> Optional[str]:
        """Newest checkpoint id of ``job_id`` (highest sequence).

        Sequence order is commit order: a save allocates its sequence only
        after every earlier save of the job committed (per-job channels are
        FIFO, and the fleet harness waits out a dead incarnation's in-flight
        save before reincarnating), so the highest sequence is also the
        latest training state.
        """
        names = self.manifest_names(job_id)
        if not names:
            return None
        _, seq = _parse_manifest_name(names[-1])
        return f"ckpt-{seq:06d}"

    # -- loading -----------------------------------------------------------------

    def _read_manifest(self, object_name: str) -> Dict:
        try:
            manifest = json.loads(self.backend.read(object_name).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IntegrityError(
                f"manifest {object_name!r} is not valid JSON: {exc}"
            ) from exc
        if manifest.get("version") != MANIFEST_VERSION:
            raise IntegrityError(
                f"unsupported chunk manifest version {manifest.get('version')!r}"
            )
        return manifest

    def restore_source(
        self, job_id: str, ckpt_id: Optional[str] = None
    ) -> ChunkManifestSource:
        """Pipeline source over one committed checkpoint manifest
        (``ckpt_id=None`` selects the newest)."""
        _validate_job_id(job_id)
        if ckpt_id is None:
            ckpt_id = self.latest(job_id)
            if ckpt_id is None:
                raise CheckpointNotFoundError(
                    f"job {job_id!r} has no checkpoints"
                )
        object_name = f"job-{job_id}-{ckpt_id}.json"
        if not self.backend.exists(object_name):
            raise CheckpointNotFoundError(
                f"checkpoint {ckpt_id!r} of job {job_id!r} not found"
            )
        manifest = self._read_manifest(object_name)
        return ChunkManifestSource(self.backend, object_name, manifest)

    def plan_restore(
        self,
        job_id: str,
        ckpt_id: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
    ) -> RestorePlan:
        """Fetch plan for one restore: which chunks, how many bytes."""
        return self.restore_source(job_id, ckpt_id).plan(
            names, require_all=False
        )

    def prefetch_restore(
        self,
        job_id: str,
        ckpt_id: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
    ):
        """Start read-ahead for a restore that has not happened yet.

        Plans the restore and launches its chunk fetches on the executor's
        threads (bounded by the prefetch window, cancellable).  Every fetch
        goes through the normal backend read path, so with a
        :class:`~repro.storage.tiered.TieredBackend` underneath the touched
        chunks are *promoted* — by the time the actual restore runs, it is
        tier-warm.  The fleet daemon calls this the moment a job is
        preempted: the restart delay is exactly the window in which the
        restore set can be staged.  Returns the
        :class:`~repro.core.restore.PrefetchedPlan` handle (cancel it if
        the restore is abandoned); the later restore does not need the
        handle to benefit — promotion already happened.
        """
        source = self.restore_source(job_id, ckpt_id)
        plan = source.plan(names, require_all=False)
        return self._executor.prefetch(source, plan)

    def load_snapshot(
        self, job_id: str, ckpt_id: Optional[str] = None
    ) -> TrainingSnapshot:
        """Reassemble a snapshot (``ckpt_id=None`` selects the newest)."""
        meta, tensors = self.load_tensors(job_id, ckpt_id)
        return TrainingSnapshot.from_payload(meta, tensors)

    def load_tensors(
        self,
        job_id: str,
        ckpt_id: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
    ) -> Tuple[Dict, Dict[str, np.ndarray]]:
        """Resolve one checkpoint to ``(snapshot_meta, tensors)``.

        ``names`` selects a tensor subset (the chunk-level partial restore:
        only the blocks of the requested tensors are fetched).  Chunks are
        fetched through the restore pipeline — in parallel, each verified
        against its content address, decoded with *the manifest's* codec so
        a store reopened under a different codec still reads every old
        checkpoint.

        Runs under a ``store.restore`` span; latency lands in the per-job
        ``restore.seconds`` histogram.
        """
        started = time.perf_counter()
        stages: Dict[str, float] = {}
        with span_scope("store.restore", job=job_id) as span:
            stage_t0 = time.perf_counter()
            source = self.restore_source(job_id, ckpt_id)
            plan = source.plan(names, require_all=names is not None)
            stages["plan"] = time.perf_counter() - stage_t0
            result = self._executor.run(source, plan, stages=stages)
            if span is not None:
                span.attrs["partial"] = names is not None
                span.attrs["stages"] = {
                    stage: round(seconds, 6)
                    for stage, seconds in stages.items()
                    if seconds > 0
                }
                span.attrs["bytes"] = plan.fetch_bytes
                span.attrs["blocks"] = plan.n_blocks
        self.metrics.histogram("restore.seconds", job=job_id).observe(
            time.perf_counter() - started
        )
        return result

    def _first_restorable(self, job_id: str, load):
        """Walk ``job_id``'s checkpoints newest-first; ``(id, load(id),
        skipped)`` for the first one ``load`` restores."""
        skipped: List[Tuple[str, str]] = []
        for object_name in reversed(self.manifest_names(job_id)):
            _, seq = _parse_manifest_name(object_name)
            ckpt_id = f"ckpt-{seq:06d}"
            try:
                return ckpt_id, load(ckpt_id), skipped
            except ReproError as exc:
                skipped.append((ckpt_id, str(exc)))
        return None, None, skipped

    def latest_valid(
        self, job_id: str
    ) -> Tuple[Optional[str], Optional[TrainingSnapshot], List[Tuple[str, str]]]:
        """Newest checkpoint of ``job_id`` that loads; skips damaged ones.

        Returns ``(ckpt_id, snapshot, skipped)``.
        """
        return self._first_restorable(
            job_id, lambda ckpt_id: self.load_snapshot(job_id, ckpt_id)
        )

    def latest_valid_partial(
        self, job_id: str, names: Sequence[str]
    ) -> Tuple[Optional[str], Optional[Dict], List[Tuple[str, str]]]:
        """Newest checkpoint whose named tensors restore; skips damaged ones.

        The warm-start analog of :meth:`latest_valid`: each candidate costs
        only the requested tensors' chunk fetches (a damaged statevector
        block cannot fail a parameters-only probe, and a missing parameter
        chunk falls back to the previous checkpoint).  Returns
        ``(ckpt_id, {name: array} or None, skipped)``.
        """
        wanted = tuple(dict.fromkeys(names))
        if not wanted:
            raise ConfigError(
                "latest_valid_partial needs at least one tensor name"
            )
        return self._first_restorable(
            job_id,
            lambda ckpt_id: self.load_tensors(job_id, ckpt_id, names=wanted)[1],
        )

    # -- verification & GC ------------------------------------------------------------

    def verify(self, job_id: str, ckpt_id: str) -> Tuple[bool, str]:
        """Validate one checkpoint end to end."""
        try:
            self.load_snapshot(job_id, ckpt_id)
            return True, "ok"
        except ReproError as exc:
            return False, str(exc)

    def delete_checkpoint(self, job_id: str, ckpt_id: str) -> None:
        """Drop one manifest (manifest first; chunks go at the next gc)."""
        _validate_job_id(job_id)
        object_name = f"job-{job_id}-{ckpt_id}.json"
        self.backend.delete(object_name)
        self._index_write(object_name, None)

    def _manifest_references(self, object_name: str) -> set:
        """Chunk addresses one manifest pins (empty if unreadable)."""
        try:
            manifest = self._read_manifest(object_name)
        except IntegrityError:
            # Unreadable manifest = unrestorable checkpoint; it pins
            # nothing.  Recovery reports it via latest_valid().
            return set()
        return {
            block["chunk"]
            for entry in manifest["tensors"]
            for block in entry["blocks"]
        }

    def gc(self, keep_last_per_job: Optional[int] = None) -> Dict[str, int]:
        """Keep each job's newest ``keep_last_per_job`` checkpoints (all,
        when ``None``) and sweep unreferenced chunks.

        Returns ``{"manifests": n, "chunks": n, "bytes": n}`` deleted.  The
        sweep is global: a chunk survives as long as *any* job still
        references it.

        Concurrency: the bulk of the work — reading every manifest — runs
        without the index lock, so concurrent saves are not stalled for the
        whole sweep.  The lock is held only to reconcile: manifests that
        committed during the scan are read then, in-flight pins are added,
        and the deletes happen under the lock so they cannot race a save
        re-writing the same address (a writer pins before it writes).
        """
        if keep_last_per_job is not None and keep_last_per_job < 1:
            raise ConfigError(
                f"keep_last_per_job must be >= 1, got {keep_last_per_job}"
            )
        deleted_manifests = 0
        if keep_last_per_job is not None:
            for job_id in self.jobs():
                names = self.manifest_names(job_id)
                for object_name in names[:-keep_last_per_job]:
                    self.backend.delete(object_name)
                    self._index_write(object_name, None)
                    deleted_manifests += 1
        if self.metadb is not None:
            try:
                return self._gc_sweep_indexed(deleted_manifests)
            except StorageError:
                pass  # index failed: the scan below is always correct
        # Phase 1 (unlocked): scan every surviving manifest.
        scanned = set()
        referenced = set()
        for object_name in self.backend.list("job-"):
            job_id, _ = _parse_manifest_name(object_name)
            if job_id is None:
                continue
            scanned.add(object_name)
            referenced.update(self._manifest_references(object_name))
        # Phase 2 (locked): reconcile and sweep.
        with self._lock:
            for object_name in self.backend.list("job-"):
                job_id, _ = _parse_manifest_name(object_name)
                if job_id is None or object_name in scanned:
                    continue
                # Committed while we were scanning: read the small delta.
                referenced.update(self._manifest_references(object_name))
            deleted_chunks, deleted_bytes = self._sweep_chunks(referenced)
        return {
            "manifests": deleted_manifests,
            "chunks": deleted_chunks,
            "bytes": deleted_bytes,
        }

    def _gc_sweep_indexed(self, deleted_manifests: int) -> Dict[str, int]:
        """Liveness via the metadata index: reconcile rows against the
        listing (reading only the delta), then one query for the referenced
        set — no manifest walk."""
        with self._lock:
            self._reconcile_index(set(self.backend.list("job-")))
            referenced = self.metadb.live_chunks()
            deleted_chunks, deleted_bytes = self._sweep_chunks(referenced)
        return {
            "manifests": deleted_manifests,
            "chunks": deleted_chunks,
            "bytes": deleted_bytes,
        }

    def _sweep_chunks(self, referenced: set) -> Tuple[int, int]:
        """Delete unreferenced chunks (caller holds the lock)."""
        # Chunks a concurrent save has written (or will reference) but
        # not yet named in a manifest are live, not orphans.
        referenced = set(referenced)
        referenced.update(self._inflight)
        deleted_chunks = 0
        deleted_bytes = 0
        for address in self.backend.list(CHUNK_PREFIX):
            if address not in referenced:
                deleted_bytes += self.backend.size(address)
                self.backend.delete(address)
                if self._known is not None:
                    self._known.pop(address, None)
                deleted_chunks += 1
        return deleted_chunks, deleted_bytes

    def total_physical_bytes(self) -> int:
        """Bytes held by chunk objects currently in the backend."""
        return sum(
            self.backend.size(name) for name in self.backend.list(CHUNK_PREFIX)
        )


def _validate_job_id(job_id: str) -> str:
    # "-ckpt-" anywhere (or "-ckpt" at the end) would make this job's
    # manifest names parse as another job's, colliding the namespaces.
    if (
        not isinstance(job_id, str)
        or not job_id
        or "-ckpt-" in job_id
        or job_id.endswith("-ckpt")
    ):
        raise ConfigError(f"invalid job id {job_id!r}")
    # Reuse backend name validation by probing the name we will construct.
    validate_name(f"job-{job_id}-ckpt-000001.json")
    return job_id


def _parse_manifest_name(object_name: str) -> Tuple[Optional[str], int]:
    """``job-<id>-ckpt-<seq>.json`` -> ``(job_id, seq)`` or ``(None, 0)``."""
    if not object_name.startswith("job-") or not object_name.endswith(".json"):
        return None, 0
    stem = object_name[len("job-") : -len(".json")]
    marker = stem.rfind("-ckpt-")
    if marker < 1:
        return None, 0
    job_id = stem[:marker]
    seq_text = stem[marker + len("-ckpt-") :]
    if not seq_text.isdigit():
        return None, 0
    return job_id, int(seq_text)
