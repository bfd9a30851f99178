"""Unified restore pipeline: plan → fetch → verify → assemble.

Every restore in the system — full exact resume, tensor-selective partial
restore, warm start, fleet reincarnation, CLI ``qckpt restore`` — runs
through the same three stages:

1. a :class:`RestoreSource` (one per checkpoint format) turns one stored
   checkpoint into a :class:`RestorePlan`: the objects the requested
   tensor subset lives in, plus the integrity evidence each block must
   satisfy,
2. a :class:`RestoreExecutor` reads each of those objects whole — in
   parallel when the plan has several — and verifies every transferred
   byte (CRC32, content address, or whole-object SHA-256),
3. each verified raw block is copied into its place in the tensor's
   preallocated array (:func:`~repro.core.serialize.empty_tensor`), which is
   what the caller gets once the transform is decoded: no joined byte
   string, no final copy.

Two sources exist: :class:`QckptSource` for the monolithic QCKPT container
(`core.serialize` / `core.store`) and
:class:`~repro.service.chunkstore.ChunkManifestSource` for the
content-addressed chunk format.  Callers —
:class:`~repro.core.store.CheckpointStore`,
:class:`~repro.service.chunkstore.ChunkStore`, the trainer hook, the fleet
harness, and the CLI — never touch format bytes directly.

Failure contract: a restore either returns tensors bitwise-identical to what
was saved or raises :class:`~repro.errors.IntegrityError` /
:class:`~repro.errors.StorageError`.  It never returns corrupt tensors —
every block is verified against evidence recorded at save time before any
byte of it reaches an array.
"""

from __future__ import annotations

import hashlib
import threading
import time
from abc import ABC, abstractmethod
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codecs import get_codec, get_transform
from repro.core.integrity import sha256_hex
from repro.core.serialize import decode_stored_chunk, empty_tensor, read_header
from repro.errors import (
    ConfigError,
    IntegrityError,
    SerializationError,
    TransientStorageError,
)
from repro.reliability import RetryPolicy

#: The tensor subset a parameters-only warm start needs: enough to seed a new
#: training run (architecture search, cross-validation) without transferring
#: optimizer slots, RNG streams, or the warm-start statevector cache.
WARM_START_TENSORS: Tuple[str, ...] = ("params",)

CONTENT_ADDRESS_PREFIX = "ch-"
_CONTENT_ADDRESS_CHARS = 32  # 128 bits of SHA-256: collision-safe at fleet scale


def address_prefix(codec_name: str):
    """SHA-256 state after the codec name: where every content address
    under one codec starts (a caller addressing many blocks makes it once
    and hands it to :func:`content_address`)."""
    return hashlib.sha256(codec_name.encode("utf-8") + b"\x00")


def content_address(raw, codec_name: str, prefix=None) -> str:
    """Content address of one raw block (any bytes-like) under one codec.

    The codec is part of the identity: the same raw content stored under two
    codecs is two different objects.  This is the canonical address format of
    the service chunk store; it lives here so the restore executor can verify
    fetched chunks without importing the service layer.  The block is
    streamed into the hash after the name, never concatenated with it.
    """
    digest = address_prefix(codec_name) if prefix is None else prefix.copy()
    digest.update(raw)
    return CONTENT_ADDRESS_PREFIX + digest.hexdigest()[:_CONTENT_ADDRESS_CHARS]


# ---------------------------------------------------------------------------
# Plan data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSpec:
    """One verifiable unit of stored bytes belonging to one tensor.

    ``start`` is a byte offset inside ``object_name`` (0 for chunk objects,
    which are blocks themselves).  Exactly one kind of evidence is set:
    ``crc32`` checks the *stored* (encoded) bytes, ``chunk_address`` checks
    the decoded raw bytes against their content address.
    """

    tensor: str
    seq: int
    object_name: str
    start: int
    stored_nbytes: int
    raw_nbytes: int
    crc32: Optional[int] = None
    chunk_address: Optional[str] = None


@dataclass(frozen=True)
class TensorPlan:
    """Decode recipe for one requested tensor."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    transform: str
    transform_meta: Dict
    blocks: Tuple[BlockSpec, ...]

    @property
    def stored_nbytes(self) -> int:
        """Encoded bytes this tensor's blocks occupy in the store."""
        return sum(block.stored_nbytes for block in self.blocks)


@dataclass(frozen=True)
class ObjectPlan:
    """One backend object a plan reads, whole."""

    name: str
    nbytes: int


@dataclass
class RestorePlan:
    """Fetch set for one checkpoint restore: ``objects`` are what it
    reads, each whole and once.

    ``requested`` is ``None`` for a full restore; otherwise the tensor names
    asked for.  ``fetch_bytes`` is what the restore transfers;
    ``total_stored_bytes`` is what a *full* restore would transfer from
    this link — their ratio is what partial restore saves.

    Chain identity: ``checkpoint_id`` names the checkpoint this plan
    restores and ``base_id`` the checkpoint its delta applies to (``None``
    for self-contained records).  A delta's plan carries the plan of that
    older link as ``base``, so one plan is the whole restore: the byte and
    block accounting below covers every link.
    """

    kind: str  # "qckpt" | "chunks"
    meta: Dict
    codec: str
    tensors: Dict[str, TensorPlan]
    objects: List[ObjectPlan]
    requested: Optional[Tuple[str, ...]]
    total_stored_bytes: int = 0
    checkpoint_id: Optional[str] = None
    base_id: Optional[str] = None
    base: Optional["RestorePlan"] = None

    @property
    def step(self) -> Optional[int]:
        """Training step of the checkpoint this plan restores (a QCKPT
        header nests the snapshot's meta under ``"snapshot"``)."""
        return self.meta.get("snapshot", self.meta).get("step")

    def links(self) -> List["RestorePlan"]:
        """This plan's chain, oldest link (the full base) first."""
        return ([] if self.base is None else self.base.links()) + [self]

    @property
    def fetch_bytes(self) -> int:
        """Bytes the restore transfers, older links included."""
        total = 0 if self.base is None else self.base.fetch_bytes
        return total + sum(obj.nbytes for obj in self.objects)

    @property
    def n_blocks(self) -> int:
        """Verifiable blocks across the plan's tensors, older links
        included."""
        own = sum(len(plan.blocks) for plan in self.tensors.values())
        return own + (0 if self.base is None else self.base.n_blocks)


# ---------------------------------------------------------------------------
# Source contract
# ---------------------------------------------------------------------------


class RestoreSource(ABC):
    """One stored checkpoint, queryable for plans and raw bytes.

    Implementations exist per format: :class:`QckptSource` for the monolithic
    container, ``ChunkManifestSource`` (service layer) for the chunk store.
    A source is cheap to construct and short-lived — plan, execute, discard.
    """

    kind: str = "abstract"

    @abstractmethod
    def plan(
        self,
        names: Optional[Sequence[str]] = None,
        require_all: bool = True,
    ) -> RestorePlan:
        """Compute the minimal fetch set for ``names`` (``None`` = all).

        With ``require_all`` (default) a requested name absent from the
        checkpoint raises :class:`~repro.errors.SerializationError`; without
        it the name is silently skipped (delta chains store a tensor only in
        the records where it changed).
        """

    @abstractmethod
    def read_object(self, name: str, into=None) -> bytes:
        """Whole content of one backend object in the plan — read into the
        writable buffer ``into`` (a view of the filled part is returned) when
        one is given, which only happens if :attr:`supports_read_into`."""

    @property
    def supports_read_into(self) -> bool:
        """Whether :meth:`read_object` fills a buffer the caller hands it."""
        return False


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def _block_bytes(data, block: BlockSpec):
    """The stored bytes of ``block`` inside its object's ``data``."""
    return data[block.start : block.start + block.stored_nbytes]


class RestoreExecutor:
    """Fetches a plan's blocks, verifies them, and assembles tensors.

    ``max_workers`` bounds the parallel fetch fan-out.  Distinct objects are
    read concurrently — backend reads release the GIL for files and sleep
    for simulated remotes, so restore latency approaches the slowest single
    fetch rather than the sum.  Verification, decode and the copy into the
    destination run on the calling thread, block by block in plan order, so
    the result does not depend on completion order; where the source can
    read into a buffer (:attr:`RestoreSource.supports_read_into`) the fetch
    threads fill one the caller allocated and allocate nothing themselves.
    """

    def __init__(
        self,
        max_workers: int = 4,
        retry: Optional[RetryPolicy] = None,
    ):
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        # Per-fetch-unit retry: transient backend failures are retried
        # with backoff, and a block that fails *verification* is refetched
        # fresh and re-verified (a backend that lied once — a flaky read —
        # does not doom the restore; replica-capable backends fall through
        # to a surviving copy on the refetch).
        self.retry = retry
        # One persistent pool per executor, created on first parallel fetch:
        # damage-tolerant walks run one restore per candidate checkpoint,
        # and spawning/joining threads per fetch would dominate small plans.
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="qckpt-restore",
                )
            return self._pool

    def run(
        self,
        source: RestoreSource,
        plan: RestorePlan,
        verify: bool = True,
        stages: Optional[Dict[str, float]] = None,
    ) -> Tuple[Dict, Dict[str, np.ndarray]]:
        """Execute ``plan`` against ``source``; returns ``(meta, tensors)``.

        ``stages`` (if given) accumulates wall seconds per pipeline stage —
        ``fetch`` / ``verify`` / ``assemble`` — for the profiler's
        critical-path attribution.
        """
        codec_obj = get_codec(plan.codec)

        stage_t0 = time.perf_counter()
        buffers = self._fetch_objects(source, plan.objects)
        fetch_s = time.perf_counter() - stage_t0

        # Each object is dropped with the last block that reads it, so the
        # fetched bytes shrink as the destinations fill.
        uses = Counter(
            block.object_name
            for tensor_plan in plan.tensors.values()
            for block in tensor_plan.blocks
        )
        verify_s = 0.0
        assemble_s = 0.0
        tensors: Dict[str, np.ndarray] = {}
        for name, tensor_plan in plan.tensors.items():
            stage_t0 = time.perf_counter()
            array, dest = empty_tensor(
                tensor_plan.dtype,
                tensor_plan.shape,
                sum(block.raw_nbytes for block in tensor_plan.blocks),
            )
            assemble_s += time.perf_counter() - stage_t0
            filled = 0
            for block in tensor_plan.blocks:
                stored = _block_bytes(buffers[block.object_name], block)
                uses[block.object_name] -= 1
                if not uses[block.object_name]:
                    del buffers[block.object_name]
                stage_t0 = time.perf_counter()
                raw = self._block_raw(source, block, stored, codec_obj, verify)
                stage_t1 = time.perf_counter()
                # The one copy after decode: the verified block lands in
                # its place in the tensor the caller gets.
                dest[filled : filled + block.raw_nbytes] = raw
                filled += block.raw_nbytes
                del stored, raw  # one block in hand at a time
                verify_s += stage_t1 - stage_t0
                assemble_s += time.perf_counter() - stage_t1
            stage_t0 = time.perf_counter()
            transform = get_transform(tensor_plan.transform)
            tensors[name] = transform.decode(array, tensor_plan.transform_meta)
            assemble_s += time.perf_counter() - stage_t0
        if stages is not None:
            stages["fetch"] = stages.get("fetch", 0.0) + fetch_s
            stages["verify"] = stages.get("verify", 0.0) + verify_s
            stages["assemble"] = stages.get("assemble", 0.0) + assemble_s
        return plan.meta, tensors

    def _fetch_objects(
        self, source: RestoreSource, objects: List[ObjectPlan]
    ) -> Dict[str, bytes]:
        # Where the source can fill a buffer, each object gets one
        # allocated here, on the calling thread: the fetch threads
        # allocate nothing (what they allocate, their malloc arenas keep).
        slots: Dict[str, memoryview] = {}
        if source.supports_read_into:
            for obj in objects:
                slots[obj.name] = memoryview(np.empty(obj.nbytes, np.uint8))

        def fetch(obj: ObjectPlan) -> Tuple[str, bytes]:
            into = slots.get(obj.name)
            return obj.name, self._read(
                lambda: source.read_object(obj.name, into)
            )

        return dict(self._map(fetch, objects))

    def _read(self, fn: Callable[[], bytes]) -> bytes:
        """One source read, retried on transient failures if a policy is set."""
        if self.retry is None:
            return fn()
        return self.retry.call(fn)

    def _block_raw(
        self,
        source: RestoreSource,
        block: BlockSpec,
        stored: bytes,
        codec_obj,
        verify: bool,
    ) -> bytes:
        """Verify one block; on damage, refetch fresh and re-verify.

        The retry re-reads the block's object from the source: the point
        is to observe the backend *again*, where a transient lie has
        cleared or a replicated backend falls through to a surviving copy.
        """
        try:
            return self._verified_raw(block, stored, codec_obj, verify)
        except IntegrityError:
            if self.retry is None:
                raise

            def refetch_and_verify() -> bytes:
                fresh = source.read_object(block.object_name)
                return self._verified_raw(
                    block, _block_bytes(fresh, block), codec_obj, verify
                )

            return self.retry.call(
                refetch_and_verify,
                retry_on=(TransientStorageError, IntegrityError),
            )

    def _map(self, fn: Callable, items: List) -> List:
        if len(items) <= 1 or self.max_workers == 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        """Release the fetch threads (idempotent; pool rebuilds on use)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None

    def __del__(self):  # release threads when the owning store is dropped
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter teardown
            pass

    @staticmethod
    def _verified_raw(
        block: BlockSpec, stored: bytes, codec_obj, verify: bool
    ) -> bytes:
        """Stored bytes → verified raw bytes for one block."""
        if len(stored) != block.stored_nbytes:
            raise IntegrityError(
                f"block {block.seq} of tensor {block.tensor!r} is truncated: "
                f"got {len(stored)} of {block.stored_nbytes} bytes"
            )
        try:
            raw = decode_stored_chunk(
                stored,
                block.crc32,
                block.raw_nbytes,
                codec_obj,
                label=f"tensor {block.tensor!r} block {block.seq}",
                verify=verify,
            )
        except SerializationError as exc:
            # A block that will not decode is damaged data, not a caller
            # bug: content-addressed blocks carry no CRC, so a corrupted
            # codec frame surfaces here first.
            raise IntegrityError(
                f"tensor {block.tensor!r} block {block.seq} failed to "
                f"decode: {exc}"
            ) from exc
        if verify and block.chunk_address is not None:
            actual = content_address(raw, codec_obj.name)
            if actual != block.chunk_address:
                raise IntegrityError(
                    f"chunk {block.chunk_address} content does not match "
                    "its address"
                )
        return raw


# ---------------------------------------------------------------------------
# Monolithic QCKPT source
# ---------------------------------------------------------------------------


class QckptSource(RestoreSource):
    """Restore source over one QCKPT container object.

    The object is read once, whole, and checked against the expected
    SHA-256 (the manifest's) before its header is parsed: every restore,
    full or a tensor subset, establishes end-to-end integrity before any
    byte is interpreted.  Block specs are the header's tensor directory
    entries (one stored chunk per tensor, CRC32-verified), sliced out of
    that one buffer.
    """

    kind = "qckpt"

    def __init__(
        self,
        backend,
        object_name: str,
        expected_sha256: Optional[str] = None,
    ):
        self.backend = backend
        self.object_name = object_name
        self.expected_sha256 = expected_sha256
        self._data: Optional[bytes] = None
        self._lock = threading.Lock()

    def read_object(self, name: str, into=None) -> bytes:
        with self._lock:
            if self._data is None:
                data = self.backend.read(self.object_name)
                if self.expected_sha256 is not None:
                    actual = sha256_hex(data)
                    if actual != self.expected_sha256:
                        raise IntegrityError(
                            f"checkpoint object {self.object_name!r}: "
                            f"expected SHA-256 {self.expected_sha256[:16]}..., "
                            f"got {actual[:16]}..."
                        )
                self._data = data
            return self._data

    def plan(
        self,
        names: Optional[Sequence[str]] = None,
        require_all: bool = True,
    ) -> RestorePlan:
        wanted = None if names is None else tuple(dict.fromkeys(names))
        data = self.read_object(self.object_name)
        header, payload_offset = read_header(data)
        tensors: Dict[str, TensorPlan] = {}
        for entry in header["tensors"]:
            name = entry["name"]
            if wanted is not None and name not in wanted:
                continue
            block = BlockSpec(
                tensor=name,
                seq=0,
                object_name=self.object_name,
                start=payload_offset + int(entry["offset"]),
                stored_nbytes=int(entry["stored_nbytes"]),
                raw_nbytes=int(entry["raw_nbytes"]),
                crc32=int(entry["crc32"]),
            )
            tensors[name] = TensorPlan(
                name=name,
                dtype=entry["dtype"],
                shape=tuple(int(d) for d in entry["shape"]),
                transform=entry.get("transform", "identity"),
                transform_meta=entry.get("transform_meta", {}),
                blocks=(block,),
            )
        if require_all and wanted is not None and set(tensors) != set(wanted):
            missing = sorted(set(wanted) - set(tensors))
            raise SerializationError(
                f"tensors not in this checkpoint: {missing}"
            )
        return RestorePlan(
            kind=self.kind,
            meta=header["meta"],
            codec=header["codec"],
            tensors=tensors,
            objects=[ObjectPlan(name=self.object_name, nbytes=len(data))],
            requested=wanted,
            total_stored_bytes=len(data),
        )
