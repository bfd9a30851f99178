"""Unified restore pipeline: plan → fetch → verify → assemble.

Every restore in the system — full exact resume, tensor-selective partial
restore, warm start, fleet reincarnation, CLI ``qckpt restore`` — runs
through the same three stages:

1. a :class:`RestoreSource` (one per checkpoint format) turns one stored
   checkpoint into a :class:`RestorePlan`: the *minimal* set of byte ranges
   or chunk objects that must be transferred to materialize the requested
   tensor subset, plus the integrity evidence each block must satisfy,
2. a :class:`RestoreExecutor` fetches the plan's blocks — ranged reads where
   the backend supports them, whole-object reads where it does not or where
   whole-file integrity is wanted, in parallel when the plan has independent
   blocks — and verifies every transferred byte (CRC32, content address, or
   whole-object SHA-256),
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

Read-ahead: plans carry chain identity (``checkpoint_id``/``base_id``), and
:meth:`RestoreExecutor.prefetch` starts a plan's transfers in the
background — bounded by a byte window, cancellable, and advisory (a failed
or skipped prefetch unit is re-fetched synchronously at run time).  Chain
restores in :class:`~repro.core.store.CheckpointStore` use it to hide the
next delta's fetch latency behind the current delta's decode; the service
chunk store uses it to stage (and tier-promote) a restore before it runs.
"""

from __future__ import annotations

import hashlib
import threading
import time
from abc import ABC, abstractmethod
from collections import Counter
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codecs import get_codec, get_transform
from repro.core.integrity import SHA256_NBYTES, sha256_hex
from repro.core.serialize import (
    decode_stored_chunk,
    empty_tensor,
    read_header_ranged,
)
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
    which are fetched whole).  Exactly one kind of evidence is set: ``crc32``
    checks the *stored* (encoded) bytes, ``chunk_address`` checks the decoded
    raw bytes against their content address.
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


MODE_RANGED = "ranged"
MODE_WHOLE = "whole"


@dataclass(frozen=True)
class ObjectPlan:
    """How one backend object participates in a plan.

    ``whole`` objects are read in one piece (and, when ``sha256`` is set,
    verified end to end before any block is sliced out); ``ranged`` objects
    contribute only the byte ranges their blocks name.
    """

    name: str
    mode: str
    sha256: Optional[str] = None
    nbytes: Optional[int] = None


@dataclass
class RestorePlan:
    """Minimal fetch set for one checkpoint restore.

    ``requested`` is ``None`` for a full restore; otherwise the tensor names
    asked for.  ``fetch_bytes`` is what the executor will transfer;
    ``total_stored_bytes`` is what a *full* restore would transfer from
    this link — their ratio is what partial restore saves.

    Chain identity (read-ahead support): ``checkpoint_id`` names the
    checkpoint this plan restores and ``base_id`` the checkpoint its delta
    applies to (``None`` for self-contained records).  A delta's plan carries
    the plan of that older link as ``base``, so one plan is the whole
    restore: the byte and block accounting below covers every link, and the
    executor can :meth:`~RestoreExecutor.prefetch` the next link's blocks
    while the current link decodes.
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
        """Bytes the restore transfers (ranged blocks + whole objects),
        older links included."""
        total = 0 if self.base is None else self.base.fetch_bytes
        whole = {o.name: o for o in self.objects if o.mode == MODE_WHOLE}
        counted: set = set()
        for plan in self.tensors.values():
            for block in plan.blocks:
                if block.object_name in whole:
                    if block.object_name not in counted:
                        counted.add(block.object_name)
                        obj = whole[block.object_name]
                        total += (
                            obj.nbytes
                            if obj.nbytes is not None
                            else block.stored_nbytes
                        )
                else:
                    total += block.stored_nbytes
        return total

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

    @abstractmethod
    def read_range(self, name: str, start: int, length: int) -> bytes:
        """Bytes ``[start, start+length)`` of one backend object."""

    @property
    def supports_ranged(self) -> bool:
        """Whether ranged reads transfer less than whole objects here."""
        return False

    @property
    def supports_read_into(self) -> bool:
        """Whether :meth:`read_object` fills a buffer the caller hands it."""
        return False


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


class PrefetchedPlan:
    """Handle over the in-flight read-ahead of one plan's fetch units.

    Produced by :meth:`RestoreExecutor.prefetch`; consumed by passing it back
    to :meth:`RestoreExecutor.run` for the same plan instance.  The handle is
    *advisory*: a cancelled, failed, or window-skipped unit is simply fetched
    synchronously at run time, so prefetch can never change what a restore
    returns — only when its bytes arrive.
    """

    def __init__(self, plan: RestorePlan):
        self.plan = plan
        self.object_futures: Dict[str, "object"] = {}
        self.block_futures: Dict[int, "object"] = {}
        #: Bytes submitted to the fetch pool (bounded by the window).
        self.enqueued_bytes = 0
        #: Bytes the window bound kept out of the read-ahead.
        self.skipped_bytes = 0
        self.cancelled = False

    @property
    def n_enqueued(self) -> int:
        """Fetch units this read-ahead actually submitted to the pool."""
        return len(self.object_futures) + len(self.block_futures)

    def cancel(self) -> int:
        """Cancel not-yet-started fetches; returns how many were cancelled.

        In-flight reads complete on their worker thread and are discarded —
        backends have no abort primitive — but no *new* read-ahead I/O
        starts after this returns.
        """
        cancelled = 0
        for future in (
            list(self.object_futures.values())
            + list(self.block_futures.values())
        ):
            if future.cancel():
                cancelled += 1
        self.cancelled = True
        return cancelled

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every enqueued fetch finished; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for future in (
            list(self.object_futures.values())
            + list(self.block_futures.values())
        ):
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                future.exception(timeout=remaining)
            except CancelledError:
                continue
            except FuturesTimeoutError:
                return False
        return True

    @staticmethod
    def _result_or_none(future) -> Optional[bytes]:
        """A future's bytes, or ``None`` when it failed/was cancelled."""
        if future is None:
            return None
        try:
            return future.result()
        except CancelledError:
            return None
        except Exception:  # noqa: BLE001 - sync fallback is the retry
            return None

    def take_object(self, name: str) -> Optional[bytes]:
        """Prefetched bytes of one whole object (``None`` = fetch yourself)."""
        return self._result_or_none(self.object_futures.get(name))

    def take_block(self, block: BlockSpec) -> Optional[bytes]:
        """Prefetched bytes of one ranged block (``None`` = fetch yourself)."""
        return self._result_or_none(self.block_futures.get(id(block)))


class RestoreExecutor:
    """Fetches a plan's blocks, verifies them, and assembles tensors.

    ``max_workers`` bounds the parallel ranged-read fan-out.  Independent
    fetch units (distinct chunk objects, distinct byte ranges) run
    concurrently — backend reads release the GIL for files and sleep for
    simulated remotes, so restore latency approaches the slowest single
    fetch rather than the sum.  Verification, decode and the copy into the
    destination run on the calling thread, block by block in plan order, so
    the result does not depend on completion order; where the source can
    read into a buffer (:attr:`RestoreSource.supports_read_into`) the fetch
    threads fill one the caller allocated and allocate nothing themselves.

    Read-ahead: :meth:`prefetch` starts a plan's fetches in the background —
    bounded by ``prefetch_window_bytes``, cancellable — so a delta-chain
    restore can overlap the next link's transfers with the current link's
    decode.  Prefetched bytes are consumed by passing the handle back to
    :meth:`run`; anything the window skipped, a fault killed, or a cancel
    dropped is re-fetched synchronously there, so prefetch never weakens the
    integrity contract (every consumed byte is verified the same way).
    """

    def __init__(
        self,
        max_workers: int = 4,
        prefetch_window_bytes: int = 64 << 20,
        retry: Optional[RetryPolicy] = None,
    ):
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        if prefetch_window_bytes < 0:
            raise ConfigError(
                f"prefetch_window_bytes must be >= 0, "
                f"got {prefetch_window_bytes}"
            )
        self.max_workers = int(max_workers)
        self.prefetch_window_bytes = int(prefetch_window_bytes)
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

    # -- fetch units ------------------------------------------------------------

    @staticmethod
    def _fetch_units(
        plan: RestorePlan,
    ) -> Tuple[List[ObjectPlan], List[BlockSpec]]:
        """A plan's transfer list: distinct whole objects + ranged blocks."""
        whole = {o.name: o for o in plan.objects if o.mode == MODE_WHOLE}
        needed_whole: List[ObjectPlan] = []
        seen: set = set()
        ranged_blocks: List[BlockSpec] = []
        for tensor_plan in plan.tensors.values():
            for block in tensor_plan.blocks:
                if block.object_name in whole:
                    if block.object_name not in seen:
                        seen.add(block.object_name)
                        needed_whole.append(whole[block.object_name])
                else:
                    ranged_blocks.append(block)
        return needed_whole, ranged_blocks

    def prefetch(
        self, source: RestoreSource, plan: RestorePlan
    ) -> PrefetchedPlan:
        """Start fetching ``plan``'s blocks in the background (read-ahead).

        Fetches are enqueued in plan order until ``prefetch_window_bytes``
        is reached; the rest stays for run time.  The returned handle is
        passed to :meth:`run` (same plan instance) to consume the bytes, or
        :meth:`PrefetchedPlan.cancel`-ed when the restore is abandoned.
        Verification does *not* happen here — the bytes are checked when
        :meth:`run` consumes them, exactly as on the synchronous path.
        """
        handle = PrefetchedPlan(plan)
        pool = self._ensure_pool()
        needed_whole, ranged_blocks = self._fetch_units(plan)
        budget = self.prefetch_window_bytes
        for obj in needed_whole:
            cost = obj.nbytes if obj.nbytes is not None else 0
            if handle.enqueued_bytes + cost > budget:
                handle.skipped_bytes += cost
                continue
            handle.enqueued_bytes += cost
            handle.object_futures[obj.name] = pool.submit(
                source.read_object, obj.name
            )
        for block in ranged_blocks:
            if handle.enqueued_bytes + block.stored_nbytes > budget:
                handle.skipped_bytes += block.stored_nbytes
                continue
            handle.enqueued_bytes += block.stored_nbytes
            handle.block_futures[id(block)] = pool.submit(
                source.read_range,
                block.object_name,
                block.start,
                block.stored_nbytes,
            )
        return handle

    def run(
        self,
        source: RestoreSource,
        plan: RestorePlan,
        verify: bool = True,
        prefetched: Optional[PrefetchedPlan] = None,
        stages: Optional[Dict[str, float]] = None,
    ) -> Tuple[Dict, Dict[str, np.ndarray]]:
        """Execute ``plan`` against ``source``; returns ``(meta, tensors)``.

        ``prefetched`` consumes a read-ahead started by :meth:`prefetch` for
        this plan instance; missing/failed/cancelled units fall back to
        synchronous fetches (the retry), so the result is identical with or
        without it.  ``stages`` (if given) accumulates wall seconds per
        pipeline stage — ``fetch`` / ``verify`` / ``assemble`` — for the
        profiler's critical-path attribution.
        """
        codec_obj = get_codec(plan.codec)
        needed_whole, ranged_blocks = self._fetch_units(plan)

        stage_t0 = time.perf_counter()
        buffers = self._fetch_whole_objects(
            source, needed_whole, verify, prefetched
        )
        ranged_bytes = self._fetch_ranged_blocks(
            source, ranged_blocks, prefetched
        )
        fetch_s = time.perf_counter() - stage_t0

        # Each whole object is dropped with the last block that reads it,
        # so the fetched bytes shrink as the destinations fill.
        uses = Counter(
            block.object_name
            for tensor_plan in plan.tensors.values()
            for block in tensor_plan.blocks
            if block.object_name in buffers
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
                stored = buffers.get(block.object_name)
                if stored is None:
                    stored = ranged_bytes.pop(id(block))
                else:
                    uses[block.object_name] -= 1
                    if not uses[block.object_name]:
                        del buffers[block.object_name]
                    stored = stored[block.start : block.start + block.stored_nbytes]
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

    def _fetch_whole_objects(
        self,
        source: RestoreSource,
        objects: List[ObjectPlan],
        verify: bool,
        prefetched: Optional[PrefetchedPlan] = None,
    ) -> Dict[str, bytes]:
        # Where the source can fill a buffer, each object still to be read
        # gets one allocated here, on the calling thread: the fetch threads
        # allocate nothing (what they allocate, their malloc arenas keep).
        slots: Dict[str, memoryview] = {}
        if source.supports_read_into:
            ahead = prefetched.object_futures if prefetched is not None else ()
            for obj in objects:
                if obj.nbytes is not None and obj.name not in ahead:
                    slots[obj.name] = memoryview(
                        np.empty(obj.nbytes, dtype=np.uint8)
                    )

        def fetch(obj: ObjectPlan) -> Tuple[str, bytes]:
            data = None
            if prefetched is not None:
                data = prefetched.take_object(obj.name)
            if data is None:
                into = slots.get(obj.name)
                data = self._read(lambda: source.read_object(obj.name, into))
            if verify and obj.sha256 is not None:
                actual = sha256_hex(data)
                if actual != obj.sha256:
                    raise IntegrityError(
                        f"object {obj.name!r}: expected SHA-256 "
                        f"{obj.sha256[:16]}..., got {actual[:16]}..."
                    )
            return obj.name, data

        return dict(self._map(fetch, objects))

    def _fetch_ranged_blocks(
        self,
        source: RestoreSource,
        blocks: List[BlockSpec],
        prefetched: Optional[PrefetchedPlan] = None,
    ) -> Dict[int, bytes]:
        def fetch(block: BlockSpec) -> Tuple[int, bytes]:
            data = None
            if prefetched is not None:
                data = prefetched.take_block(block)
            if data is None:
                data = self._read(
                    lambda: source.read_range(
                        block.object_name, block.start, block.stored_nbytes
                    )
                )
            return id(block), data

        return dict(self._map(fetch, blocks))

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

        The retry path bypasses every buffer (prefetch, whole-object cache)
        and goes straight back to the source: the point is to observe the
        backend *again*, where a transient lie has cleared or a replicated
        backend falls through to a surviving copy.
        """
        try:
            return self._verified_raw(block, stored, codec_obj, verify)
        except IntegrityError:
            if self.retry is None:
                raise

            def refetch_and_verify() -> bytes:
                fresh = source.read_range(
                    block.object_name, block.start, block.stored_nbytes
                )
                return self._verified_raw(block, fresh, codec_obj, verify)

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

    Planning parses the container's JSON header through ranged reads; block
    specs are the header's tensor directory entries (one stored chunk per
    tensor, CRC32-verified).  A full restore against a known whole-file
    SHA-256 plans a single whole-object fetch instead — same transfer as the
    legacy path, plus its end-to-end integrity check.  On backends without
    ranged-read support the source reads the object once and serves every
    "ranged" read from that buffer, so planning never multiplies transfers.
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
        self._buffer: Optional[bytes] = None
        self._verified = False
        self._lock = threading.Lock()

    @property
    def supports_ranged(self) -> bool:
        if self._buffer is not None:
            return True  # slicing a resident buffer is free
        return bool(getattr(self.backend, "supports_ranged_reads", False))

    def _whole(self) -> bytes:
        with self._lock:
            if self._buffer is None:
                self._buffer = self.backend.read(self.object_name)
            return self._buffer

    def _whole_verified(self) -> bytes:
        """Whole object, checked against the expected SHA-256 exactly once.

        Matches the legacy full-restore ordering: end-to-end integrity is
        established *before* any byte of the object is interpreted.
        """
        data = self._whole()
        with self._lock:
            if self.expected_sha256 is not None and not self._verified:
                actual = sha256_hex(data)
                if actual != self.expected_sha256:
                    raise IntegrityError(
                        f"checkpoint object {self.object_name!r}: expected "
                        f"SHA-256 {self.expected_sha256[:16]}..., "
                        f"got {actual[:16]}..."
                    )
                self._verified = True
        return data

    def read_object(self, name: str, into=None) -> bytes:
        return self._whole_verified()

    def read_range(self, name: str, start: int, length: int) -> bytes:
        if self._buffer is not None or not self.supports_ranged:
            return self._whole()[start : start + length]
        return self.backend.read_range(name, start, length)

    def plan(
        self,
        names: Optional[Sequence[str]] = None,
        require_all: bool = True,
        prefetch: bool = True,
    ) -> RestorePlan:
        # A full restore is one whole-object read (verified end to end when
        # the caller knows the object's SHA-256); so is any restore against a
        # backend where ranged reads cannot transfer less.  With ``prefetch``
        # (the load path) that read happens now, so integrity is established
        # *before* header parsing — the legacy ordering — and the executor
        # reuses the buffer.  ``prefetch=False`` (plan introspection, e.g.
        # ``qckpt restore --plan``) keeps planning to header-sized reads.
        wanted = None if names is None else tuple(dict.fromkeys(names))
        whole = wanted is None or not self.supports_ranged
        if whole and prefetch:
            self._whole_verified()
        header, payload_offset = read_header_ranged(
            lambda start, length: self.read_range(
                self.object_name, start, length
            )
        )
        entries = header["tensors"]
        payload_stored = sum(int(e["stored_nbytes"]) for e in entries)
        # What a full restore transfers: the whole container
        # (magic + header + payload + SHA-256 footer).
        total_stored = (
            len(self._buffer)
            if self._buffer is not None
            else payload_offset + payload_stored + SHA256_NBYTES
        )
        tensors: Dict[str, TensorPlan] = {}
        found: set = set()
        for entry in entries:
            name = entry["name"]
            if wanted is not None and name not in wanted:
                continue
            found.add(name)
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
        if require_all and wanted is not None and found != set(wanted):
            missing = sorted(set(wanted) - found)
            raise SerializationError(
                f"tensors not in this checkpoint: {missing}"
            )
        objects = [
            ObjectPlan(
                name=self.object_name,
                mode=MODE_WHOLE if whole else MODE_RANGED,
                # The source verifies whole reads itself (before header
                # parse); no second hash at the executor.
                sha256=None,
                nbytes=total_stored,
            )
        ]
        return RestorePlan(
            kind=self.kind,
            meta=header["meta"],
            codec=header["codec"],
            tensors=tensors,
            objects=objects,
            requested=wanted,
            total_stored_bytes=total_stored,
        )
