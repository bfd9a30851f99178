"""What a store directory looks like on disk — the one module that knows.

Under a store root (``docs/FORMATS.md``, "Directory layout")::

    MANIFEST.json + ckpt-*.qckpt    a QCKPT store (read-only CheckpointStore)
    job-*-ckpt-*.json + ch-*        a chunk store (ChunkStore), flat, or
    shard-0/ .. shard-N/            hashed over shards (one shard: that
                                    directory alone; several: ShardedBackend)
    placement/                      the tiering placement journal
    control/                        the daemon's default control plane
    obs/                            registry.json, trace.jsonl, timeseries.db
    .qckpt-meta.db                  the optional metadata index

Several roots are replicas of one store (``ReplicatedBackend``, read repair
off: readers observe, ``qckpt scrub`` repairs); ``placement/``, ``obs/`` and
the index are the first root's.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import List, Optional

from repro.errors import ReadOnlyStoreError, ReproError
from repro.storage.backend import StorageBackend
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.metadb import DB_FILENAME
from repro.storage.placement import PlacementJournal
from repro.storage.replicated import ReplicatedBackend
from repro.storage.sharded import ShardedBackend

SHARD_PREFIX = "shard-"
MANIFEST_MARKER = "MANIFEST.json"
CHUNK_MARKER = "job-"  # job-<job>-ckpt-<seq>.json
QCKPT, CHUNKS = "qckpt", "chunks"


def roots_of(root_or_roots) -> List[Optional[Path]]:
    """One root or several replicas, as paths (``None``: shards in memory)."""
    if root_or_roots is None or isinstance(root_or_roots, (str, os.PathLike)):
        root_or_roots = [root_or_roots]
    return [None if root is None else Path(root) for root in root_or_roots]


def control_dir(root) -> Path:
    return Path(root) / "control"


def obs_dir(root) -> Path:
    return Path(root) / "obs"


def index_path(root) -> Path:
    return Path(root) / DB_FILENAME


def data_backend(root=None, shards: Optional[int] = None) -> StorageBackend:
    """The backend holding a root's objects.

    ``shards=N`` lays the root out as ``shard-0`` .. ``shard-(N-1)`` (created
    if missing; in memory when ``root`` is ``None``) and refuses a root that
    holds a QCKPT store, which is read-only.  ``shards=None`` reopens what
    is there — the ``shard-N`` sub-directories, else the directory itself —
    and refuses a path that is not a directory.
    """
    if shards is not None and root is not None:
        if (Path(root) / MANIFEST_MARKER).exists():
            raise ReadOnlyStoreError(
                f"{root} holds a QCKPT store, which is read-only: restore "
                "from it as it is, and write new checkpoints to another "
                "directory"
            )
    if shards is None:
        root = Path(root)
        if not root.is_dir():
            raise ReproError(f"{root} is not a directory")
        on_disk = [p.name for p in root.glob(SHARD_PREFIX + "*") if p.is_dir()]
        tails = [name[len(SHARD_PREFIX):] for name in on_disk]
        indices = sorted(int(tail) for tail in tails if tail.isdigit())
        if not indices:
            return LocalDirectoryBackend(root)
    else:
        indices = range(shards)
    parts = [
        InMemoryBackend()
        if root is None
        else LocalDirectoryBackend(Path(root) / f"{SHARD_PREFIX}{i}")
        for i in indices
    ]
    return parts[0] if len(parts) == 1 else ShardedBackend(parts)


def store_backend(root_or_roots, shards: Optional[int] = None) -> StorageBackend:
    """:func:`data_backend` of one root, or the replica set of several."""
    backends = [data_backend(root, shards) for root in roots_of(root_or_roots)]
    if len(backends) > 1:
        return ReplicatedBackend(backends, read_repair=False)
    return backends[0]


def store_format(backend: StorageBackend, where="store") -> str:
    """``QCKPT`` or ``CHUNKS``, by the marker objects ``backend`` holds;
    both or neither is an error naming what was found."""
    qckpt = backend.exists(MANIFEST_MARKER)
    chunks = bool(backend.list(CHUNK_MARKER))
    if qckpt != chunks:
        return QCKPT if qckpt else CHUNKS
    found = "both" if qckpt else f"neither among its {len(backend.list())} object(s)"
    raise ReproError(
        f"{where} must hold a QCKPT store's {MANIFEST_MARKER} or a chunk "
        f"store's {CHUNK_MARKER}*.json manifests: found {found}"
    )


def placement_journal(root, owner=None, metadb=None, create: bool = False):
    """The root's placement journal; ``None`` when it keeps none on disk
    (and ``create`` is off).  ``owner`` defaults to a fresh reader id."""
    directory = Path(root) / "placement"
    if not (create or directory.is_dir()):
        return None
    return PlacementJournal(
        LocalDirectoryBackend(directory),
        owner=owner or f"reader-{uuid.uuid4().hex[:8]}",
        metadb=metadb,
    )
