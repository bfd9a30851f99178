"""The checkpoint service: trainer hook, writers, chunk store, fleet.

The paper reproduces checkpointing one training job at a time; real QNN
workloads are *fleets* — hyperparameter sweeps, architecture selection,
capacity scans — whose checkpoint traffic shares one store.  This package is
that service layer:

* :mod:`repro.service.chunkstore` — content-addressed, sharded chunk store
  deduplicating blocks across checkpoints *and* across jobs,
* :mod:`repro.service.pool` — the writers: inline, and a shared pool with
  bounded per-job queues, round-robin fairness, and pluggable backpressure
  (block / drop-oldest / degrade-to-lite),
* :mod:`repro.service.manager` — the trainer hook (one per job, over either
  store) submitting into a writer,
* :mod:`repro.service.scheduler` — the one fleet scheduler: job table,
  priority-weighted tick loop, preempt / reincarnate / park,
* :mod:`repro.service.fleet` — the harness that scripts the scheduler to
  completion under preemption storms and brownouts,
* :mod:`repro.service.daemon` — the same scheduler served as a
  long-running process: socket control plane (``qckpt daemon``), dynamic
  job submission by name from the workload catalogue
  (:mod:`repro.ml.catalogue`) and one op table,
* :mod:`repro.service.transport` — the daemon's control plane: one socket
  server (a Unix socket in the control directory, plus TCP with
  shared-secret auth for driving a daemon from another host) and its
  client, speaking length-prefixed JSON frames,
* :mod:`repro.service.scrub` — store self-healing: content-address scrub,
  quarantine of corrupt copies, and repair from surviving replicas
  (``qckpt scrub`` / ``qckpt fsck``).

:func:`open_store` is the one way from a directory to the store it holds.
"""

from repro.core.store import CheckpointStore
from repro.reliability import CircuitBreaker, RetryPolicy
from repro.service.chunkstore import (
    ChunkCheckpointRecord,
    ChunkManifestSource,
    ChunkStore,
    ChunkStoreStats,
    chunk_name,
)
from repro.service.daemon import (
    DaemonAlreadyRunning,
    DaemonClient,
    DaemonConfig,
    DaemonUnavailable,
    FleetDaemon,
)
from repro.service.fleet import FleetHarness, FleetResult, ThrottledBackend
from repro.service.manager import ServiceCheckpointManager, ServiceCheckpointStats
from repro.service.pool import (
    ChannelStats,
    InlineWriter,
    PoolChannel,
    WriteStats,
    WriterPool,
)
from repro.service.scheduler import FleetJobResult, FleetJobSpec, Scheduler
from repro.service.scrub import (
    ScrubFinding,
    ScrubReport,
    StoreScrubber,
    scrub_store,
)
from repro.service.transport import (
    SocketControlClient,
    SocketTransport,
    TransportConnectError,
)
from repro.storage import layout
from repro.storage.memory import InMemoryBackend
from repro.storage.metadb import metadb_enabled, metadb_for_dir
from repro.storage.reliable import ReliableBackend
from repro.storage.tiered import TieredBackend


def open_store(
    root_or_roots,
    *,
    shards=None,
    fast_bytes=0,
    retries=0,
    index=None,
    owner=None,
    wrap=None,
    metrics=None,
    **options,
):
    """The store a directory holds, over the storage stack its layout implies.

    Reopening is all detection (:mod:`repro.storage.layout`): ``shard-N``
    sub-directories are a sharded backend, several roots are replicas, the
    marker objects say whether it is a :class:`ChunkStore` or a QCKPT
    directory an earlier release wrote (opened by the read-only
    :class:`~repro.core.store.CheckpointStore` reader, which refuses every
    write), and a ``.qckpt-meta.db`` beside a chunk store is
    attached as its index (unless ``index`` or the environment, see
    :func:`~repro.storage.metadb.metadb_enabled`, says otherwise).
    ``options`` go to the store's constructor.

    ``shards=N`` instead lays the root out as a daemon does: a chunk store,
    new or existing, over N shard directories (in memory when the root is
    ``None``).  ``wrap`` decorates the data backend (throttling, fault
    injection); ``fast_bytes > 0`` puts an in-memory fast tier with a
    durable placement journal, owned by ``owner``, over it; ``retries > 0``
    a retry/circuit-breaker layer outermost, so every op — tier probes
    included — runs under it.
    """
    root = layout.roots_of(root_or_roots)[0]
    backend = layout.store_backend(root_or_roots, shards)
    if wrap is not None:
        backend = wrap(backend)
    if shards is None and layout.store_format(backend, root) == layout.QCKPT:
        return CheckpointStore(backend, **options)
    metadb = journal = None
    if root is not None:
        found = layout.index_path(root).exists()
        metadb = metadb_for_dir(
            root, metrics=metrics, enabled=metadb_enabled(index, default=found)
        )
    if fast_bytes > 0:
        journal = layout.placement_journal(root, owner, metadb, create=True)
        backend = TieredBackend(
            InMemoryBackend(),
            backend,
            fast_capacity_bytes=fast_bytes,
            journal=journal,
            metrics=metrics,
        )
    if retries > 0:
        backend = ReliableBackend(
            backend,
            retry=RetryPolicy(max_attempts=retries + 1, base_delay=0.05),
            breaker=CircuitBreaker(failure_threshold=5, reset_timeout=30.0),
            metrics=metrics,
        )
    return ChunkStore(
        backend,
        placement_journal=journal,
        metrics=metrics,
        metadb=metadb,
        **options,
    )


__all__ = [
    "open_store",
    "FleetDaemon",
    "DaemonClient",
    "DaemonConfig",
    "DaemonAlreadyRunning",
    "DaemonUnavailable",
    "SocketTransport",
    "SocketControlClient",
    "TransportConnectError",
    "Scheduler",
    "ChunkStore",
    "ChunkStoreStats",
    "ChunkCheckpointRecord",
    "ChunkManifestSource",
    "chunk_name",
    "WriterPool",
    "PoolChannel",
    "ChannelStats",
    "InlineWriter",
    "WriteStats",
    "ServiceCheckpointManager",
    "ServiceCheckpointStats",
    "FleetHarness",
    "FleetJobSpec",
    "FleetJobResult",
    "FleetResult",
    "ThrottledBackend",
    "StoreScrubber",
    "ScrubReport",
    "ScrubFinding",
    "scrub_store",
]
