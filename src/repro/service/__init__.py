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
* :mod:`repro.service.fleet` — the scheduler harness running N jobs against
  the shared stack under preemption storms and brownouts,
* :mod:`repro.service.daemon` — the same scheduler as a long-running
  process: pluggable control plane (``qckpt daemon``), dynamic job
  submission from a JSON workload registry, priority-weighted tick
  scheduling, restore read-ahead during restart delays, and lease-gated
  cross-daemon tier rebalancing,
* :mod:`repro.service.transport` — the daemon's control-plane transports:
  the file protocol plus a TCP socket server/client speaking
  length-prefixed JSON frames with shared-secret auth, for driving a
  daemon from another host,
* :mod:`repro.service.scrub` — store self-healing: content-address scrub,
  quarantine of corrupt copies, and repair from surviving replicas
  (``qckpt scrub`` / ``qckpt fsck``).
"""

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
from repro.service.fleet import (
    FleetHarness,
    FleetJobResult,
    FleetJobSpec,
    FleetResult,
    JobLifecycle,
    ThrottledBackend,
)
from repro.service.manager import ServiceCheckpointManager, ServiceCheckpointStats
from repro.service.pool import (
    ChannelStats,
    InlineWriter,
    PoolChannel,
    WriteStats,
    WriterPool,
)
from repro.service.scrub import (
    ScrubFinding,
    ScrubReport,
    StoreScrubber,
    scrub_store,
)
from repro.service.transport import (
    ControlRequest,
    ControlTransport,
    FileTransport,
    SocketControlClient,
    SocketTransport,
    TransportConnectError,
)

__all__ = [
    "FleetDaemon",
    "DaemonClient",
    "DaemonConfig",
    "DaemonAlreadyRunning",
    "DaemonUnavailable",
    "ControlTransport",
    "ControlRequest",
    "FileTransport",
    "SocketTransport",
    "SocketControlClient",
    "TransportConnectError",
    "JobLifecycle",
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
