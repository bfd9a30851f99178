"""Storage backends.

A :class:`~repro.storage.backend.StorageBackend` is a flat byte-blob namespace
with atomic writes — the minimal contract the checkpoint store needs.  Six
implementations:

* :class:`~repro.storage.local.LocalDirectoryBackend` — filesystem directory
  with tmp-file + fsync + rename atomicity,
* :class:`~repro.storage.memory.InMemoryBackend` — dict-backed, with byte
  counters, for tests and benchmarks,
* :class:`~repro.storage.simulated.SimulatedRemoteBackend` — wraps another
  backend with a latency/bandwidth cost model (the "remote object store" of
  the evaluation),
* :class:`~repro.storage.flaky.FlakyBackend` — deterministic fault injection
  (torn writes, bit flips, errors) for crash-consistency tests,
* :class:`~repro.storage.replicated.ReplicatedBackend` — N-way mirroring with
  quorum writes, majority reads, read-repair, and scrubbing,
* :class:`~repro.storage.tiered.TieredBackend` — byte-budgeted LRU fast tier
  over a slow tier, write-through or write-back,
* :class:`~repro.storage.sharded.ShardedBackend` — stable-hash routing of one
  namespace across several backends (the chunk-store substrate),
* :class:`~repro.storage.reliable.ReliableBackend` — retry/backoff, circuit
  breaking, and deadline budgets (``repro.reliability``) over any of the
  above.

:class:`~repro.storage.placement.PlacementJournal` is not a backend but the
shared placement state *over* one: an append-only, on-store journal making
tier pins durable across restarts and visible across processes, with
lease-based single-holder roles for store-wide passes (compact, scrub).

:class:`~repro.storage.metadb.MetaDB` is the optional SQLite index over all
of that metadata — journal fold, manifest headers — kept strictly as a cache: the JSON files stay the durable truth, and a
missing or corrupt index rebuilds from them.
"""

from repro.storage.backend import StorageBackend
from repro.storage.flaky import FlakyBackend
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.metadb import MetaDB, metadb_for_dir
from repro.storage.placement import LeaseState, PlacementJournal
from repro.storage.reliable import ReliabilityStats, ReliableBackend
from repro.storage.replicated import ReplicatedBackend, ReplicationStats
from repro.storage.sharded import ShardedBackend
from repro.storage.simulated import SimulatedRemoteBackend, TransferCostModel
from repro.storage.tiered import TieredBackend, TierStats

__all__ = [
    "StorageBackend",
    "LocalDirectoryBackend",
    "InMemoryBackend",
    "SimulatedRemoteBackend",
    "TransferCostModel",
    "FlakyBackend",
    "ReliableBackend",
    "ReliabilityStats",
    "PlacementJournal",
    "LeaseState",
    "MetaDB",
    "metadb_for_dir",
    "ReplicatedBackend",
    "ReplicationStats",
    "ShardedBackend",
    "TieredBackend",
    "TierStats",
]
