"""Checkpointing core — the paper's contribution.

Data model
----------
:class:`repro.core.snapshot.TrainingSnapshot` defines *what hybrid
quantum-classical training state is*: parameters, optimizer slots, RNG
streams, data-sampler position, loss history, an optional cached
statevector, and the model fingerprint that guards resume compatibility.

Mechanism
---------
* :mod:`repro.core.serialize` — the pickle-free QCKPT binary format,
* :mod:`repro.core.codecs` — lossless byte codecs and lossy statevector
  transforms,
* :mod:`repro.core.delta` — decoding of XOR / append delta checkpoints,
* :mod:`repro.core.integrity` — CRC32/SHA-256 validation,
* :mod:`repro.core.store` — the read-only reader of QCKPT store
  directories (listing, delta-chain resolution, the newest-first
  damage-skipping recovery walk),
* :mod:`repro.core.policy` — when to checkpoint (fixed, Young–Daly, adaptive),
* :mod:`repro.core.restore` — the unified restore pipeline (plan → fetch
  whole objects → verify → assemble) every read path runs through.

The store every checkpoint is written to, the trainer hook and the writers
it saves through live in :mod:`repro.service.chunkstore`,
:mod:`repro.service.manager` and :mod:`repro.service.pool`.
"""

from repro.core.policy import (
    AdaptiveOverheadPolicy,
    EveryKSteps,
    FixedTimeInterval,
    YoungDalyPolicy,
    young_daly_interval,
)
from repro.core.restore import (
    WARM_START_TENSORS,
    QckptSource,
    RestoreExecutor,
    RestorePlan,
    RestoreSource,
)
from repro.core.snapshot import TrainingSnapshot
from repro.core.store import CheckpointRecord, CheckpointStore

__all__ = [
    "TrainingSnapshot",
    "CheckpointStore",
    "RestorePlan",
    "RestoreSource",
    "RestoreExecutor",
    "QckptSource",
    "WARM_START_TENSORS",
    "CheckpointRecord",
    "EveryKSteps",
    "FixedTimeInterval",
    "YoungDalyPolicy",
    "AdaptiveOverheadPolicy",
    "young_daly_interval",
]
