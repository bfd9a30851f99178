"""repro — QCkpt: checkpointing for hybrid quantum-classical training.

Open-source reproduction of *"Quantum Neural Networks Need Checkpointing"*
(HotStorage 2025).  The package bundles:

* ``repro.quantum`` — a from-scratch statevector simulator (circuits, Pauli
  observables, shot sampling, ansatz templates, noise),
* ``repro.autodiff`` — adjoint / parameter-shift / finite-difference
  gradients,
* ``repro.ml`` — optimizers, datasets, models, and a trainer whose state is
  fully capturable,
* ``repro.core`` — the contribution: the QCKPT checkpoint format, codecs,
  lossy statevector transforms, the restore pipeline, the read-only reader
  of QCKPT store directories, and interval policies (Young–Daly),
* ``repro.storage`` — local / in-memory / simulated-remote / fault-injecting
  / replicated / tiered / hash-sharded backends,
* ``repro.service`` — the multi-job checkpoint service: the
  content-addressed chunk store (``ChunkStore``, the one store that writes)
  with cross-job dedup, the trainer hook (``CheckpointManager``)
  and the writer pool it saves through, the fleet harness for
  preemption-storm scenarios, and ``open_store`` — from a directory a run
  left behind to the store it holds,
* ``repro.faults`` — crash injection and makespan models,
* ``repro.bench`` — the experiment harness regenerating every figure/table.

Quickstart::

    import numpy as np
    from repro import (
        Adam, CheckpointManager, EveryKSteps, Hamiltonian, Trainer,
        TrainerConfig, VQEModel, hardware_efficient, open_store,
    )

    model = VQEModel(hardware_efficient(2, 2), Hamiltonian.h2_minimal())
    store = open_store("./ckpts", shards=1)
    trainer = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=1))
    manager = CheckpointManager(store, policy=EveryKSteps(10))
    manager.resume(trainer)          # no-op on first run
    trainer.run(100, hooks=[manager])
"""

from repro.autodiff import (
    adjoint_gradient,
    finite_difference_gradient,
    parameter_shift_gradient,
)
from repro.core import (
    AdaptiveOverheadPolicy,
    CheckpointRecord,
    EveryKSteps,
    FixedTimeInterval,
    TrainingSnapshot,
    YoungDalyPolicy,
    young_daly_interval,
)
from repro.core.serialize import pack_snapshot, unpack_snapshot
from repro.errors import (
    CheckpointError,
    CheckpointNotFoundError,
    ConfigError,
    IncompatibleCheckpointError,
    IntegrityError,
    ReproError,
    SerializationError,
    StorageError,
)
from repro.faults import (
    CrashAtStep,
    PoissonStepFailures,
    SimulatedFailure,
    run_with_failures,
)
from repro.mps import MatrixProductState, MPSTransform
from repro.ml import (
    SGD,
    NoisyVQEModel,
    QAOAMaxCutModel,
    Adam,
    ArrayDataset,
    RMSProp,
    StepInfo,
    Trainer,
    TrainerConfig,
    UnitaryLearningModel,
    VariationalClassifier,
    VQEModel,
)
from repro.quantum import (
    Circuit,
    Hamiltonian,
    PauliString,
    StatevectorSimulator,
)
from repro.quantum.templates import (
    hardware_efficient,
    qaoa_maxcut,
    real_amplitudes,
    strongly_entangling,
)
from repro.service import ChunkStore, open_store
from repro.service.manager import ServiceCheckpointManager as CheckpointManager
from repro.service.pool import WriterPool
from repro.storage import (
    InMemoryBackend,
    LocalDirectoryBackend,
    ReplicatedBackend,
    SimulatedRemoteBackend,
    TieredBackend,
    TransferCostModel,
)

__version__ = "2.0.0"

__all__ = [
    "__version__",
    # quantum
    "Circuit",
    "PauliString",
    "Hamiltonian",
    "StatevectorSimulator",
    "hardware_efficient",
    "strongly_entangling",
    "real_amplitudes",
    "qaoa_maxcut",
    # autodiff
    "adjoint_gradient",
    "parameter_shift_gradient",
    "finite_difference_gradient",
    # ml
    "Adam",
    "SGD",
    "RMSProp",
    "ArrayDataset",
    "Trainer",
    "TrainerConfig",
    "StepInfo",
    "VariationalClassifier",
    "VQEModel",
    "NoisyVQEModel",
    "QAOAMaxCutModel",
    "UnitaryLearningModel",
    # core
    "TrainingSnapshot",
    "ChunkStore",
    "CheckpointRecord",
    "CheckpointManager",
    "open_store",
    "WriterPool",
    "EveryKSteps",
    "FixedTimeInterval",
    "YoungDalyPolicy",
    "AdaptiveOverheadPolicy",
    "young_daly_interval",
    "pack_snapshot",
    "unpack_snapshot",
    # mps
    "MatrixProductState",
    "MPSTransform",
    # storage
    "LocalDirectoryBackend",
    "InMemoryBackend",
    "SimulatedRemoteBackend",
    "TransferCostModel",
    "ReplicatedBackend",
    "TieredBackend",
    # faults
    "SimulatedFailure",
    "CrashAtStep",
    "PoissonStepFailures",
    "run_with_failures",
    # errors
    "ReproError",
    "ConfigError",
    "CheckpointError",
    "SerializationError",
    "IntegrityError",
    "CheckpointNotFoundError",
    "IncompatibleCheckpointError",
    "StorageError",
]
