#!/usr/bin/env python3
"""Monitoring a training run through partial checkpoint reads.

Operations use case for tensor-selective restore: a dashboard (or an
operator with ``qckpt peek``) wants the live loss curve and parameter norm
of a run whose checkpoints are dominated by the 2^n statevector cache.
Partial reads fetch only the chunk objects of the O(kB) classical tensors and
never transfer the cache — here a ~40x traffic reduction at just 12 qubits, and
the gap doubles with every added qubit.
"""

import numpy as np

from repro import (
    Adam,
    CheckpointManager,
    ChunkStore,
    EveryKSteps,
    Hamiltonian,
    InMemoryBackend,
    Trainer,
    TrainerConfig,
    VQEModel,
    hardware_efficient,
)

N_QUBITS = 12
STEPS = 20


def monitor(store: ChunkStore, backend: InMemoryBackend) -> None:
    """What a dashboard poll does: latest loss curve + parameter norm."""
    latest = store.checkpoints("default")[-1]
    backend.reset_counters()
    meta, tensors = store.load_tensors(
        "default", latest.ckpt_id, ["loss_history", "params"]
    )
    history = tensors["loss_history"]
    norm = float(np.linalg.norm(tensors["params"]))
    print(
        f"  poll @ step {meta['step']}: loss {history[-1]:+.5f} "
        f"(best {history.min():+.5f}), |params| {norm:.3f} — "
        f"transferred {backend.bytes_read} B of {latest.nbytes} B stored"
    )


def main() -> None:
    model = VQEModel(
        hardware_efficient(N_QUBITS, 3),
        Hamiltonian.transverse_field_ising(N_QUBITS, 1.0, 0.8),
    )
    backend = InMemoryBackend()
    store = ChunkStore(backend)
    trainer = Trainer(
        model,
        Adam(lr=0.1),
        config=TrainerConfig(seed=5, capture_statevector=True),
    )
    manager = CheckpointManager(store, policy=EveryKSteps(5))

    print(f"{N_QUBITS}-qubit VQE; checkpoints carry the full statevector cache")
    for _ in range(STEPS // 5):
        trainer.run(5, hooks=[manager])
        monitor(store, backend)
    manager.close()

    # Compare against what a naive monitor pays (full restore per poll).
    backend.reset_counters()
    store.load_snapshot("default")
    print(f"naive full-restore poll: {backend.bytes_read} B transferred")


if __name__ == "__main__":
    main()
