#!/usr/bin/env python3
"""Noisy VQE on the exact density-matrix simulator, checkpointed and resumed.

NISQ-realistic workload: minimize the transverse-field Ising energy through a
depolarizing + amplitude-damping channel.  The density matrix is the O(4^n)
worst case for checkpoint footprint — this example checkpoints it as the
warm-start cache and shows the footprint blow-up next to the pure-state
equivalent, then crashes the run and resumes it bit-exactly.
"""

import numpy as np

from repro import (
    Adam,
    CheckpointManager,
    ChunkStore,
    EveryKSteps,
    Hamiltonian,
    InMemoryBackend,
    NoisyVQEModel,
    SimulatedFailure,
    Trainer,
    TrainerConfig,
    VQEModel,
    hardware_efficient,
)
from repro.faults import CrashAtStep
from repro.quantum.density import density_nbytes, purity
from repro.quantum.noise import NoiseModel
from repro.quantum.statevector import statevector_nbytes

N_QUBITS = 4
TOTAL_STEPS = 30
SEED = 7


def main() -> None:
    hamiltonian = Hamiltonian.transverse_field_ising(N_QUBITS, 1.0, 0.8)
    ansatz = hardware_efficient(N_QUBITS, 2)
    noise = NoiseModel(depolarizing=0.02, amplitude_damping=0.01)
    model = NoisyVQEModel(ansatz, hamiltonian, noise)
    clean = VQEModel(ansatz, hamiltonian)

    ground = hamiltonian.ground_energy(N_QUBITS)
    print(f"TFIM ground energy ({N_QUBITS} qubits): {ground:.6f}")
    print(
        f"state cache: pure {statevector_nbytes(N_QUBITS)} B vs "
        f"density {density_nbytes(N_QUBITS)} B "
        f"({density_nbytes(N_QUBITS) // statevector_nbytes(N_QUBITS)}x)"
    )

    config = TrainerConfig(seed=SEED, capture_statevector=True)

    def make_trainer() -> Trainer:
        return Trainer(model, Adam(lr=0.1), config=config)

    # Crash mid-run; every snapshot carries the density matrix.
    store = ChunkStore(InMemoryBackend())
    trainer = make_trainer()
    manager = CheckpointManager(store, policy=EveryKSteps(5))
    try:
        trainer.run(TOTAL_STEPS, hooks=[manager, CrashAtStep(17)])
    except SimulatedFailure:
        print(f"crashed at step {trainer.step_count}")
    finally:
        manager.close()

    snapshot = store.load_snapshot("default")
    rho = snapshot.extra["density_matrix"]
    print(
        f"latest checkpoint: step {snapshot.step}, density cache "
        f"{rho.nbytes} B, purity {purity(rho):.4f} (noise has mixed the state)"
    )

    # Fresh process: resume and finish.
    resumed = make_trainer()
    ckpt_id = manager.resume(resumed, required=True)
    print(f"resumed from checkpoint {ckpt_id} at step {resumed.step_count}")
    resumed.run(TOTAL_STEPS - resumed.step_count, hooks=[manager])

    noisy_energy = model.energy(resumed.params)
    clean_energy = clean.energy(resumed.params)
    print(
        f"after {TOTAL_STEPS} steps: noisy energy {noisy_energy:.6f}, "
        f"same parameters noiselessly {clean_energy:.6f}"
    )
    print(
        f"noise floor above ground state: {noisy_energy - ground:.6f} "
        "(the gap exact noisy simulation quantifies)"
    )

    # Exactness check against an uninterrupted run.
    reference = make_trainer()
    reference.run(TOTAL_STEPS)
    assert np.array_equal(reference.params, resumed.params)
    print("resumed trajectory is bitwise identical to the uninterrupted run")


if __name__ == "__main__":
    main()
