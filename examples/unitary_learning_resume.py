#!/usr/bin/env python3
"""Characterizing an unknown unitary, with a mid-run crash and exact resume.

Workload from the QNN-characterization literature: learn an unknown 2-qubit
unitary from (input, output) state pairs by maximizing fidelity.  We crash
the run at step 30 of 80 and resume from the checkpoint store, then verify
the resumed trajectory is bitwise identical to an uninterrupted one.
"""

import numpy as np

from repro import (
    Adam,
    CheckpointManager,
    ChunkStore,
    EveryKSteps,
    InMemoryBackend,
    SimulatedFailure,
    Trainer,
    TrainerConfig,
    UnitaryLearningModel,
    strongly_entangling,
)
from repro.faults import CrashAtStep
from repro.quantum.haar import haar_state, haar_unitary

TOTAL_STEPS = 80
N_QUBITS = 2
N_TRAINING_STATES = 4


def build_model() -> UnitaryLearningModel:
    rng = np.random.default_rng(2026)
    target = haar_unitary(2**N_QUBITS, rng)
    inputs = [haar_state(N_QUBITS, rng) for _ in range(N_TRAINING_STATES)]
    return UnitaryLearningModel(strongly_entangling(N_QUBITS, 3), target, inputs)


def main() -> None:
    model = build_model()

    def make_trainer() -> Trainer:
        return Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=8))

    # Reference: uninterrupted run.
    reference = make_trainer()
    reference.run(TOTAL_STEPS)
    print(f"uninterrupted: fidelity {model.mean_fidelity(reference.params):.6f}")

    # Crashing run with checkpoints every 10 steps.
    store = ChunkStore(InMemoryBackend())
    trainer = make_trainer()
    manager = CheckpointManager(store, policy=EveryKSteps(10))
    try:
        trainer.run(TOTAL_STEPS, hooks=[manager, CrashAtStep(30)])
    except SimulatedFailure as failure:
        print(f"crashed: {failure}")

    # "New process": fresh trainer, resume, finish.
    survivor = make_trainer()
    ckpt_id = manager.resume(survivor, required=True)
    print(f"resumed from {ckpt_id} at step {survivor.step_count}")
    survivor.run(TOTAL_STEPS - survivor.step_count, hooks=[manager])

    identical = np.array_equal(survivor.params, reference.params)
    print(f"final fidelity: {model.mean_fidelity(survivor.params):.6f}")
    print(f"bitwise identical to uninterrupted run: {identical}")
    assert identical, "exact-resume guarantee violated!"


if __name__ == "__main__":
    main()
