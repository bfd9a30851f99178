#!/usr/bin/env python3
"""Quickstart: checkpointed VQE on the minimal H2 Hamiltonian.

Run it twice to see resume in action::

    python examples/quickstart.py          # trains, checkpoints every 10 steps
    python examples/quickstart.py          # resumes from the latest checkpoint

The second invocation picks up exactly where the first stopped — parameters,
Adam moments, RNG position, loss history — because the checkpoint captures
the *complete* hybrid training state.
"""

from pathlib import Path

from repro import (
    Adam,
    CheckpointManager,
    EveryKSteps,
    Hamiltonian,
    Trainer,
    TrainerConfig,
    VQEModel,
    hardware_efficient,
    open_store,
)

CKPT_DIR = Path(__file__).with_name("quickstart_ckpts")
TOTAL_STEPS = 120


def main() -> None:
    hamiltonian = Hamiltonian.h2_minimal()
    exact = hamiltonian.ground_energy(2)
    model = VQEModel(hardware_efficient(2, 2), hamiltonian)
    trainer = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=42))

    store = open_store(CKPT_DIR, shards=1)  # a chunk store, new or reopened
    manager = CheckpointManager(store, policy=EveryKSteps(10))
    ckpt_id = manager.resume(trainer)
    if ckpt_id is None:
        print("no checkpoint found — starting fresh")
    else:
        print(f"resumed from {ckpt_id} at step {trainer.step_count}")

    remaining = TOTAL_STEPS - trainer.step_count
    if remaining <= 0:
        print(f"training already complete at step {trainer.step_count}")
    else:
        print(f"running {remaining} steps...")
        trainer.run(remaining, hooks=[manager])
        print(
            f"checkpoints written: {manager.stats.saves} "
            f"({manager.stats.bytes_written} bytes)"
        )

    energy = trainer.last_loss
    print(f"final energy  : {energy:.6f} Ha")
    print(f"exact ground  : {exact:.6f} Ha")
    print(f"error         : {abs(energy - exact):.2e} Ha")
    print(f"checkpoints in {CKPT_DIR}: try `qckpt ls {CKPT_DIR}`")


if __name__ == "__main__":
    main()
