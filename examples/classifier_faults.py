#!/usr/bin/env python3
"""Variational classifier training under injected failures.

The scenario HotStorage cares about: a hybrid training job on preemptible
infrastructure.  We train a two-moons classifier while a Poisson failure
process kills the "process" repeatedly, and compare the wasted work with and
without checkpointing.  Everything runs in-memory; the failure schedule is
deterministic for a given seed.
"""

import numpy as np

from repro import (
    Adam,
    CheckpointManager,
    ChunkStore,
    EveryKSteps,
    InMemoryBackend,
    PoissonStepFailures,
    Trainer,
    TrainerConfig,
    VariationalClassifier,
    hardware_efficient,
    run_with_failures,
)
from repro.ml.dataset import make_moons

TARGET_STEPS = 40
MTBF_STEPS = 12.0  # aggressively unreliable: one failure per ~12 steps


def make_trainer() -> Trainer:
    rng = np.random.default_rng(1)
    dataset = make_moons(48, rng, noise=0.15)
    model = VariationalClassifier(hardware_efficient(4, 2))
    return Trainer(
        model, Adam(lr=0.08), dataset, TrainerConfig(batch_size=8, seed=7)
    )


def run(strategy_name: str, with_checkpoints: bool):
    store = ChunkStore(InMemoryBackend())
    failure_hook = PoissonStepFailures(
        MTBF_STEPS, seed=99, fixed_step_seconds=1.0
    )
    manager_factory = (
        (lambda s: CheckpointManager(s, policy=EveryKSteps(5)))
        if with_checkpoints
        else None
    )
    result = run_with_failures(
        make_trainer,
        store,
        manager_factory,
        TARGET_STEPS,
        failure_hooks=[failure_hook],
        max_failures=2000,
    )
    print(
        f"{strategy_name:<16} failures={result.failures:<3} "
        f"steps_executed={result.steps_executed:<5} "
        f"wasted={result.wasted_steps:<5} "
        f"waste_fraction={result.wasted_steps / result.steps_executed:.1%}"
    )
    return store, result


def main() -> None:
    print(f"target: {TARGET_STEPS} steps, MTBF: {MTBF_STEPS} steps\n")
    store, _ = run("checkpoint/5", with_checkpoints=True)
    run("no-checkpoint", with_checkpoints=False)

    # The checkpointed run's final state is bitwise identical to a run that
    # never failed at all — the library's core guarantee.
    reference = make_trainer()
    reference.run(TARGET_STEPS)
    final = store.load_snapshot("default")
    identical = np.array_equal(final.params, reference.params)
    print(f"\nbitwise identical to failure-free run: {identical}")

    accuracy = reference.model.accuracy(
        final.params, reference.dataset.features, reference.dataset.labels
    )
    print(f"final training accuracy: {accuracy:.1%}")


if __name__ == "__main__":
    main()
