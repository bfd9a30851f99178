#!/usr/bin/env python3
"""QAOA MaxCut surviving repeated queue preemptions.

The cloud-QPU scenario from the paper's motivation: a QAOA job on a
3-regular graph keeps getting evicted before it finishes (three preemptions),
and only checkpointing lets the optimization accumulate progress across
evictions.  Each "session" is a fresh Trainer — as a new cloud job would be —
that resumes from the store, runs until the next preemption, and dies.

At the end we compare the approximation ratio reached across the preempted
sessions against an uninterrupted reference run: they match exactly, because
resume is bitwise.
"""

import numpy as np
import networkx as nx

from repro import (
    Adam,
    CheckpointManager,
    ChunkStore,
    EveryKSteps,
    InMemoryBackend,
    QAOAMaxCutModel,
    SimulatedFailure,
    Trainer,
    TrainerConfig,
)
from repro.faults import CrashAtStep

TOTAL_STEPS = 60
PREEMPT_AT = (18, 35, 47)  # steps at which the "queue" kills the job
SEED = 2026


def build_model() -> QAOAMaxCutModel:
    graph = nx.random_regular_graph(3, 8, seed=7)
    return QAOAMaxCutModel.from_networkx(graph, n_layers=3)


def make_trainer(model: QAOAMaxCutModel) -> Trainer:
    return Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=SEED))


def main() -> None:
    model = build_model()
    optimum = model.max_cut_brute_force()
    print(f"graph: 8 nodes, 3-regular; exact MaxCut = {optimum:.0f}")

    # Reference: one uninterrupted run.
    reference = make_trainer(model)
    reference.run(TOTAL_STEPS)
    reference_cut = model.expected_cut(reference.params)
    print(
        f"uninterrupted: expected cut {reference_cut:.4f} "
        f"(ratio {reference_cut / optimum:.3f})"
    )

    # Preempted runs: each session is a fresh process image.
    store = ChunkStore(InMemoryBackend())
    sessions = 0
    for preempt_step in PREEMPT_AT:
        sessions += 1
        trainer = make_trainer(model)
        manager = CheckpointManager(store, policy=EveryKSteps(5))
        manager.resume(trainer)
        resumed_at = trainer.step_count
        try:
            trainer.run(
                TOTAL_STEPS - trainer.step_count,
                hooks=[manager, CrashAtStep(preempt_step)],
            )
        except SimulatedFailure:
            print(
                f"session {sessions}: resumed at step {resumed_at}, "
                f"preempted at step {trainer.step_count}"
            )
        finally:
            manager.close()

    # Final session runs to completion.
    sessions += 1
    trainer = make_trainer(model)
    manager = CheckpointManager(store, policy=EveryKSteps(5))
    manager.resume(trainer, required=True)
    resumed_at = trainer.step_count
    trainer.run(TOTAL_STEPS - trainer.step_count, hooks=[manager])
    manager.close()
    print(f"session {sessions}: resumed at step {resumed_at}, finished")

    final_cut = model.expected_cut(trainer.params)
    print(
        f"after {sessions} sessions: expected cut {final_cut:.4f} "
        f"(ratio {final_cut / optimum:.3f})"
    )

    # The checkpointed trajectory is *bitwise* the uninterrupted one.
    assert np.array_equal(trainer.params, reference.params)
    print("preempted parameters are bitwise identical to the reference run")

    rng = np.random.default_rng(99)
    bits, sampled = model.sample_cut(trainer.params, shots=512, rng=rng)
    print(f"best of 512 samples: cut {sampled:.0f} with partition {bits}")


if __name__ == "__main__":
    main()
