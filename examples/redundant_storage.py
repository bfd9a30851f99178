#!/usr/bin/env python3
"""Checkpoints surviving storage failures: replication, rot, and tiering.

Storage-layer walk-through of the deployment section:

1. a VQE run checkpoints into a chunk store over a 3-way
   :class:`ReplicatedBackend`;
2. one replica dies entirely and another suffers silent bit rot — a scrub
   finds the rotted chunk by its content address, quarantines it, rewrites
   it from the surviving copy, and the run resumes;
3. the same run is repeated against a :class:`TieredBackend` (small fast
   tier over a slow tier) and the fast tier is wiped — restores fall back
   to the slow tier transparently.
"""

import numpy as np

from repro import (
    Adam,
    CheckpointManager,
    ChunkStore,
    EveryKSteps,
    Hamiltonian,
    InMemoryBackend,
    ReplicatedBackend,
    TieredBackend,
    Trainer,
    TrainerConfig,
    VQEModel,
    hardware_efficient,
)
from repro.service.scrub import scrub_store

TOTAL_STEPS = 20
SEED = 31


def build_model() -> VQEModel:
    return VQEModel(
        hardware_efficient(4, 2),
        Hamiltonian.transverse_field_ising(4, 1.0, 0.8),
    )


def train_with(store: ChunkStore, model: VQEModel, steps: int) -> Trainer:
    trainer = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=SEED))
    manager = CheckpointManager(store, policy=EveryKSteps(5))
    trainer.run(steps, hooks=[manager])
    manager.close()
    return trainer


def replicated_scenario(model: VQEModel, reference: np.ndarray) -> None:
    print("=== 3-way replication with quorum reads ===")
    replicas = [InMemoryBackend() for _ in range(3)]
    backend = ReplicatedBackend(replicas, consistency="quorum")
    store = ChunkStore(backend)
    trainer = train_with(store, model, 12)
    print(f"checkpointed through step {trainer.step_count} across 3 replicas")
    params_chunk = store.plan_restore("default").tensors["params"].blocks[0]

    # Disaster strikes: replica 0 is lost, replica 1 rots silently.  With
    # replica 0 gone, byte-voting on the rotted chunk is a 1-vs-1 tie; the
    # chunk's content address breaks it.
    replicas[0]._objects.clear()
    rotten = bytearray(replicas[1].read(params_chunk.object_name))
    rotten[len(rotten) // 2] ^= 0xFF
    replicas[1]._objects[params_chunk.object_name] = bytes(rotten)
    print("replica 0 lost, replica 1 bit-rotted")

    print(scrub_store(backend, repair=True).summary())

    resumed = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=SEED))
    CheckpointManager(ChunkStore(backend)).resume(resumed, required=True)
    resumed_at = resumed.step_count
    resumed.run(TOTAL_STEPS - resumed.step_count)
    assert np.array_equal(resumed.params, reference)
    print(f"resumed from step {resumed_at}; final params match reference\n")


def tiered_scenario(model: VQEModel, reference: np.ndarray) -> None:
    print("=== tiered storage: fast tier loss ===")
    fast, slow = InMemoryBackend(), InMemoryBackend()
    tiered = TieredBackend(fast, slow, fast_capacity_bytes=1 << 20)
    trainer = train_with(ChunkStore(tiered), model, 12)
    print(
        f"checkpointed through step {trainer.step_count}; "
        f"fast tier holds {tiered.fast_bytes_used()} B"
    )

    fast._objects.clear()
    print("fast tier wiped (node-local SSD lost)")

    rebuilt = TieredBackend(InMemoryBackend(), slow, fast_capacity_bytes=1 << 20)
    resumed = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=SEED))
    CheckpointManager(ChunkStore(rebuilt)).resume(resumed, required=True)
    resumed_at = resumed.step_count
    resumed.run(TOTAL_STEPS - resumed.step_count)
    assert np.array_equal(resumed.params, reference)
    print(
        f"resumed from step {resumed_at} via the slow tier "
        f"({rebuilt.stats.fast_misses} miss, {rebuilt.stats.promotions} promotion); "
        "final params match reference"
    )


def main() -> None:
    model = build_model()
    reference = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=SEED))
    reference.run(TOTAL_STEPS)
    print(
        f"reference run: {TOTAL_STEPS} steps, "
        f"energy {model.energy(reference.params):.6f}\n"
    )
    replicated_scenario(model, reference.params)
    tiered_scenario(model, reference.params)


if __name__ == "__main__":
    main()
