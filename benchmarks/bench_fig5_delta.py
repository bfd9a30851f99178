"""Fig. 5 — Content-addressed dedup vs full checkpoint bytes over a run.

Reproduced claim: incremental checkpointing is a *classical-state*
optimization.  On the classifier workload (no quantum cache) much of the
snapshot is step-invariant (the sampler permutation), so the chunk store
writes those blocks once and every later save only references them:
cumulative bytes (new chunks + manifests) fall well below full-every-step.
Capturing the 2^n statevector flips the result: the cache changes entirely
every step, every block is new, and dedup buys nothing.
Kernel timed: one chunk-store save of a consecutive-step classifier
snapshot (its unchanged blocks dedup against the previous save).
"""

from repro.bench.experiments import fig5_dedup
from repro.bench.reporting import format_table
from repro.ml.catalogue import build_trainer
from repro.service.chunkstore import ChunkStore
from repro.storage.memory import InMemoryBackend


def test_fig5_dedup(benchmark, report):
    rows = fig5_dedup(n_steps=20, n_qubits=8)
    report(
        "Fig. 5 — cumulative checkpoint bytes: dedup vs full-every-step",
        format_table(rows),
    )

    by_workload = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)

    # Classical-state workload: dedup cuts cumulative bytes by >2x.
    classical = by_workload["classifier"][-1]
    assert classical["cum_dedup"] < classical["cum_full_mode"] / 2

    # Statevector capture defeats dedup (every block is new each step).
    quantum = by_workload["vqe+sv"][-1]
    assert quantum["cum_dedup"] > quantum["cum_full_mode"] * 0.9

    trainer = build_trainer(
        "classifier",
        qubits=8,
        layers=2,
        samples=256,
        batch_size=8,
        seed=7,
        lr=0.05,
    )
    trainer.run(5)
    previous = trainer.capture()
    trainer.run(1)
    current = trainer.capture()

    def store_holding_previous():
        store = ChunkStore(InMemoryBackend())
        store.save_snapshot("default", previous)
        return (store,), {}

    benchmark.pedantic(
        lambda store: store.save_snapshot("default", current),
        setup=store_holding_previous,
        rounds=20,
    )
