"""Fig. 3 — Training overhead vs checkpoint interval (sync vs async).

Reproduced claim: blocked time falls roughly as 1/interval for synchronous
writes, and the asynchronous writer flattens the curve (the training thread
only pays for the snapshot deep copy).
Kernel timed: one synchronous save of an 8-qubit VQE snapshot into an empty
chunk store.
"""

from repro.bench.experiments import fig3_overhead
from repro.bench.reporting import format_table
from repro.ml.catalogue import build_trainer
from repro.service.chunkstore import ChunkStore
from repro.service.manager import ServiceCheckpointManager
from repro.storage.memory import InMemoryBackend


def test_fig3_overhead(benchmark, report):
    rows = fig3_overhead(intervals=(1, 2, 5, 10), n_steps=20, n_qubits=8)
    report("Fig. 3 — checkpoint overhead vs interval", format_table(rows))

    sync = {r["interval"]: r for r in rows if r["mode"] == "sync"}
    # Fewer checkpoints => less blocked time (monotone in interval).
    assert sync[10]["blocked_s"] <= sync[1]["blocked_s"]
    # Checkpoint counts follow the interval.
    assert sync[1]["checkpoints"] == 20 and sync[10]["checkpoints"] == 2

    trainer = build_trainer("vqe", qubits=8, seed=3)
    trainer.run(1)
    snapshot = trainer.capture()
    benchmark(
        lambda: ServiceCheckpointManager(
            ChunkStore(InMemoryBackend(), codec="zlib-1")
        ).save(snapshot)
    )
