"""Tab. 3 — Exact-resume validation (the core guarantee).

Reproduced claim: crash/resume training is *bitwise identical* to an
uninterrupted run — max parameter delta exactly 0.0 and identical loss
histories — across exact-gradient, shot-based, and VQE workloads.
Kernel timed: loading the final checkpoint of the classifier case.
"""

from repro.bench.experiments import SMALL_CLASSIFIER, tab3_exactness
from repro.bench.reporting import format_table
from repro.core.policy import EveryKSteps
from repro.ml.catalogue import build_trainer
from repro.service.chunkstore import ChunkStore
from repro.service.manager import ServiceCheckpointManager
from repro.storage.memory import InMemoryBackend


def test_tab3_exactness(benchmark, report):
    rows = tab3_exactness()
    report("Tab. 3 — exact-resume validation", format_table(rows))

    for row in rows:
        assert row["bitwise_exact"], row
        assert row["max_param_delta"] == 0.0, row

    store = ChunkStore(InMemoryBackend())
    trainer = build_trainer("classifier", **SMALL_CLASSIFIER)
    manager = ServiceCheckpointManager(store, policy=EveryKSteps(5))
    trainer.run(5, hooks=[manager])
    benchmark(store.load_snapshot, "default")
