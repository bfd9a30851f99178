"""Fig. 7 — End-to-end training under Poisson failures.

Reproduced claim: as failures densify (MTBF shrinks), the no-checkpoint
baseline's wasted work explodes (it must re-run from step 0) while the
checkpointed run wastes at most one interval per failure.
Kernel timed: a resume (recover latest + trainer restore).
"""

from repro.bench.experiments import SMALL_CLASSIFIER, fig7_end_to_end
from repro.bench.reporting import format_table
from repro.core.policy import EveryKSteps
from repro.ml.catalogue import build_trainer
from repro.service.chunkstore import ChunkStore
from repro.service.manager import ServiceCheckpointManager
from repro.storage.memory import InMemoryBackend


def test_fig7_end_to_end(benchmark, report):
    rows = fig7_end_to_end(
        mtbf_steps=(15, 30, 60, 120), target_steps=40, checkpoint_every=5
    )
    report("Fig. 7 — wasted work under Poisson failures", format_table(rows))

    by_key = {(r["mtbf_steps"], r["strategy"]): r for r in rows}
    for mtbf in (15, 30):
        with_ckpt = by_key[(mtbf, "checkpoint")]
        without = by_key[(mtbf, "none")]
        if without["failures"] > with_ckpt["failures"] > 0:
            assert with_ckpt["waste_fraction"] < without["waste_fraction"]
    # At the harshest MTBF the gap must be decisive.
    assert (
        by_key[(15, "checkpoint")]["waste_fraction"]
        < by_key[(15, "none")]["waste_fraction"]
    )

    store = ChunkStore(InMemoryBackend())
    trainer = build_trainer("classifier", **SMALL_CLASSIFIER)
    manager = ServiceCheckpointManager(store, policy=EveryKSteps(5))
    trainer.run(5, hooks=[manager])

    def resume():
        fresh = build_trainer("classifier", **SMALL_CLASSIFIER)
        return manager.resume(fresh, required=True)

    benchmark(resume)
