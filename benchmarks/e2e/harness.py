"""What the four workloads share: the store policy, seeded schedules and the
bitwise comparisons of the correctness gate."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.snapshot import tree_equal
from repro.quantum import kernels
from repro.service.chunkstore import ChunkStore
from repro.storage.local import LocalDirectoryBackend
from repro.storage.metadb import metadb_for_dir

from probes import Recorder, StoreProbe, backend_probe, metadb_probe

#: The flush policy of every store the benchmark opens.  It is recorded in
#: every result file and never varies between runs; compare.py refuses to
#: compare files whose policy differs.
STORE_POLICY = {
    "backend": "LocalDirectoryBackend",
    "fsync": True,
    "codec": "zlib-6",
    "block_bytes": 1 << 16,
    "metadb": True,
}


def open_store(directory, rec: Recorder, corrupt: bool = False) -> StoreProbe:
    """Open (or reopen) the chunk store over ``directory``.

    Nothing but the bytes on disk carries over from an earlier open: the
    backend, the metadata index connection and the store's dedup map are all
    rebuilt here, and the whole of it is timed as the store's reopen cost
    (and charged to restoring: reopening is the first step of a recovery).
    The stores of one run share one metrics registry, so the program's own
    counters add up across reopens.
    """
    with rec.op("restore"), rec.timed("service.chunkstore.reopen"):
        backend = LocalDirectoryBackend(directory, fsync=STORE_POLICY["fsync"])
        metadb = metadb_for_dir(directory, enabled=STORE_POLICY["metadb"])
        if rec.tracing:
            backend = backend_probe(backend, rec)
            metadb = metadb_probe(metadb, rec)
        store = ChunkStore(
            backend,
            codec=STORE_POLICY["codec"],
            block_bytes=STORE_POLICY["block_bytes"],
            metadb=metadb,
            metrics=rec.registry,
        )
    return StoreProbe(store, rec, corrupt_restores=corrupt)


def close_store(store) -> None:
    """Release a store's index connection (its fetch threads go with it)."""
    store.metadb.close()


def stored_bytes(store) -> int:
    """Chunk plus manifest bytes the backend holds: what dedup, the codec
    and the manifests together cost on disk."""
    backend = store.backend
    return sum(
        backend.size(name)
        for prefix in ("ch-", "job-")
        for name in backend.list(prefix)
    )


def drop_kernel_caches(rec: Recorder) -> None:
    """Drop the engine's gate-matrix caches, after adding their hits and
    misses to the recorder's counts (clearing resets the caches' own
    counters, hence the running sum)."""
    info = kernels.cache_info()["matrix"]
    rec.count("kernel_cache.hits", info["hits"])
    rec.count("kernel_cache.misses", info["misses"])
    kernels.clear_caches()


def stratified_gaps(
    rng: np.random.Generator, mean: float, low: int, high: int
) -> Iterator[int]:
    """Endless crash gaps (in steps): exponential with ``mean``, clipped.

    Every block of ten gaps is a seeded permutation of the same ten values
    (the exponential's quantile midpoints), so any two seeds crash equally
    often and only the order differs: goodput then repeats between seeds
    while the crash schedule is still the seed's.
    """
    quantiles = (np.arange(10) + 0.5) / 10.0
    values = np.clip(np.rint(-mean * np.log1p(-quantiles)), low, high)
    return _endless_shuffles(rng, [int(v) for v in values])


def stratified_choices(
    rng: np.random.Generator, mix: Sequence[tuple]
) -> Iterator[str]:
    """Endless op kinds from ``mix`` = ((kind, count-per-block), ...), each
    block a seeded shuffle of exactly those counts."""
    return _endless_shuffles(rng, [kind for kind, count in mix for _ in range(count)])


def _endless_shuffles(rng: np.random.Generator, block: list) -> Iterator:
    while True:
        for index in rng.permutation(len(block)):
            yield block[index]


def same_training_state(trainer, reference) -> bool:
    """Bitwise equality of everything a resumed run must reproduce."""
    return (
        trainer.step_count == reference.step_count
        and tree_equal(trainer.params, reference.params)
        and tree_equal(
            np.asarray(trainer.loss_history), np.asarray(reference.loss_history)
        )
        and tree_equal(
            trainer.optimizer.state_dict(), reference.optimizer.state_dict()
        )
    )
