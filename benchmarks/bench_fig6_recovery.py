"""Fig. 6 — Recovery latency vs checkpoint size and objects per restore.

Reproduced claim: restore time scales with statevector bytes and with the
number of chunk objects a restore fetches (each one a read, a content-address
check and a decode), which is what the chunk store's block size trades
against dedup granularity.  Partial (params-only) restore sidesteps the
statevector entirely: it fetches the manifest and the parameter chunk, a
near-constant few KB regardless of qubit count.
Kernel timed: restoring a 12-qubit checkpoint stored in 4 KiB blocks.
"""

from repro.bench.experiments import fig6_recovery
from repro.bench.reporting import format_table
from repro.bench.workloads import synthetic_snapshot
from repro.service.chunkstore import ChunkStore
from repro.storage.memory import InMemoryBackend


def test_fig6_recovery(benchmark, report):
    rows = fig6_recovery(qubit_counts=(8, 12, 14))
    report(
        "Fig. 6 — restore latency vs size and objects per restore",
        format_table(rows),
    )

    by_key = {(r["n_qubits"], r["block_KiB"]): r for r in rows}
    # more, smaller objects never restore faster (same size class)
    assert by_key[(14, 4)]["objects"] > by_key[(14, 64)]["objects"]
    assert by_key[(14, 4)]["restore_s"] >= by_key[(14, 64)]["restore_s"] * 0.8
    # bigger states never restore faster (same block size)
    assert by_key[(14, 64)]["restore_s"] >= by_key[(8, 64)]["restore_s"] * 0.8
    # params-only restore transfers a tiny, statevector-independent volume
    assert by_key[(14, 64)]["params_only_bytes"] < (
        by_key[(14, 64)]["stored_bytes"] / 20
    )
    assert by_key[(14, 64)]["params_only_bytes"] < (
        by_key[(8, 64)]["params_only_bytes"] * 3
    )

    store = ChunkStore(InMemoryBackend(), codec="zlib-1", block_bytes=4 << 10)
    store.save_snapshot("default", synthetic_snapshot(12))
    benchmark(store.load_snapshot, "default")
