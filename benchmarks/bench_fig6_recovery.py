"""Fig. 6 — Recovery latency vs checkpoint size and delta-chain length.

Reproduced claim: restore time scales with statevector bytes and linearly
with chain length (each link is one object read + XOR apply), motivating the
bounded ``full_every`` cadence.  Partial (params-only) restore sidesteps the
statevector entirely: ranged reads against the tensor directory transfer a
near-constant few KB regardless of qubit count.
Kernel timed: restoring a chain-of-4 at 12 qubits.
"""

from repro.bench.experiments import fig6_recovery
from repro.bench.reporting import format_table
from repro.bench.workloads import synthetic_snapshot
from repro.core.store import CheckpointStore
from repro.storage.memory import InMemoryBackend


def test_fig6_recovery(benchmark, report):
    rows = fig6_recovery(qubit_counts=(8, 12, 14), chain_lengths=(1, 4, 8))
    report("Fig. 6 — restore latency vs size and chain length", format_table(rows))

    by_key = {(r["n_qubits"], r["chain_len"]): r for r in rows}
    # longer chains never restore faster (same size class)
    assert by_key[(14, 8)]["restore_s"] >= by_key[(14, 1)]["restore_s"] * 0.8
    # bigger states never restore faster (same chain class)
    assert by_key[(14, 1)]["restore_s"] >= by_key[(8, 1)]["restore_s"] * 0.8
    # params-only restore transfers a tiny, statevector-independent volume
    assert by_key[(14, 1)]["params_only_bytes"] < (
        by_key[(14, 1)]["stored_bytes"] / 20
    )
    assert by_key[(14, 1)]["params_only_bytes"] < (
        by_key[(8, 1)]["params_only_bytes"] * 3
    )

    store = CheckpointStore(InMemoryBackend())
    snapshot = synthetic_snapshot(12)
    record = store.save_full(snapshot, codec="zlib-1")
    for i in range(3):
        nxt = snapshot.copy()
        nxt.step += i + 1
        nxt.params = nxt.params + 1e-3
        record = store.save_delta(nxt, record.ckpt_id, codec="zlib-1")
        snapshot = nxt
    benchmark(store.load_snapshot, "default", record.ckpt_id)
