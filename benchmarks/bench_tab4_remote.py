"""Tab. 4 — Remote-storage ablation: tiers shift the Young–Daly interval.

Reproduced claim: slower tiers raise the per-checkpoint cost, which raises
the optimal interval as sqrt(cost) — WAN object storage checkpoints ~6x less
often than local SSD for the same snapshot and MTBF.
Kernel timed: a save into an empty chunk store through the simulated
datacenter-tier backend.
"""

from repro.bench.experiments import tab4_remote
from repro.bench.reporting import format_table
from repro.bench.workloads import synthetic_snapshot
from repro.service.chunkstore import ChunkStore
from repro.storage.simulated import SimulatedRemoteBackend, TransferCostModel


def test_tab4_remote(benchmark, report):
    rows = tab4_remote(n_qubits=16, mtbf_hours=2.0)
    report("Tab. 4 — storage tiers and Young–Daly intervals", format_table(rows))

    by_tier = {r["tier"]: r for r in rows}
    assert (
        by_tier["local-ssd"]["ckpt_cost_s"]
        < by_tier["datacenter"]["ckpt_cost_s"]
        < by_tier["wan"]["ckpt_cost_s"]
    )
    assert (
        by_tier["local-ssd"]["young_daly_interval_s"]
        < by_tier["datacenter"]["young_daly_interval_s"]
        < by_tier["wan"]["young_daly_interval_s"]
    )
    assert by_tier["local-ssd"]["ckpts_per_hour"] > by_tier["wan"]["ckpts_per_hour"]

    model = TransferCostModel.datacenter_object_store()
    snapshot = synthetic_snapshot(14)
    benchmark(
        lambda: ChunkStore(
            SimulatedRemoteBackend(model), codec="zlib-1"
        ).save_snapshot("default", snapshot)
    )
