"""Fleet-scale checkpoint service benchmark (the service-layer acceptance run).

Eight experiments, all written to ``BENCH_fleet.json`` at the repo root:

1. **8-job sweep + preemption storm** — a learning-rate sweep of identical
   architecture/seed classifier trainings checkpoints every step through the
   shared chunk store while a storm at mid-run kills every job; measures the
   cross-job dedup ratio (sweep jobs share their initial checkpoint, sampler
   permutations, and resume saves), recovered-work ratio, shard balance, and
   verifies every job restores *bitwise-identically* from the store.

2. **Writer-pool throughput scaling** — pushes identical volumes of unique
   snapshots from 8 jobs through pools of 1/2/4 workers against a
   store with remote-object-store write latency (the paper's deployment
   target).  Checkpoint writes are latency-dominated, so pool workers
   overlap them regardless of core count; pack CPU (sha256 + zlib, both
   GIL-releasing) additionally overlaps where cores allow.

3. **Restore-latency sweep** — the read-path acceptance run for the unified
   restore pipeline: full cold restore vs parameters-only warm start vs
   tier-warm full restore out of a tiered store whose slow tier carries a
   modelled object-store cost (RTT + bandwidth).  Parameters-only must
   fetch a small fraction of the bytes; the tier-warm restore must beat the
   cold one because the first restore promoted what it touched.

4. **Daemon churn** — the long-running daemon absorbing two waves of job
   submissions (each wave led by a priority-3 job whose weighted share
   must measurably skew tick allocation), a mid-run preemption of the
   whole fleet, reincarnation with staged (prefetched) restores, and a
   clean drain.

5. **Control plane** — Unix socket vs TCP listener: request round-trip
   latency (ping) and submit throughput while poller threads hammer
   ``status`` (the monitoring-storm regime a sweep dashboard creates).

6. **Fault storm** — a repeating transient-fault window over the store's
   write and read paths (``FlakyBackend.arm_schedule``).  Unretried, the
   storm fails a measurable fraction of checkpoint saves; behind
   ``ReliableBackend`` + ``RetryPolicy`` every op completes, and the added
   latency is exactly the policy's deterministic backoff (recorded, not
   slept) — recovered-op rate and added p50/p90/max latency per save.

7. **Observability overhead** — the identical CPU-bound save workload
   (pool + chunk store, zlib pack, no artificial latency) run fully
   instrumented (live ``MetricsRegistry`` + an installed trace sink
   recording every span) vs fully disabled (``enabled=False`` registry,
   no sink).  Best-of-N wall time per leg; the instrumented/disabled
   ratio must stay ≤ 1.05 — telemetry may not tax the hot path.

8. **Metadata index** — discovery-path latency on synthetic on-disk
   stores of 1k and 10k manifest objects: per-job
   ``latest``/``has_checkpoints`` and fleet ``jobs()`` scanned (no
   index, every probe lists the store) vs indexed (one SQLite point
   query), plus the one-time index build cost and the placement-journal
   open with a 1k-record fold scanned vs suffix-caught-up.  The indexed
   discovery queries on the 10k store must be ≥10x faster than scanning.
"""

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.snapshot import TrainingSnapshot
from repro.errors import TransientStorageError
from repro.faults.injector import PreemptionStorm
from repro.ml.dataset import make_moons
from repro.ml.models import VariationalClassifier, VQEModel
from repro.ml.optimizers import Adam
from repro.ml.trainer import Trainer, TrainerConfig
from repro.quantum.engines import sharding
from repro.quantum.observables import Hamiltonian
from repro.quantum.templates import hardware_efficient
from repro.reliability import RetryPolicy
from repro.service import (
    ChunkStore,
    FleetHarness,
    FleetJobSpec,
    ThrottledBackend,
    WriterPool,
)
from repro.storage.flaky import FlakyBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.reliable import ReliableBackend
from repro.storage.sharded import ShardedBackend

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

# Acceptance targets for the service layer.
DEDUP_TARGET = 1.5
SCALING_TARGET = 1.5  # 4 workers vs 1 against a latency-bound store

N_JOBS = 8
TARGET_STEPS = 4
STORM_TICK = 2


def _sweep_factory(lr: float, seed: int = 11):
    def make() -> Trainer:
        model = VariationalClassifier(hardware_efficient(4, 2))
        dataset = make_moons(256, np.random.default_rng(7))
        return Trainer(
            model,
            Adam(lr=lr),
            dataset=dataset,
            config=TrainerConfig(batch_size=8, seed=seed),
        )

    return make


def _write_json(section: str, payload: dict) -> None:
    rows = {}
    if _JSON_PATH.exists():
        try:
            rows = json.loads(_JSON_PATH.read_text())
        except json.JSONDecodeError:
            rows = {}
    rows[section] = payload
    _JSON_PATH.write_text(json.dumps(rows, indent=2) + "\n")


def test_fleet_sweep_storm_dedup_and_bitwise_recovery(report):
    """8-job lr sweep, storm at mid-run: dedup > 1.5x, bitwise restores."""
    factories = {
        f"sweep{i:02d}": _sweep_factory(0.01 * (1 + i)) for i in range(N_JOBS)
    }
    specs = [
        FleetJobSpec(
            job_id=job_id,
            trainer_factory=factory,
            target_steps=TARGET_STEPS,
            checkpoint_every=1,
            max_pending=4,
        )
        for job_id, factory in factories.items()
    ]
    backend = ShardedBackend([InMemoryBackend() for _ in range(4)])
    store = ChunkStore(backend, block_bytes=4096)
    pool = WriterPool(workers=4)
    harness = FleetHarness(
        store,
        pool,
        specs,
        events=[PreemptionStorm(at_tick=STORM_TICK)],
    )
    started = time.perf_counter()
    result = harness.run()
    pool.close()
    wall = time.perf_counter() - started

    # Every job finished, was preempted once, and recovered.
    assert all(j.final_step == TARGET_STEPS for j in result.jobs.values())
    assert all(j.preemptions == 1 for j in result.jobs.values())
    assert all(j.restores == 1 for j in result.jobs.values())

    # Bitwise recovery: the stored snapshot round-trips through a fresh
    # trainer exactly (params, optimizer moments, RNG, sampler, history).
    for job_id, factory in factories.items():
        snapshot = store.load_snapshot(job_id)
        fresh = factory()
        fresh.restore(snapshot)
        assert fresh.capture() == snapshot, f"{job_id} restore not bitwise"

    dedup = result.dedup_ratio
    per_shard = backend.objects_per_shard("ch-")
    payload = {
        "jobs": N_JOBS,
        "target_steps": TARGET_STEPS,
        "storm_tick": STORM_TICK,
        "wall_seconds": wall,
        "makespan_ticks": result.makespan_ticks,
        "dedup_ratio": dedup,
        "logical_bytes": result.logical_bytes,
        "physical_bytes": result.physical_bytes,
        "manifest_bytes": result.manifest_bytes,
        "recovered_work_ratio": result.recovered_work_ratio,
        "total_lost_steps": result.total_lost_steps,
        "abandoned_saves": sum(
            j.abandoned_saves for j in result.jobs.values()
        ),
        "restore_bitwise": True,
        "chunk_objects_per_shard": {str(k): v for k, v in per_shard.items()},
    }
    _write_json("sweep_storm", payload)

    table = "\n".join(
        [
            f"{'jobs':<26} {N_JOBS}",
            f"{'makespan (ticks)':<26} {result.makespan_ticks}",
            f"{'wall (s)':<26} {wall:.2f}",
            f"{'logical bytes':<26} {result.logical_bytes}",
            f"{'physical bytes':<26} {result.physical_bytes}",
            f"{'cross-job dedup':<26} {dedup:.2f}x",
            f"{'recovered-work ratio':<26} {result.recovered_work_ratio:.3f}",
            f"{'chunks per shard':<26} {sorted(per_shard.values())}",
            f"{'bitwise restores':<26} {N_JOBS}/{N_JOBS}",
        ]
    )
    report("Fleet service: 8-job sweep + preemption storm", table)

    assert dedup > DEDUP_TARGET, (
        f"cross-job dedup {dedup:.2f}x below the {DEDUP_TARGET}x target"
    )
    # Hash routing keeps shards balanced with zero placement state.
    assert min(per_shard.values()) > 0


def _synthetic_snapshots(n_jobs: int, saves_per_job: int, tensor_elems: int):
    """Unique (no-dedup) snapshots: all pool time is pack+write work."""
    rng = np.random.default_rng(0)
    jobs = {}
    for j in range(n_jobs):
        snapshots = []
        for s in range(saves_per_job):
            # Rounded normals: compressible enough that zlib does real work.
            payload = np.round(rng.normal(size=tensor_elems), 2)
            snapshots.append(
                TrainingSnapshot(
                    step=s + 1,
                    params=rng.normal(size=64),
                    optimizer_state={"name": "adam", "t": s},
                    rng_state={"bit_generator": "PCG64", "state": {"s": s}},
                    model_fingerprint=f"scaling-{j}",
                    statevector=None,
                    extra={"payload": payload},
                )
            )
        jobs[f"scale{j:02d}"] = snapshots
    return jobs


def test_writer_pool_throughput_scaling(report):
    """Fleet checkpoint throughput must scale with writer-pool size.

    The store carries a 20 ms per-write latency (a datacenter object store's
    round trip): checkpoint commits are latency-dominated, exactly the
    regime the shared pool exists for.  One worker serializes every round
    trip; four workers keep four in flight.
    """
    write_delay = 0.02
    jobs = _synthetic_snapshots(n_jobs=8, saves_per_job=2, tensor_elems=1 << 14)
    worker_counts = (1, 2, 4)
    rows = {}
    for workers in worker_counts:
        remote = ThrottledBackend(InMemoryBackend())
        remote.write_delay_seconds = write_delay
        store = ChunkStore(remote, codec="zlib-1", block_bytes=1 << 16)
        pool = WriterPool(workers=workers)
        channels = {
            job_id: pool.channel(job_id, max_pending=8) for job_id in jobs
        }
        started = time.perf_counter()
        for job_id, snapshots in jobs.items():
            for snapshot in snapshots:
                channels[job_id].submit(
                    lambda j=job_id, s=snapshot: store.save_snapshot(j, s)
                )
        pool.drain()
        elapsed = time.perf_counter() - started
        pool.close()
        mb = store.stats.logical_bytes / 1e6
        rows[workers] = {
            "seconds": elapsed,
            "mb_per_second": mb / elapsed,
            "checkpoints": store.stats.checkpoints,
            "store_writes": remote.delayed_writes,
        }
    speedup = rows[worker_counts[-1]]["mb_per_second"] / rows[1]["mb_per_second"]

    # Same pool, real gradient work: a parameter-shift VQE trainer whose
    # shifted-batch fan-out rides the shard executor while the writer pool
    # commits its checkpoints.  The in-process and sharded runs must land on
    # bitwise-identical parameters — fan-out is a pure throughput knob.
    # Sized at 12 qubits / 4 layers: below ~10 qubits the in-process batch
    # always wins, so a smaller job cannot say what sharding buys.
    def shift_trainer(shard_workers: int) -> Trainer:
        model = VQEModel(
            hardware_efficient(12, 4),
            Hamiltonian.transverse_field_ising(12, 1.0, 0.7),
            gradient_method="parameter-shift",
        )
        return Trainer(
            model,
            Adam(lr=0.05),
            config=TrainerConfig(seed=7, shard_workers=shard_workers),
        )

    # The two arms take turns step by step, so the box's drift between a
    # fast and a slow mode lands on both; a step's time is its median.
    # Unthrottled store: at 20 ms a write, a save per step (~6 writes)
    # outlasts the step and this row would time the store instead.
    grad_steps = 8
    store = ChunkStore(InMemoryBackend(), codec="zlib-1", block_bytes=1 << 16)
    pool = WriterPool(workers=2)
    arms = {}
    for shard_workers in (0, 2):
        trainer = shift_trainer(shard_workers)
        # Untimed: a fresh shard pool runs its first ~6 steps at half speed
        # (spawn, per-worker compile self-test, first-touch page faults).
        for _ in range(8):
            trainer.train_step()
        job_id = f"grad-{shard_workers}"
        arms[shard_workers] = (trainer, job_id, pool.channel(job_id, 4), [])
    for _ in range(grad_steps):
        for trainer, job_id, channel, step_seconds in arms.values():
            started = time.perf_counter()
            trainer.train_step()
            snapshot = trainer.capture()
            channel.submit(
                lambda j=job_id, s=snapshot: store.save_snapshot(j, s)
            )
            step_seconds.append(time.perf_counter() - started)
    pool.close()
    sharding.shutdown_default()
    grad_rows = {
        str(shard_workers): {
            "ms_per_step": 1e3 * float(np.median(step_seconds)),
            "steps_per_second": 1.0 / float(np.median(step_seconds)),
            "checkpoints": len(store.manifest_names(job_id)),
        }
        for shard_workers, (_, job_id, _, step_seconds) in arms.items()
    }
    assert np.array_equal(arms[0][0].params, arms[2][0].params), (
        "sharded training diverged from in-process training"
    )
    shard_speedup = (
        grad_rows["0"]["ms_per_step"] / grad_rows["2"]["ms_per_step"]
    )

    payload = {
        "jobs": 8,
        "saves_per_job": 2,
        "write_delay_seconds": write_delay,
        "cpu_count": os.cpu_count(),
        "workers": {str(k): v for k, v in rows.items()},
        f"speedup_{worker_counts[-1]}v1": speedup,
        "sharded_gradients": {
            "workload": "12-qubit 4-layer HEA VQE, parameter-shift",
            "steps": grad_steps,
            "cpu_count": os.cpu_count(),
            "shard_workers": grad_rows,
            "speedup_2v0": shard_speedup,
            "parallel_efficiency_2": shard_speedup / 2,
            "bitwise_identical": True,
        },
    }
    _write_json("pool_scaling", payload)

    table = "\n".join(
        [f"{'workers':<10} {'seconds':>10} {'MB/s':>10}"]
        + [
            f"{workers:<10} {row['seconds']:>10.3f} {row['mb_per_second']:>10.1f}"
            for workers, row in rows.items()
        ]
        + [f"{'speedup':<10} {speedup:>21.2f}x ({worker_counts[-1]} vs 1 worker)"]
    )
    report("Fleet service: writer-pool throughput scaling", table)

    assert speedup > SCALING_TARGET, (
        f"pool scaling {speedup:.2f}x below the {SCALING_TARGET}x target"
    )


# ---------------------------------------------------------------------------
# Restore-latency sweep: full vs parameters-only vs tier-warm
# ---------------------------------------------------------------------------

# Parameters-only warm start must fetch at most this fraction of full bytes.
PARAMS_FETCH_FRACTION = 0.2
# The tier-warm restore must cost at most this fraction of the cold one in
# modelled transfer seconds (it should be near zero: everything is resident).
TIER_WARM_FRACTION = 0.5


def _restore_workload_snapshot(step: int) -> TrainingSnapshot:
    """One checkpoint with a fat statevector cache and small parameters."""
    rng = np.random.default_rng(100 + step)
    elems = 1 << 15  # 512 KiB of complex128 warm-start cache
    return TrainingSnapshot(
        step=step,
        params=rng.standard_normal(96),
        optimizer_state={"name": "adam", "t": step, "m": rng.standard_normal(96)},
        rng_state={"bit_generator": "PCG64", "state": {"state": step}},
        model_fingerprint="restore-sweep",
        loss_history=rng.standard_normal(step),
        statevector=rng.standard_normal(elems) + 1j * rng.standard_normal(elems),
    )


def test_restore_latency_sweep(report):
    """Full vs parameters-only vs tier-warm restore through the pipeline."""
    from repro.storage.simulated import SimulatedRemoteBackend, TransferCostModel
    from repro.storage.tiered import TieredBackend

    # Slow tier: datacenter object store (10 ms RTT, 200 MB/s); fast tier:
    # local memory.  Restore cost is the *modelled* transfer time, so the
    # sweep is deterministic across machines.
    def remote():
        return SimulatedRemoteBackend(
            TransferCostModel(bandwidth_bytes_per_s=200e6, rtt_seconds=0.01)
        )

    slow = remote()
    write_tier = TieredBackend(
        InMemoryBackend(), slow, fast_capacity_bytes=1 << 24
    )
    store = ChunkStore(write_tier, block_bytes=1 << 16)
    for step in (1, 2, 3):
        store.save_snapshot("sweep", _restore_workload_snapshot(step))
    reference = _restore_workload_snapshot(3)

    def cold_store():
        """Fresh tier over the same slow store; returns the modelled cost
        of the open-time manifest/adoption scan alongside the store."""
        tier = TieredBackend(
            InMemoryBackend(), slow, fast_capacity_bytes=1 << 24
        )
        slow.reset_accounting()
        fresh = ChunkStore(tier, block_bytes=1 << 16)
        adopt = slow.simulated_seconds
        slow.reset_accounting()
        return tier, fresh, adopt

    rows = {}

    # 1. cold full restore: every chunk comes over the modelled wire.
    tier, fresh, adopt_seconds = cold_store()
    started = time.perf_counter()
    snapshot = fresh.load_snapshot("sweep")
    assert snapshot == reference, "cold restore not bitwise"
    cold_plan = fresh.plan_restore("sweep")
    rows["cold_full"] = {
        "modelled_seconds": slow.simulated_seconds,
        "wall_seconds": time.perf_counter() - started,
        "fetch_bytes": cold_plan.fetch_bytes,
        "blocks": cold_plan.n_blocks,
    }

    # 2. tier-warm full restore: the cold restore promoted what it touched.
    slow.reset_accounting()
    started = time.perf_counter()
    snapshot = fresh.load_snapshot("sweep")
    assert snapshot == reference, "tier-warm restore not bitwise"
    rows["tier_warm_full"] = {
        "modelled_seconds": slow.simulated_seconds,
        "wall_seconds": time.perf_counter() - started,
        "fetch_bytes": cold_plan.fetch_bytes,
        "fast_hits": tier.stats.fast_hits,
        "promotions": tier.stats.promotions,
    }

    # 3. parameters-only warm start from a cold tier.
    _, fresh, _ = cold_store()
    slow.reset_accounting()
    started = time.perf_counter()
    _, tensors = fresh.load_tensors("sweep", names=["params"])
    np.testing.assert_array_equal(tensors["params"], reference.params)
    params_plan = fresh.plan_restore("sweep", names=["params"])
    rows["params_only"] = {
        "modelled_seconds": slow.simulated_seconds,
        "wall_seconds": time.perf_counter() - started,
        "fetch_bytes": params_plan.fetch_bytes,
        "blocks": params_plan.n_blocks,
    }

    fraction = rows["params_only"]["fetch_bytes"] / rows["cold_full"]["fetch_bytes"]
    warm_ratio = (
        rows["tier_warm_full"]["modelled_seconds"]
        / rows["cold_full"]["modelled_seconds"]
    )
    payload = {
        "checkpoints": 3,
        "total_stored_bytes": cold_plan.total_stored_bytes,
        "adopt_modelled_seconds": adopt_seconds,
        "params_fetch_fraction": fraction,
        "tier_warm_vs_cold_modelled": warm_ratio,
        **rows,
    }
    _write_json("restore_latency", payload)

    table = "\n".join(
        [f"{'restore':<18} {'modelled (s)':>14} {'bytes':>12} "]
        + [
            f"{name:<18} {row['modelled_seconds']:>14.4f} "
            f"{row['fetch_bytes']:>12}"
            for name, row in rows.items()
        ]
        + [
            f"{'params fraction':<18} {fraction:>14.3f}",
            f"{'warm/cold':<18} {warm_ratio:>14.3f}",
        ]
    )
    report("Fleet service: restore-latency sweep", table)

    assert fraction < PARAMS_FETCH_FRACTION, (
        f"parameters-only restore fetched {fraction:.1%} of the full bytes "
        f"(target < {PARAMS_FETCH_FRACTION:.0%})"
    )
    assert warm_ratio < TIER_WARM_FRACTION, (
        f"tier-warm restore cost {warm_ratio:.1%} of cold "
        f"(target < {TIER_WARM_FRACTION:.0%})"
    )


# ---------------------------------------------------------------------------
# Daemon churn: submissions arriving over time, a storm, a clean drain
# ---------------------------------------------------------------------------

DAEMON_JOBS_PER_WAVE = 3
DAEMON_TARGET_STEPS = 20


DAEMON_LEAD_PRIORITY = 3


def test_daemon_churn_storm_drain(report):
    """The long-running daemon absorbs churn, a storm, and a drain.

    Two waves of submissions (the second arriving while the first runs),
    a fleet-wide preemption with staged restores during the restart delay,
    then a drain that finishes every job.  Every job must complete at its
    target step with its history restorable bitwise from the shared store.

    Each wave's first job carries ``priority=3``: under the weighted
    scheduler it must receive a measurably larger share of training ticks
    and therefore finish ahead of its priority-1 wave-mates.
    """
    import threading

    from repro.service import DaemonClient, DaemonConfig, FleetDaemon

    store = ChunkStore(InMemoryBackend(), block_bytes=4096)
    pool = WriterPool(workers=2)
    import tempfile

    control = tempfile.mkdtemp(prefix="qckpt-daemon-bench-")
    daemon = FleetDaemon(
        store, pool, control, config=DaemonConfig(tick_seconds=0.002)
    )
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    client = DaemonClient(control, timeout=60.0)
    started = time.perf_counter()
    try:
        client.ping()

        def spec(i: int) -> dict:
            # The first job of each wave is the high-priority lead.
            lead = i % DAEMON_JOBS_PER_WAVE == 0
            return {
                "job_id": f"churn{i:02d}",
                "workload": "classifier",
                "target_steps": DAEMON_TARGET_STEPS,
                "priority": DAEMON_LEAD_PRIORITY if lead else 1,
                "params": {
                    "qubits": 3,
                    "layers": 1,
                    "lr": 0.01 * (1 + i),
                    "samples": 32,
                },
            }

        for i in range(DAEMON_JOBS_PER_WAVE):
            assert client.submit(spec(i))["ok"]
        # Let wave 1 make (checkpointed) progress, then preempt every
        # running job — mid-flight, well before their targets.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            jobs = client.status()["jobs"]
            if all((job["step"] or 0) >= 2 for job in jobs.values()):
                break
            time.sleep(0.01)
        storm = client.preempt(None, restart_delay_ticks=5)
        # Wave 2 arrives while wave 1 is down/reincarnating: churn.
        for i in range(DAEMON_JOBS_PER_WAVE, 2 * DAEMON_JOBS_PER_WAVE):
            assert client.submit(spec(i))["ok"]
        status = client.status()
        client.drain(wait=True, timeout=120.0)
    finally:
        thread.join(timeout=30.0)
        pool.close()
    wall = time.perf_counter() - started
    assert not thread.is_alive()

    final = {
        job_id: job
        for job_id, job in daemon._op_status({})["jobs"].items()
    }
    assert len(final) == 2 * DAEMON_JOBS_PER_WAVE
    assert all(job["state"] == "finished" for job in final.values()), final
    assert all(
        job["final_step"] == DAEMON_TARGET_STEPS for job in final.values()
    )
    storm_jobs = [job for job in final.values() if job["preemptions"]]
    assert storm_jobs, "the storm must have preempted wave 1"
    assert all(job["restores"] == 1 for job in storm_jobs)

    # Bitwise: the store's newest checkpoint per job round-trips.
    for job_id in final:
        assert store.load_snapshot(job_id).step == DAEMON_TARGET_STEPS

    # Priority skew: every job ran the same 20 steps, so a larger tick
    # share means finishing *earlier*.  Each wave's priority-3 lead must
    # beat every priority-1 job of its own wave to the finish line, and
    # the leads' mean scheduling rate (steps per tick of presence) must
    # visibly exceed the rank and file's.
    sched = {
        job_id: {
            "priority": job["priority"],
            "ticks_scheduled": job["ticks_scheduled"],
            "finish_tick": job["finish_tick"],
        }
        for job_id, job in final.items()
    }
    for wave in range(2):
        ids = [
            f"churn{i:02d}"
            for i in range(
                wave * DAEMON_JOBS_PER_WAVE, (wave + 1) * DAEMON_JOBS_PER_WAVE
            )
        ]
        lead, others = ids[0], ids[1:]
        for other in others:
            assert final[lead]["finish_tick"] < final[other]["finish_tick"], (
                f"priority-{DAEMON_LEAD_PRIORITY} {lead} "
                f"(tick {final[lead]['finish_tick']}) did not beat "
                f"priority-1 {other} (tick {final[other]['finish_tick']})"
            )

    payload = {
        "sched": sched,
        "lead_priority": DAEMON_LEAD_PRIORITY,
        "jobs": len(final),
        "waves": 2,
        "target_steps": DAEMON_TARGET_STEPS,
        "storm_preempted": sorted(storm.get("preempted", [])),
        "wall_seconds": wall,
        "scheduler_ticks": daemon.tick,
        "requests_served": daemon.requests_served,
        "checkpoints": store.stats.checkpoints,
        "dedup_ratio": store.stats.dedup_ratio,
        "recovered_steps": sum(
            sum(job["resumed_from_steps"]) for job in final.values()
        ),
        "lost_steps": sum(job["lost_steps"] for job in final.values()),
        "all_finished": True,
    }
    _write_json("daemon_churn", payload)

    lead_finish = [
        s["finish_tick"] for s in sched.values() if s["priority"] > 1
    ]
    other_finish = [
        s["finish_tick"] for s in sched.values() if s["priority"] == 1
    ]
    table = "\n".join(
        [
            f"{'jobs (2 waves)':<26} {payload['jobs']}",
            f"{'storm preempted':<26} {len(payload['storm_preempted'])}",
            f"{'wall (s)':<26} {wall:.2f}",
            f"{'scheduler ticks':<26} {daemon.tick}",
            f"{'requests served':<26} {daemon.requests_served}",
            f"{'checkpoints':<26} {payload['checkpoints']}",
            f"{'dedup':<26} {payload['dedup_ratio']:.2f}x",
            f"{'lost steps':<26} {payload['lost_steps']}",
            f"{'pri-3 finish ticks':<26} {sorted(lead_finish)}",
            f"{'pri-1 finish ticks':<26} {sorted(other_finish)}",
        ]
    )
    report("Fleet service: daemon churn + storm + drain", table)


# ---------------------------------------------------------------------------
# Control plane: Unix socket vs TCP listener under a status-polling storm
# ---------------------------------------------------------------------------

CONTROL_PINGS = 50
CONTROL_SUBMIT_JOBS = 6
CONTROL_POLLERS = 3


def test_control_plane_transport_latency(report):
    """The daemon's two listeners, Unix socket and TCP, against one daemon.

    One server serves both, so the comparison isolates the listener:
    (1) round-trip latency of ``ping`` measured per listener, (2)
    submit-to-finished throughput of a wave of 1-step jobs while poller
    threads hammer ``status`` through the same listener — the
    monitoring-storm regime a sweep dashboard creates.  Both must complete
    every operation; the numbers land in ``BENCH_fleet.json`` under
    ``control_plane``, with the ``cpu_count`` they were measured on.
    """
    import tempfile
    import threading

    from repro.service import DaemonClient, DaemonConfig, FleetDaemon

    store = ChunkStore(InMemoryBackend(), block_bytes=4096)
    pool = WriterPool(workers=2)
    control = tempfile.mkdtemp(prefix="qckpt-ctl-bench-")
    daemon = FleetDaemon(
        store,
        pool,
        control,
        config=DaemonConfig(tick_seconds=0.001),
        listen="127.0.0.1:0",
    )
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while daemon.server.port == 0:
        assert time.monotonic() < deadline, "TCP listener never bound"
        time.sleep(0.002)
    clients = {
        "unix": DaemonClient(control, timeout=60.0),
        "tcp": DaemonClient(connect=daemon.listen_address, timeout=60.0),
    }
    rows = {}
    try:
        for name, client in clients.items():
            client.ping()  # warm the path (connect + handshake)

            # 1. round-trip latency
            samples = []
            for _ in range(CONTROL_PINGS):
                started = time.perf_counter()
                assert client.ping()["ok"]
                samples.append(time.perf_counter() - started)
            samples.sort()
            p50 = samples[len(samples) // 2]
            p90 = samples[(len(samples) * 9) // 10]

            # 2. submit throughput under a status-polling storm
            stop = threading.Event()
            polls = [0] * CONTROL_POLLERS

            def poll_loop(slot, poll_client):
                while not stop.is_set():
                    poll_client.status()
                    polls[slot] += 1

            pollers = [
                threading.Thread(
                    target=poll_loop, args=(slot, client), daemon=True
                )
                for slot in range(CONTROL_POLLERS)
            ]
            for poller in pollers:
                poller.start()
            job_ids = [
                f"{name}{i:02d}" for i in range(CONTROL_SUBMIT_JOBS)
            ]
            started = time.perf_counter()
            try:
                for job_id in job_ids:
                    response = client.submit(
                        {
                            "job_id": job_id,
                            "workload": "classifier",
                            "target_steps": 1,
                            "params": {
                                "qubits": 2,
                                "layers": 1,
                                "samples": 16,
                                "batch_size": 4,
                            },
                        }
                    )
                    assert response["ok"], response
                wait_deadline = time.monotonic() + 60.0
                while time.monotonic() < wait_deadline:
                    jobs = client.status()["jobs"]
                    if all(
                        jobs[job_id]["state"] == "finished"
                        for job_id in job_ids
                    ):
                        break
                    time.sleep(0.005)
                else:
                    raise AssertionError(f"{name} submit wave never finished")
            finally:
                stop.set()
                for poller in pollers:
                    poller.join(timeout=10.0)
            elapsed = time.perf_counter() - started
            rows[name] = {
                "ping_p50_ms": p50 * 1e3,
                "ping_p90_ms": p90 * 1e3,
                "submit_wave_seconds": elapsed,
                "submits_per_second": CONTROL_SUBMIT_JOBS / elapsed,
                "status_polls_during_wave": sum(polls),
            }
    finally:
        try:
            clients["unix"].stop(timeout=10.0)
        except Exception:  # noqa: BLE001 - daemon may already be gone
            pass
        for client in clients.values():
            client.close()
        thread.join(timeout=30.0)
        pool.close()

    payload = {
        "cpu_count": os.cpu_count(),
        "pings": CONTROL_PINGS,
        "submit_jobs": CONTROL_SUBMIT_JOBS,
        "pollers": CONTROL_POLLERS,
        "requests_served": daemon.requests_served,
        **rows,
    }
    _write_json("control_plane", payload)

    table = "\n".join(
        [
            f"{'listener':<10} {'p50 (ms)':>10} {'p90 (ms)':>10} "
            f"{'submits/s':>10} {'polls':>7}"
        ]
        + [
            f"{name:<10} {row['ping_p50_ms']:>10.2f} "
            f"{row['ping_p90_ms']:>10.2f} "
            f"{row['submits_per_second']:>10.1f} "
            f"{row['status_polls_during_wave']:>7}"
            for name, row in rows.items()
        ]
    )
    report("Fleet service: control plane (Unix socket vs TCP)", table)

    # Both listeners finished the identical op sequence; the storm was real.
    for name, row in rows.items():
        assert row["status_polls_during_wave"] > 0, f"{name} storm idle"


# ---------------------------------------------------------------------------
# Observability overhead: instrumented vs disabled on the hot save path
# ---------------------------------------------------------------------------

OBS_OVERHEAD_TARGET = 1.05  # instrumented may cost at most 5% wall time
OBS_REPEATS = 5  # best-of-N per leg; min absorbs scheduler noise
OBS_JOBS = 4
OBS_SAVES_PER_JOB = 24  # leg long enough that a scheduler hiccup is < 5%
OBS_SAMPLE_SECONDS = 0.1  # 5-50x the production heartbeat cadence


def _obs_leg(jobs, *, instrumented: bool):
    """One timed run of the save workload, telemetry on or off.

    The instrumented leg is the worst case the telemetry layer presents in
    production: a live registry fed by the pool, channel, and chunk-store
    stats on every save, a trace sink recording a span per submitted
    task (``channel.submit`` captures the ambient context, so each pool
    task emits a ``pool.task``/``store.save`` span pair — each save span
    carrying per-stage profiling attrs), and a background
    :class:`TimeSeriesSampler` writing the registry into a SQLite history
    at ``OBS_SAMPLE_SECONDS`` cadence (well above the production
    heartbeat rate) while the saves run.  The disabled leg routes every
    instrument to the null fast path and installs no sink, so
    ``span_scope`` yields without allocating.
    """
    import tempfile
    from pathlib import Path

    from repro.obs import trace as obs_trace
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.timeseries import TimeSeriesDB, TimeSeriesSampler
    from repro.obs.trace import MemoryTraceSink

    registry = MetricsRegistry(enabled=instrumented)
    sink = MemoryTraceSink(capacity=100_000) if instrumented else None
    previous = obs_trace.set_trace_sink(sink)
    tsdir = tsdb = pump = None
    stop = threading.Event()
    if instrumented:
        tsdir = tempfile.TemporaryDirectory(prefix="qckpt-obs-bench-")
        tsdb = TimeSeriesDB(Path(tsdir.name) / "timeseries.db")
        sampler = TimeSeriesSampler(
            tsdb, registry, interval_seconds=OBS_SAMPLE_SECONDS
        )

        def _pump():
            while not stop.wait(OBS_SAMPLE_SECONDS):
                sampler.sample()

        pump = threading.Thread(target=_pump, daemon=True)
    try:
        store = ChunkStore(
            InMemoryBackend(),
            codec="zlib-1",
            block_bytes=1 << 16,
            metrics=registry,
        )
        pool = WriterPool(workers=2, metrics=registry)
        channels = {
            job_id: pool.channel(job_id, max_pending=8) for job_id in jobs
        }
        if pump is not None:
            pump.start()
        started = time.perf_counter()
        for job_id, snapshots in jobs.items():
            for snapshot in snapshots:
                with obs_trace.span_scope("bench.save", job=job_id):
                    channels[job_id].submit(
                        lambda j=job_id, s=snapshot: store.save_snapshot(j, s)
                    )
        pool.drain()
        elapsed = time.perf_counter() - started
        pool.close()
    finally:
        stop.set()
        if pump is not None:
            pump.join(timeout=10.0)
        obs_trace.set_trace_sink(previous)
    spans = len(sink.records()) if sink is not None else 0
    series = len(registry.snapshot()["series"])
    samples = profiled = 0
    if instrumented:
        sampler.sample()  # terminal sample: short legs still record >= 1
        samples = sampler.samples_taken
        tsdb.close()
        tsdir.cleanup()
        profiled = sum(
            1
            for record in sink.records()
            if record.get("name") == "store.save"
            and record.get("attrs", {}).get("stages")
        )
    return elapsed, spans, series, samples, profiled


def test_obs_overhead(report):
    """Full telemetry must cost ≤5% wall time on the hot save path.

    "Full" includes the observatory: the instrumented leg samples the
    registry into a SQLite time-series history at 50 ms cadence while
    the saves run, and every save span carries per-stage profiling
    attrs.  Identical CPU-bound workload (no artificial store latency —
    latency would hide any overhead), legs interleaved
    instrumented/disabled to share thermal and cache conditions,
    best-of-N minima compared.
    """
    jobs = _synthetic_snapshots(
        n_jobs=OBS_JOBS,
        saves_per_job=OBS_SAVES_PER_JOB,
        tensor_elems=1 << 15,  # 256 KiB payloads: representative checkpoints
    )
    on_times, off_times = [], []
    on_spans = on_series = on_samples = on_profiled = 0
    off_spans = off_series = off_samples = 0
    _obs_leg(jobs, instrumented=True)  # warm-up: imports, allocator, zlib
    for _ in range(OBS_REPEATS):
        elapsed, on_spans, on_series, on_samples, on_profiled = _obs_leg(
            jobs, instrumented=True
        )
        on_times.append(elapsed)
        elapsed, off_spans, off_series, off_samples, _ = _obs_leg(
            jobs, instrumented=False
        )
        off_times.append(elapsed)

    # The instrumented leg really recorded; the disabled leg really didn't.
    total_saves = OBS_JOBS * OBS_SAVES_PER_JOB
    assert on_spans >= total_saves, f"only {on_spans} spans recorded"
    assert on_series > 0, "instrumented registry stayed empty"
    assert on_samples > 0, "timeseries sampler recorded nothing"
    assert on_profiled >= total_saves, (
        f"only {on_profiled} save spans carried stage profiling attrs"
    )
    assert off_spans == 0 and off_series == 0 and off_samples == 0, (
        "disabled leg leaked telemetry"
    )

    # Gate on the best *paired* ratio: leg i instrumented vs leg i
    # disabled ran back to back under the same machine conditions, so a
    # load spike inflates both and divides out; genuine telemetry
    # overhead is present in every instrumented run and survives the
    # min.  (Comparing global minima instead lets one background hiccup
    # during the instrumented half fail a 1-CPU runner spuriously.)
    ratio = min(on / off for on, off in zip(on_times, off_times))
    payload = {
        "jobs": OBS_JOBS,
        "saves_per_job": OBS_SAVES_PER_JOB,
        "repeats": OBS_REPEATS,
        "instrumented_best_seconds": min(on_times),
        "disabled_best_seconds": min(off_times),
        "overhead_ratio": ratio,
        "overhead_target": OBS_OVERHEAD_TARGET,
        "spans_per_instrumented_run": on_spans,
        "series_per_instrumented_run": on_series,
        "timeseries_samples_per_run": on_samples,
        "profiled_save_spans_per_run": on_profiled,
    }
    _write_json("obs_overhead", payload)

    table = "\n".join(
        [
            f"{'saves per leg':<26} {total_saves}",
            f"{'instrumented best (s)':<26} {min(on_times):.4f}",
            f"{'disabled best (s)':<26} {min(off_times):.4f}",
            f"{'overhead ratio':<26} {ratio:.3f} "
            f"(target <= {OBS_OVERHEAD_TARGET})",
            f"{'spans recorded':<26} {on_spans}",
            f"{'series recorded':<26} {on_series}",
            f"{'timeseries samples':<26} {on_samples}",
            f"{'profiled save spans':<26} {on_profiled}",
        ]
    )
    report("Fleet service: observability overhead (on vs off)", table)

    assert ratio <= OBS_OVERHEAD_TARGET, (
        f"telemetry overhead {ratio:.3f}x exceeds the "
        f"{OBS_OVERHEAD_TARGET}x budget"
    )


# ---------------------------------------------------------------------------
# Fault storm: transient-error windows vs the reliability layer
# ---------------------------------------------------------------------------

STORM_JOBS = 4
STORM_SAVES_PER_JOB = 10
STORM_ELEMS = 384  # 3 KiB of params -> a couple of chunks per save

# Repeating transient window: write ordinals 4-5 fail, healing by ordinal 6,
# recurring every 9 ops.  count < max_attempts-1, so the policy always
# out-lasts a window and no op can exhaust.
WRITE_STORM = {"first": 4, "count": 2, "period": 9}
READ_STORM = {"first": 2, "count": 1, "period": 5}


def _storm_snapshots():
    """Unique snapshots per (job, step): every save writes fresh chunks."""
    rng = np.random.default_rng(23)
    jobs = {}
    for j in range(STORM_JOBS):
        jobs[f"storm{j:02d}"] = [
            TrainingSnapshot(
                step=s + 1,
                params=rng.normal(size=STORM_ELEMS),
                optimizer_state={"name": "adam", "t": s},
                rng_state={"seed": 23 + j},
                model_fingerprint=f"storm-{j}",
            )
            for s in range(STORM_SAVES_PER_JOB)
        ]
    return jobs


def _storm_store(retry=None):
    mem = InMemoryBackend()
    flaky = FlakyBackend(mem)
    backend = flaky if retry is None else ReliableBackend(flaky, retry=retry)
    store = ChunkStore(backend, block_bytes=2048, tier_placement=False)
    return mem, flaky, backend, store


def test_fault_storm_retry_recovery(report):
    """Every checkpoint op must complete through a repeating fault storm.

    The same deterministic storm is driven twice: raw (saves fail — proving
    the storm bites) and behind ``ReliableBackend``.  The retried run must
    complete every save and restore bitwise under a read storm, with the
    added latency exactly the policy's jitter-free backoff schedule —
    recorded via the policy's injected sleep, so the bench itself is fast
    and the bound is verified deterministically, not statistically.
    """
    jobs = _storm_snapshots()
    total_saves = STORM_JOBS * STORM_SAVES_PER_JOB

    # Leg 1: no retry layer.  The storm must fail real saves.
    _, flaky, _, store = _storm_store()
    flaky.arm_schedule("write", "error", **WRITE_STORM)
    unretried_failed = 0
    for job_id, snaps in jobs.items():
        for snap in snaps:
            try:
                store.save_snapshot(job_id, snap)
            except TransientStorageError:
                unretried_failed += 1
    assert unretried_failed > 0, "storm never bit the unretried store"

    # Leg 2: identical storm behind the reliability layer.
    sleeps = []
    policy = RetryPolicy(
        max_attempts=4,
        base_delay=0.05,
        multiplier=2.0,
        jitter="none",
        sleep=sleeps.append,
    )
    mem, flaky, backend, store = _storm_store(retry=policy)
    flaky.arm_schedule("write", "error", **WRITE_STORM)
    per_save_added = []
    for job_id, snaps in jobs.items():
        for snap in snaps:
            before = len(sleeps)
            store.save_snapshot(job_id, snap)  # must not raise
            per_save_added.append(sum(sleeps[before:]))
    write_stats = (
        backend.stats.retries,
        backend.stats.recovered_ops,
        backend.stats.exhausted_ops,
    )
    write_ops = len(mem.list(""))  # each op succeeds exactly once

    # Read storm over the restore path: every job must come back bitwise.
    flaky.arm_schedule("read", "error", **READ_STORM)
    for job_id, snaps in jobs.items():
        _, restored, skipped = store.latest_valid(job_id)
        assert skipped == [], f"{job_id} skipped checkpoints: {skipped}"
        assert restored is not None
        assert restored.step == snaps[-1].step
        assert restored.params.tobytes() == snaps[-1].params.tobytes()
    read_retries = backend.stats.retries - write_stats[0]
    read_recovered = backend.stats.recovered_ops - write_stats[1]

    # The storm was absorbed: nothing exhausted, nothing rejected, and the
    # added latency is policy-derived — every recorded pause is one of the
    # policy's jitter-free delays, and no save exceeds the worst case for a
    # single op (a window never spans two ops' full attempt budgets).
    assert backend.stats.exhausted_ops == 0
    assert backend.stats.rejected_ops == 0
    assert write_stats[1] > 0, "write storm never hit the retried run"
    assert read_recovered > 0, "read storm never hit the restores"
    allowed = {policy.delay_for(i) for i in range(policy.max_attempts - 1)}
    assert set(sleeps) <= allowed, f"non-policy pause in {sorted(set(sleeps))}"
    assert max(per_save_added) <= policy.worst_case_delay()

    payload = {
        "jobs": STORM_JOBS,
        "saves": total_saves,
        "write_ops": write_ops,
        "write_storm": WRITE_STORM,
        "read_storm": READ_STORM,
        "unretried_failed_saves": unretried_failed,
        "unretried_save_failure_rate": unretried_failed / total_saves,
        "retried_completed_saves": total_saves,
        "write_retries": write_stats[0],
        "recovered_write_ops": write_stats[1],
        "recovered_write_op_rate": write_stats[1] / write_ops,
        "read_retries": read_retries,
        "recovered_read_ops": read_recovered,
        "exhausted_ops": backend.stats.exhausted_ops,
        "added_latency_total_s": sum(sleeps),
        "added_latency_p50_ms": float(np.percentile(per_save_added, 50)) * 1e3,
        "added_latency_p90_ms": float(np.percentile(per_save_added, 90)) * 1e3,
        "added_latency_max_ms": max(per_save_added) * 1e3,
        "policy": {
            "max_attempts": policy.max_attempts,
            "base_delay": policy.base_delay,
            "multiplier": policy.multiplier,
            "jitter": "none",
            "worst_case_delay_s": policy.worst_case_delay(),
        },
    }
    _write_json("fault_storm", payload)

    table = "\n".join(
        [
            f"{'saves (4 jobs)':<26} {total_saves}",
            f"{'unretried failed saves':<26} {unretried_failed} "
            f"({payload['unretried_save_failure_rate']:.0%})",
            f"{'retried completed':<26} {total_saves} (100%)",
            f"{'recovered write ops':<26} {write_stats[1]}/{write_ops} "
            f"({payload['recovered_write_op_rate']:.0%})",
            f"{'recovered read ops':<26} {read_recovered}",
            f"{'added latency p50 (ms)':<26} "
            f"{payload['added_latency_p50_ms']:.0f}",
            f"{'added latency p90 (ms)':<26} "
            f"{payload['added_latency_p90_ms']:.0f}",
            f"{'added latency max (ms)':<26} "
            f"{payload['added_latency_max_ms']:.0f}",
            f"{'policy worst case (ms)':<26} "
            f"{policy.worst_case_delay() * 1e3:.0f}",
        ]
    )
    report("Fleet service: fault storm through the reliability layer", table)


# ---------------------------------------------------------------------------
# Metadata index: discovery latency, scanned vs indexed
# ---------------------------------------------------------------------------

# (jobs, checkpoints per job): 1k- and 10k-manifest-object stores.
INDEX_STORE_SHAPES = ((100, 10), (200, 50))
INDEX_PROBE_JOBS = 50  # per-job latest/has_checkpoints probes per leg
INDEX_JOURNAL_RECORDS = 1_000
# Indexed discovery on the 10k store must beat scanning by this much.
INDEX_SPEEDUP_TARGET = 10.0


def _write_synthetic_store(
    root: Path, n_jobs: int, ckpts_per_job: int, codec: str
) -> None:
    """``n_jobs * ckpts_per_job`` manifests, written straight to disk.

    The manifests are real (version, codec, tensors/blocks) so both the
    scanning and the reconciling open parse them; the chunks they cite are
    never written because the discovery path under test never reads data.
    """
    from repro.service.chunkstore import MANIFEST_VERSION
    from repro.storage.local import LocalDirectoryBackend

    backend = LocalDirectoryBackend(root, fsync=False)
    for j in range(n_jobs):
        job_id = f"job{j:05d}"
        for seq in range(1, ckpts_per_job + 1):
            manifest = {
                "version": MANIFEST_VERSION,
                "job": job_id,
                "ckpt_id": f"ckpt-{seq:06d}",
                "step": seq,
                "created": 1.0 + j + seq,
                "codec": codec,
                "meta": {},
                "tensors": [
                    {
                        "name": "params",
                        "dtype": "<f8",
                        "shape": [8],
                        "blocks": [
                            {
                                "chunk": f"ch-{j * 1000 + seq:032x}",
                                "raw_nbytes": 64,
                                "stored_nbytes": 64,
                            }
                        ],
                    }
                ],
                "extra": {},
            }
            backend.write(
                f"job-{job_id}-ckpt-{seq:06d}.json",
                json.dumps(manifest, sort_keys=True).encode("utf-8"),
            )


def _probe_discovery(store, job_ids, newest: str) -> float:
    """Wall seconds for the daemon-shaped discovery loop: per-job
    resumability probe + newest checkpoint, then the fleet job list."""
    started = time.perf_counter()
    for job_id in job_ids:
        assert store.has_checkpoints(job_id)
        assert store.latest(job_id) == newest
    assert len(store.jobs()) > 0
    return time.perf_counter() - started


def test_metadata_index_discovery_latency(report, tmp_path):
    """Indexed discovery must beat store scans ≥10x at 10k jobs.

    Without the index every ``latest``/``has_checkpoints`` probe lists the
    store (O(objects) per probe); with it each probe is one SQLite point
    query against the ``.qckpt-meta.db`` sidecar.  Also measured: the
    one-time index build (first indexed open reconciles every manifest),
    the warm reopen (names-only diff), and the placement-journal open with
    a 1k-record history — full file fold vs suffix catch-up from the
    stored high-water mark.
    """
    from repro.storage.local import LocalDirectoryBackend
    from repro.storage.metadb import DB_FILENAME, MetaDB
    from repro.storage.placement import PlacementJournal

    codec = ChunkStore(InMemoryBackend()).codec.name
    rows = {}
    for n_jobs, ckpts_per_job in INDEX_STORE_SHAPES:
        n_objects = n_jobs * ckpts_per_job
        root = tmp_path / f"store-{n_objects}"
        _write_synthetic_store(root, n_jobs, ckpts_per_job, codec)
        newest = f"ckpt-{ckpts_per_job:06d}"
        stride = max(1, n_jobs // INDEX_PROBE_JOBS)
        probes = [f"job{j:05d}" for j in range(0, n_jobs, stride)]
        probes = probes[:INDEX_PROBE_JOBS]

        backend = LocalDirectoryBackend(root, fsync=False)
        started = time.perf_counter()
        scanned = ChunkStore(backend)
        scan_open = time.perf_counter() - started
        scan_probe = _probe_discovery(scanned, probes, newest)

        db_path = root / DB_FILENAME
        started = time.perf_counter()
        db = MetaDB(db_path)
        indexed = ChunkStore(LocalDirectoryBackend(root, fsync=False),
                             metadb=db)
        index_build = time.perf_counter() - started
        indexed_probe = _probe_discovery(indexed, probes, newest)
        db.close()

        started = time.perf_counter()
        reopened = ChunkStore(
            LocalDirectoryBackend(root, fsync=False), metadb=MetaDB(db_path)
        )
        warm_open = time.perf_counter() - started
        assert reopened.jobs() == scanned.jobs()

        rows[str(n_objects)] = {
            "jobs": n_jobs,
            "checkpoints_per_job": ckpts_per_job,
            "probes": len(probes),
            "scan_open_seconds": scan_open,
            "scan_probe_seconds": scan_probe,
            "index_build_seconds": index_build,
            "indexed_probe_seconds": indexed_probe,
            "warm_reopen_seconds": warm_open,
            "probe_speedup": scan_probe / indexed_probe,
        }

    # Placement journal: 1k-record fold, scanned vs suffix catch-up.
    jroot = tmp_path / "journal"
    jbackend = LocalDirectoryBackend(jroot, fsync=False)
    for seq in range(1, INDEX_JOURNAL_RECORDS + 1):
        record = {
            "version": 1,
            "seq": seq,
            "owner": "bench",
            "ts": float(seq),
            "op": "pin",
            "name": f"job-pinned-ckpt-{seq % 40:06d}.json",
        }
        jbackend.write(
            f"plj-{seq:08d}-bench.json",
            json.dumps(record, sort_keys=True).encode("utf-8"),
        )
    started = time.perf_counter()
    PlacementJournal(jbackend, owner="scan", refresh_seconds=0.0)
    journal_scan_open = time.perf_counter() - started
    jdb_path = jroot / DB_FILENAME
    started = time.perf_counter()
    first = PlacementJournal(
        jbackend, owner="build", refresh_seconds=0.0, metadb=MetaDB(jdb_path)
    )
    journal_build_open = time.perf_counter() - started
    first._db.close()
    started = time.perf_counter()
    PlacementJournal(
        jbackend, owner="warm", refresh_seconds=0.0, metadb=MetaDB(jdb_path)
    )
    journal_warm_open = time.perf_counter() - started

    largest = INDEX_STORE_SHAPES[-1][0] * INDEX_STORE_SHAPES[-1][1]
    speedup_10k = rows[str(largest)]["probe_speedup"]
    payload = {
        "probe_jobs": INDEX_PROBE_JOBS,
        "stores": rows,
        "journal_records": INDEX_JOURNAL_RECORDS,
        "journal_scan_open_seconds": journal_scan_open,
        "journal_index_build_open_seconds": journal_build_open,
        "journal_warm_open_seconds": journal_warm_open,
        "speedup_target": INDEX_SPEEDUP_TARGET,
        "probe_speedup_10k": speedup_10k,
    }
    _write_json("metadata_index", payload)

    table = "\n".join(
        [
            f"{'objects':<10} {'scan probe (s)':>15} {'indexed (s)':>12} "
            f"{'speedup':>9} {'build (s)':>10} {'warm (s)':>9}"
        ]
        + [
            f"{n:<10} {row['scan_probe_seconds']:>15.4f} "
            f"{row['indexed_probe_seconds']:>12.4f} "
            f"{row['probe_speedup']:>8.1f}x "
            f"{row['index_build_seconds']:>10.3f} "
            f"{row['warm_reopen_seconds']:>9.3f}"
            for n, row in rows.items()
        ]
        + [
            f"{'journal open (1k records)':<26} "
            f"scan {journal_scan_open:.3f}s   build {journal_build_open:.3f}s"
            f"   warm {journal_warm_open:.3f}s",
        ]
    )
    report("Fleet service: metadata-index discovery latency", table)

    assert speedup_10k >= INDEX_SPEEDUP_TARGET, (
        f"indexed discovery {speedup_10k:.1f}x below the "
        f"{INDEX_SPEEDUP_TARGET}x target on the 10k-job store"
    )
