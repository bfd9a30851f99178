"""Row generators for every figure and table of the reconstructed evaluation.

Each ``fig*``/``tab*`` function returns a list of dicts (one per printed row)
and is deterministic for fixed arguments.  The pytest-benchmark modules under
``benchmarks/`` print these rows and additionally time the hot kernels; the
measured outputs are recorded in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import io
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.workloads import footprint_breakdown, synthetic_snapshot
from repro.core.codecs import get_transform
from repro.core.policy import EveryKSteps, young_daly_interval
from repro.core.serialize import pack_payload, pack_snapshot, unpack_payload, unpack_snapshot
from repro.core.snapshot import TrainingSnapshot
from repro.core.store import DEFAULT_JOB
from repro.faults.daly import (
    expected_makespan,
    mean_simulated_makespan,
    no_checkpoint_makespan,
)
from repro.faults.harness import run_with_failures
from repro.faults.injector import CrashAtStep, PoissonStepFailures
from repro.ml.catalogue import build_trainer
from repro.ml.trainer import Trainer
from repro.mps.entanglement import entropy_profile
from repro.quantum.haar import haar_state
from repro.quantum.observables import Hamiltonian
from repro.quantum.statevector import apply_circuit, zero_state
from repro.quantum.templates import hardware_efficient
from repro.service.chunkstore import ChunkStore
from repro.service.manager import ServiceCheckpointManager as CheckpointManager
from repro.service.pool import WriterPool
from repro.storage.memory import InMemoryBackend
from repro.storage.simulated import TransferCostModel

#: The small classifier Tab. 3 and Fig. 7 crash and resume (the figures'
#: own values, all given, so a catalogue default never moves a figure).
SMALL_CLASSIFIER = dict(
    qubits=4, layers=2, samples=32, batch_size=4, seed=1234, lr=0.05
)


def _timed(fn, *args, repeat: int = 3):
    """(result, best_seconds) of calling ``fn`` ``repeat`` times."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return result, best


# ---------------------------------------------------------------------------
# Fig. 1 — training-state footprint vs qubit count
# ---------------------------------------------------------------------------


def fig1_footprint(qubit_counts: Sequence[int] = (4, 8, 12, 16, 20)) -> List[Dict]:
    """Raw bytes of each snapshot component; statevector dominates ≳12 qubits."""
    rows = []
    for n in qubit_counts:
        breakdown = footprint_breakdown(n)
        breakdown["statevector_share"] = (
            breakdown["statevector_bytes"] / breakdown["total_bytes"]
        )
        rows.append(breakdown)
    return rows


# ---------------------------------------------------------------------------
# Fig. 2 — checkpoint bytes and latency vs codec
# ---------------------------------------------------------------------------


def fig2_codecs(
    qubit_counts: Sequence[int] = (12, 16),
    codecs: Sequence[str] = ("none", "zlib-1", "zlib-6", "lzma", "bz2"),
    kinds: Sequence[str] = ("haar", "ansatz", "sparse"),
) -> List[Dict]:
    """Pack/unpack latency and compression ratio per codec and state kind.

    Expected shape: byte codecs are near-useless (~1x) on dense amplitude
    data — Haar *and* generic ansatz states alike, since even small
    amplitudes carry full-entropy mantissas — but collapse the exact-zero
    runs of sparse (low-excitation) states by an O(2^n / n) factor.  Lossy
    transforms (Tab. 2) and MPS (Tab. 5) are the tools for the dense case.
    The ``zlib-N`` rows show the codec's probe acting on that: dense states
    are framed as stored DEFLATE blocks (latency near ``none``), sparse ones
    deflated as ever.
    """
    rows = []
    for n in qubit_counts:
        for kind in kinds:
            snapshot = synthetic_snapshot(n, statevector_kind=kind)
            raw = snapshot.nbytes()
            for codec in codecs:
                # The dense-vs-"none" latency asserts of bench_fig2_codecs
                # compare zlib and "none" rows a millisecond apart: best of
                # five for those, the usual three for the slow codecs.
                repeat = 5 if codec == "none" or codec.startswith("zlib") else 3
                data, enc_seconds = _timed(
                    lambda c=codec: pack_snapshot(snapshot, codec=c),
                    repeat=repeat,
                )
                _, dec_seconds = _timed(
                    lambda d=data: unpack_snapshot(d), repeat=repeat
                )
                rows.append(
                    {
                        "n_qubits": n,
                        "state": kind,
                        "codec": codec,
                        "raw_bytes": raw,
                        "stored_bytes": len(data),
                        "ratio": raw / len(data),
                        "encode_s": enc_seconds,
                        "decode_s": dec_seconds,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Tab. 1 — serialization format comparison
# ---------------------------------------------------------------------------


def _npz_roundtrip(tensors: Dict[str, np.ndarray]) -> Tuple[int, float, float]:
    def write() -> bytes:
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **tensors)
        return buffer.getvalue()

    data, write_seconds = _timed(write)

    def read() -> Dict[str, np.ndarray]:
        with np.load(io.BytesIO(data)) as archive:
            return {name: archive[name] for name in archive.files}

    _, read_seconds = _timed(read)
    return len(data), write_seconds, read_seconds


def _json_roundtrip(tensors: Dict[str, np.ndarray]) -> Tuple[int, float, float]:
    def write() -> bytes:
        tree = {}
        for name, array in tensors.items():
            if np.iscomplexobj(array):
                tree[name] = {
                    "re": array.real.tolist(),
                    "im": array.imag.tolist(),
                }
            else:
                tree[name] = array.tolist()
        return json.dumps(tree).encode()

    data, write_seconds = _timed(write, repeat=1)
    _, read_seconds = _timed(lambda: json.loads(data), repeat=1)
    return len(data), write_seconds, read_seconds


def tab1_formats(n_qubits: int = 14) -> List[Dict]:
    """QCKPT vs npz vs JSON text on the same snapshot tensors."""
    snapshot = synthetic_snapshot(n_qubits)
    _, tensors = snapshot.to_payload()
    raw = sum(t.nbytes for t in tensors.values())
    rows = []
    for codec in ("none", "zlib-6"):
        data, write_seconds = _timed(
            lambda c=codec: pack_snapshot(snapshot, codec=c)
        )
        _, read_seconds = _timed(lambda d=data: unpack_snapshot(d))
        rows.append(
            {
                "format": f"qckpt/{codec}",
                "bytes": len(data),
                "ratio": raw / len(data),
                "write_s": write_seconds,
                "read_s": read_seconds,
                "lossless": True,
                "safe_load": True,
                "checksums": True,
            }
        )
    nbytes, write_seconds, read_seconds = _npz_roundtrip(tensors)
    rows.append(
        {
            "format": "npz",
            "bytes": nbytes,
            "ratio": raw / nbytes,
            "write_s": write_seconds,
            "read_s": read_seconds,
            "lossless": True,
            "safe_load": True,
            "checksums": False,
        }
    )
    nbytes, write_seconds, read_seconds = _json_roundtrip(tensors)
    rows.append(
        {
            "format": "json-text",
            "bytes": nbytes,
            "ratio": raw / nbytes,
            "write_s": write_seconds,
            "read_s": read_seconds,
            "lossless": False,
            "safe_load": True,
            "checksums": False,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Fig. 3 — training overhead vs checkpoint interval (sync vs async)
# ---------------------------------------------------------------------------


def fig3_overhead(
    intervals: Sequence[int] = (1, 2, 5, 10, 25),
    n_steps: int = 25,
    n_qubits: int = 10,
) -> List[Dict]:
    """Fraction of wall time spent blocked on checkpointing, per interval."""
    rows = []
    for mode in ("sync", "async"):
        for interval in intervals:
            trainer = build_trainer("vqe", qubits=n_qubits, seed=3)
            store = ChunkStore(InMemoryBackend(), codec="zlib-1")
            pool = WriterPool(1) if mode == "async" else None
            manager = CheckpointManager(
                store,
                channel=pool and pool.channel("default", max_pending=2),
                policy=EveryKSteps(interval),
            )
            started = time.perf_counter()
            trainer.run(n_steps, hooks=[manager])
            manager.close()
            total = time.perf_counter() - started
            if pool:
                pool.close()
            blocked = manager.channel.stats.blocked_seconds
            rows.append(
                {
                    "mode": mode,
                    "interval": interval,
                    "checkpoints": manager.stats.saves,
                    "train_s": total,
                    "blocked_s": blocked,
                    "overhead": blocked / total if total else 0.0,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 — expected makespan vs MTBF
# ---------------------------------------------------------------------------


def fig4_makespan(
    mtbf_hours: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    work_hours: float = 4.0,
    checkpoint_cost_s: float = 30.0,
    restart_cost_s: float = 120.0,
    mc_samples: int = 400,
    seed: int = 11,
) -> List[Dict]:
    """No-checkpoint vs fixed intervals vs Young–Daly, analytic + Monte Carlo."""
    work = work_hours * 3600.0
    rng = np.random.default_rng(seed)
    rows = []
    for mtbf_h in mtbf_hours:
        mtbf = mtbf_h * 3600.0
        strategies = [
            ("none", None),
            ("fixed-10min", 600.0),
            ("fixed-60min", 3600.0),
            ("young-daly", young_daly_interval(checkpoint_cost_s, mtbf)),
        ]
        for name, interval in strategies:
            if interval is None:
                analytic = no_checkpoint_makespan(work, restart_cost_s, mtbf)
            else:
                analytic = expected_makespan(
                    work, interval, checkpoint_cost_s, restart_cost_s, mtbf
                )
            simulated = mean_simulated_makespan(
                work,
                interval,
                checkpoint_cost_s,
                restart_cost_s,
                mtbf,
                rng,
                samples=mc_samples,
            )
            rows.append(
                {
                    "mtbf_h": mtbf_h,
                    "strategy": name,
                    "interval_s": 0.0 if interval is None else interval,
                    "analytic_h": analytic / 3600.0,
                    "simulated_h": simulated / 3600.0,
                    "slowdown": analytic / work,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Tab. 2 — lossy statevector compression
# ---------------------------------------------------------------------------


def tab2_lossy(
    qubit_counts: Sequence[int] = (10, 14),
    transforms: Sequence[str] = ("identity", "c64", "f16-pair", "int8-block"),
    seed: int = 5,
) -> List[Dict]:
    """Size ratio, fidelity, and observable drift per lossy transform."""
    rows = []
    rng = np.random.default_rng(seed)
    for n in qubit_counts:
        state = haar_state(n, rng)
        hamiltonian = Hamiltonian.transverse_field_ising(n, 1.0, 0.8)
        exact_energy = hamiltonian.expectation(state)
        raw = state.nbytes
        for name in transforms:
            data = pack_payload(
                {"kind": "bench"},
                {"statevector": state},
                codec="zlib-1",
                transforms={"statevector": name},
            )
            _, tensors = unpack_payload(data)
            restored = tensors["statevector"]
            fidelity = float(abs(np.vdot(state, restored)) ** 2)
            energy_drift = abs(hamiltonian.expectation(restored) - exact_energy)
            rows.append(
                {
                    "n_qubits": n,
                    "transform": name,
                    "stored_bytes": len(data),
                    "ratio": raw / len(data),
                    "fidelity": fidelity,
                    "infidelity": max(0.0, 1.0 - fidelity),
                    "energy_drift": energy_drift,
                    "lossy": get_transform(name).lossy,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 5 — content-addressed dedup vs full checkpoint bytes over a run
# ---------------------------------------------------------------------------


def _fig5_series(trainer: Trainer, workload: str, n_steps: int) -> List[Dict]:
    store = ChunkStore(InMemoryBackend(), codec="zlib-6")
    manager = CheckpointManager(store)
    rows = []
    cumulative_dedup = 0
    cumulative_full_mode = 0
    for _ in range(n_steps):
        trainer.run(1, hooks=[manager])
        record = manager.stats.last_record
        # What this save added: its new chunks and its manifest.
        nbytes = record.physical_bytes + store.backend.size(record.object_name)
        full_equivalent = len(pack_snapshot(trainer.capture(), codec="zlib-6"))
        cumulative_dedup += nbytes
        cumulative_full_mode += full_equivalent
        rows.append(
            {
                "workload": workload,
                "step": trainer.step_count,
                "new_blocks": record.n_new_blocks,
                "bytes": nbytes,
                "full_equivalent": full_equivalent,
                "cum_dedup": cumulative_dedup,
                "cum_full_mode": cumulative_full_mode,
                "savings": 1.0 - cumulative_dedup / cumulative_full_mode,
            }
        )
    return rows


def fig5_dedup(
    n_steps: int = 30,
    n_qubits: int = 10,
    seed: int = 7,
) -> List[Dict]:
    """Cumulative bytes written: chunk-store dedup vs full-every-step.

    Two workloads bracket the crossover the figure demonstrates:

    * ``classifier`` — no statevector cache; the snapshot is dominated by
      step-invariant blocks (the sampler permutation) that every save after
      the first references instead of rewriting, so dedup wins;
    * ``vqe+sv`` — the 2^n statevector cache changes entirely every step, so
      every block is new and dedup buys nothing.

    Dedup is a *classical-state* optimization: capture of the quantum cache
    defeats it.  The classifier series models a run resumed mid-training
    (300 accumulated loss entries, 4096-sample dataset).  An XOR codec
    against the job's previous blocks saved under 1% more chunk bytes on
    these workloads, which is why no delta encoding is written.
    """
    classifier = build_trainer(
        "classifier", qubits=min(n_qubits, 8), layers=2, samples=4096,
        batch_size=8, seed=seed, lr=0.05,
    )
    # As if resumed at step 300: the history is live classical state the
    # snapshot must carry.
    history_rng = np.random.default_rng(seed)
    classifier.loss_history = [
        float(x) for x in 1.0 + 0.01 * history_rng.standard_normal(300).cumsum()
    ]
    classifier.step_count = 300
    rows = _fig5_series(classifier, "classifier", n_steps)
    vqe = build_trainer("vqe", qubits=n_qubits, seed=seed)
    rows += _fig5_series(vqe, "vqe+sv", n_steps)
    return rows


# ---------------------------------------------------------------------------
# Fig. 6 — recovery time vs size and objects per restore
# ---------------------------------------------------------------------------

#: Chunk sizes Fig. 6 sweeps: smaller blocks, more objects per restore.
FIG6_BLOCK_BYTES = (64 << 10, 16 << 10, 4 << 10)


def fig6_recovery(
    qubit_counts: Sequence[int] = (8, 12, 14),
    seed: int = 3,
) -> List[Dict]:
    """Restore latency as the statevector grows and as the chunk store
    splits it into more, smaller objects."""
    rows = []
    for n in qubit_counts:
        snapshot = synthetic_snapshot(n, seed=seed)
        for block_bytes in FIG6_BLOCK_BYTES:
            backend = InMemoryBackend()
            store = ChunkStore(backend, codec="zlib-1", block_bytes=block_bytes)
            store.save_snapshot(DEFAULT_JOB, snapshot)
            _, load_seconds = _timed(lambda: store.load_snapshot(DEFAULT_JOB))
            backend.reset_counters()
            _, partial_seconds = _timed(
                lambda: store.load_tensors(DEFAULT_JOB, None, ["params"])
            )
            partial_bytes = backend.bytes_read // 3  # _timed repeats 3x
            rows.append(
                {
                    "n_qubits": n,
                    "block_KiB": block_bytes >> 10,
                    "objects": len(store.plan_restore(DEFAULT_JOB).objects),
                    "stored_bytes": store.total_physical_bytes(),
                    "restore_s": load_seconds,
                    "params_only_s": partial_seconds,
                    "params_only_bytes": partial_bytes,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Tab. 3 — exact-resume validation
# ---------------------------------------------------------------------------


def _exactness_case(
    name: str,
    make_trainer,
    crash_step: int,
    target_steps: int,
    checkpoint_every: int,
) -> Dict:
    reference = make_trainer()
    reference.run(target_steps)

    store = ChunkStore(InMemoryBackend())
    result = run_with_failures(
        make_trainer,
        store,
        lambda s: CheckpointManager(s, policy=EveryKSteps(checkpoint_every)),
        target_steps,
        failure_hooks=[CrashAtStep(crash_step)],
    )
    final = store.load_snapshot(DEFAULT_JOB)
    max_param_delta = float(np.max(np.abs(final.params - reference.params)))
    histories_equal = bool(
        np.array_equal(
            final.loss_history, np.asarray(reference.loss_history, dtype=np.float64)
        )
    )
    return {
        "workload": name,
        "crash_step": crash_step,
        "target_steps": target_steps,
        "failures": result.failures,
        "wasted_steps": result.wasted_steps,
        "max_param_delta": max_param_delta,
        "history_equal": histories_equal,
        "bitwise_exact": max_param_delta == 0.0 and histories_equal,
    }


def tab3_exactness() -> List[Dict]:
    """Crash/resume must reproduce the uninterrupted run bitwise."""
    cases = [
        (
            "classifier/exact-grad",
            lambda: build_trainer("classifier", **SMALL_CLASSIFIER),
            7,
            14,
            3,
        ),
        (
            "classifier/1024-shots",
            lambda: build_trainer(
                "classifier",
                **dict(SMALL_CLASSIFIER, qubits=3, samples=24, shots=1024),
            ),
            5,
            10,
            2,
        ),
        ("vqe/adjoint", lambda: build_trainer("vqe", qubits=6, seed=5), 8, 16, 4),
    ]
    return [
        _exactness_case(name, factory, crash, target, every)
        for name, factory, crash, target, every in cases
    ]


# ---------------------------------------------------------------------------
# Fig. 7 — end-to-end training under Poisson failures
# ---------------------------------------------------------------------------


def fig7_end_to_end(
    mtbf_steps: Sequence[float] = (15, 30, 60, 120),
    target_steps: int = 40,
    checkpoint_every: int = 5,
    seed: int = 13,
) -> List[Dict]:
    """Wasted work with and without checkpointing as failures densify."""
    rows = []
    for mtbf in mtbf_steps:
        for strategy in ("checkpoint", "none"):
            store = ChunkStore(InMemoryBackend())
            failure_hook = PoissonStepFailures(
                mtbf_seconds=float(mtbf), seed=seed, fixed_step_seconds=1.0
            )
            manager_factory = (
                (
                    lambda s: CheckpointManager(
                        s, policy=EveryKSteps(checkpoint_every)
                    )
                )
                if strategy == "checkpoint"
                else None
            )
            result = run_with_failures(
                lambda: build_trainer("classifier", **SMALL_CLASSIFIER),
                store,
                manager_factory,
                target_steps,
                failure_hooks=[failure_hook],
                max_failures=2000,
            )
            rows.append(
                {
                    "mtbf_steps": mtbf,
                    "strategy": strategy,
                    "failures": result.failures,
                    "steps_executed": result.steps_executed,
                    "wasted_steps": result.wasted_steps,
                    "waste_fraction": result.wasted_steps
                    / max(result.steps_executed, 1),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Tab. 4 — remote-storage ablation
# ---------------------------------------------------------------------------


def tab4_remote(
    n_qubits: int = 16,
    mtbf_hours: float = 2.0,
    tiers: Optional[Dict[str, TransferCostModel]] = None,
) -> List[Dict]:
    """Checkpoint cost and Young–Daly interval per storage tier."""
    if tiers is None:
        tiers = {
            "local-ssd": TransferCostModel.local_ssd(),
            "datacenter": TransferCostModel.datacenter_object_store(),
            "wan": TransferCostModel.wan_object_store(),
        }
    snapshot = synthetic_snapshot(n_qubits)
    data = pack_snapshot(snapshot, codec="zlib-1")
    nbytes = len(data)
    mtbf = mtbf_hours * 3600.0
    rows = []
    for name, model in tiers.items():
        cost = model.seconds_for(nbytes)
        interval = young_daly_interval(cost, mtbf)
        rows.append(
            {
                "tier": name,
                "bandwidth_MBps": model.bandwidth_bytes_per_s / 1e6,
                "rtt_ms": model.rtt_seconds * 1e3,
                "snapshot_bytes": nbytes,
                "ckpt_cost_s": cost,
                "young_daly_interval_s": interval,
                "ckpts_per_hour": 3600.0 / interval if interval > 0 else 0.0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Tab. 5 — MPS vs dense quantization (structure-aware compression ablation)
# ---------------------------------------------------------------------------


def _tab5_state(family: str, n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """State families spanning the entanglement axis of Tab. 5."""
    if family == "product":
        state = zero_state(n_qubits)
        # A local rotation on each qubit keeps it product but non-trivial.
        circuit = hardware_efficient(n_qubits, 0)
        return apply_circuit(circuit, 0.3 * rng.standard_normal(circuit.n_params))
    if family == "shallow":
        circuit = hardware_efficient(n_qubits, 1)
        return apply_circuit(circuit, 0.2 * rng.standard_normal(circuit.n_params))
    if family == "deep":
        circuit = hardware_efficient(n_qubits, 6)
        return apply_circuit(circuit, 0.5 * rng.standard_normal(circuit.n_params))
    if family == "haar":
        return haar_state(n_qubits, rng)
    raise ValueError(f"unknown state family {family!r}")


def tab5_mps(
    n_qubits: int = 12,
    families: Sequence[str] = ("product", "shallow", "deep", "haar"),
    transforms: Sequence[str] = ("identity", "f16-pair", "mps-8", "mps-32"),
    seed: int = 17,
) -> List[Dict]:
    """Stored bytes and fidelity of MPS vs dense lossy transforms.

    Expected shape: MPS beats every dense quantizer on low-entanglement
    states (product/shallow) by an entanglement-dependent factor while
    staying near-exact; on Haar states the bond cap destroys fidelity and
    dense quantization wins — structure-aware compression is workload-aware,
    not universal.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for family in families:
        state = _tab5_state(family, n_qubits, rng)
        mean_entropy = float(np.mean(entropy_profile(state)))
        for name in transforms:
            data = pack_payload(
                {"kind": "bench"},
                {"statevector": state},
                codec="zlib-1",
                transforms={"statevector": name},
            )
            _, tensors = unpack_payload(data)
            fidelity = float(abs(np.vdot(state, tensors["statevector"])) ** 2)
            rows.append(
                {
                    "family": family,
                    "mean_entropy_bits": mean_entropy,
                    "transform": name,
                    "stored_bytes": len(data),
                    "ratio": state.nbytes / len(data),
                    "fidelity": fidelity,
                    "infidelity": max(0.0, 1.0 - fidelity),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Tab. 6 — redundancy ablation: replication and tiering vs checkpoint cost
# ---------------------------------------------------------------------------


def tab6_redundancy(
    n_qubits: int = 14,
    mtbf_hours: float = 2.0,
) -> List[Dict]:
    """Measured checkpoint/restore cost per redundancy configuration.

    Costs come from the simulated-transfer accounting of actual backend
    stacks (not closed-form guesses): replication pays the slowest replica
    when writes fan out in parallel; write-through tiering pays the slow
    tier on write but restores at fast-tier speed; write-back tiering
    checkpoints at fast-tier speed and defers the slow-tier copy off the
    critical path.  The Young–Daly interval then prices each configuration.
    """
    from repro.storage.replicated import ReplicatedBackend
    from repro.storage.simulated import SimulatedRemoteBackend
    from repro.storage.tiered import TieredBackend

    snapshot = synthetic_snapshot(n_qubits)
    data = pack_snapshot(snapshot, codec="zlib-1")
    nbytes = len(data)
    mtbf = mtbf_hours * 3600.0
    rows = []

    def young_daly_row(config, write_s, restore_s, durability):
        interval = young_daly_interval(write_s, mtbf)
        return {
            "config": config,
            "snapshot_bytes": nbytes,
            "write_s": write_s,
            "restore_s": restore_s,
            "young_daly_interval_s": interval,
            "durability": durability,
        }

    # Single-backend baselines.
    for name, model in (
        ("local-ssd", TransferCostModel.local_ssd()),
        ("datacenter", TransferCostModel.datacenter_object_store()),
    ):
        backend = SimulatedRemoteBackend(model)
        backend.write("ckpt", data)
        write_s = backend.last_transfer_seconds
        backend.read("ckpt")
        rows.append(
            young_daly_row(name, write_s, backend.last_transfer_seconds, "single")
        )

    # 3-way replication across datacenter-class stores: parallel fan-out
    # pays the slowest replica; restore reads one replica.
    replicas = [
        SimulatedRemoteBackend(TransferCostModel.datacenter_object_store())
        for _ in range(3)
    ]
    replicated = ReplicatedBackend(replicas)
    replicated.write("ckpt", data)
    parallel_write = max(r.last_transfer_seconds for r in replicas)
    replicated.read("ckpt")
    restore_s = replicas[0].last_transfer_seconds
    rows.append(
        young_daly_row("replicated-3x", parallel_write, restore_s, "3 domains")
    )

    # Tiering: local SSD in front of the datacenter store.
    for policy, durability in (
        ("write-through", "2 tiers"),
        ("write-back", "fast tier until flush"),
    ):
        fast = SimulatedRemoteBackend(TransferCostModel.local_ssd())
        slow = SimulatedRemoteBackend(TransferCostModel.datacenter_object_store())
        tiered = TieredBackend(fast, slow, 1 << 30, policy=policy)
        tiered.write("ckpt", data)
        if policy == "write-through":
            write_s = max(fast.last_transfer_seconds, slow.last_transfer_seconds)
        else:
            write_s = fast.last_transfer_seconds  # flush is off-critical-path
        tiered.read("ckpt")  # fast hit
        hit_s = fast.last_transfer_seconds
        rows.append(
            young_daly_row(f"tiered/{policy}", write_s, hit_s, durability)
        )

    # Tiered restore after losing the fast tier (cold miss + promotion).
    fast = SimulatedRemoteBackend(TransferCostModel.local_ssd())
    slow = SimulatedRemoteBackend(TransferCostModel.datacenter_object_store())
    slow.write("ckpt", data)
    tiered = TieredBackend(fast, slow, 1 << 30)
    tiered.read("ckpt")
    miss_s = slow.last_transfer_seconds + fast.last_transfer_seconds
    rows.append(
        {
            "config": "tiered/cold-miss",
            "snapshot_bytes": nbytes,
            "write_s": float("nan"),
            "restore_s": miss_s,
            "young_daly_interval_s": float("nan"),
            "durability": "restore path only",
        }
    )
    return rows
