"""Substrate microbenchmarks (not a paper figure).

Times the simulation and gradient kernels the experiments above sit on, so
regressions in the quantum substrate are visible next to the storage numbers:
statevector execution, adjoint gradient, shot sampling, and — since the fast
execution engine landed — old-path-vs-engine comparisons for gate application
and parameter-shift gradient throughput.  The comparison rows are also written
to ``BENCH_substrate.json`` at the repo root so the perf trajectory is
tracked across PRs.
"""

import json
import os
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np

from repro.autodiff import adjoint_gradient
from repro.autodiff.parameter_shift import (
    parameter_shift_gradient,
    shift_rule_evaluations,
)
from repro.bench.workloads import gradient_workload, synthetic_snapshot
from repro.core.codecs import get_codec
from repro.ml.catalogue import build_trainer
from repro.quantum.haar import haar_state
from repro.quantum.observables import Hamiltonian
from repro.quantum.sampling import estimate_expectation
from repro.quantum import engines
from repro.quantum.engines import compiled, sharding
from repro.quantum.statevector import apply_circuit, apply_gate, zero_state
from repro.quantum.templates import hardware_efficient, initial_parameters
from repro.service import ChunkStore, WriterPool
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.metadb import DB_FILENAME, MetaDB

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"

# The acceptance target for the engine: >= 3x on a 12-qubit, 4-layer HEA
# parameter-shift gradient versus the seed execution path.
GRAD_SPEEDUP_TARGET = 3.0

# The acceptance target for the compiled kernel tier: >= 2x on the same
# gradient versus the numpy engine path.  Only asserted where a C compiler
# produced a library that passed its bitwise self-test.
TIER_SPEEDUP_TARGET = 2.0


# Paired ceilings for the zlib codec's probe (adaptive / forced level-6, same
# run, same blocks): a dense statevector must cost a small fraction of a
# forced deflate to encode and to decode (measured 0.07 and 0.09), and a
# sparse one, which the probe sends to the same deflate, only the probe on
# top.  Each is written next to its ratio as ``<ratio>_max``, which is what
# ``tools/bench_trend.py`` gates on: one set of ceilings for both.
ENCODE_BYPASS_MAX = {
    "dense": {
        "encode_seconds_ratio": 0.15,
        "decode_seconds_ratio": 0.25,
        "stored_bytes_ratio": 1.07,  # the 2-4% DEFLATE would find
    },
    "sparse": {
        "encode_seconds_ratio": 1.3,
        "stored_bytes_ratio": 1.0,  # same verdict, same bytes
    },
}
# Pairs behind each timing ratio above: a ratio is the median of the
# per-pair ratios, so one slow moment on the box moves one pair, not the
# gate.
ENCODE_BYPASS_PAIRS = 21


# Paired ceiling for a training step's CPU time beside a saturated writer pool
# over the same step alone (``test_step_beside_writers``).  A kernel call that
# releases the interpreter lock hands it to a waiting pool worker and pays a
# futex round trip to get it back: 3.2 when every call released (16.1 / 5.0
# ms), 1.04-1.08 with the compiled tier keeping it.  On the numpy tier no
# small kernel releases the lock and the ratio sits near 1.
CONTENDED_STEP_MAX = 1.6


# Paired ceiling for reopening an indexed store four times the size over
# reopening it as it was, same run (``test_reopen_scaling``): 1 is a reopen
# that does not know how big the store is, 4 one that does nothing but walk
# it.  The sizes (25 and 100 checkpoints, ~150 and ~600 objects) are where the
# two separate: the index's fixed cost (0.8 ms) plus one ``stat``-free pass
# over the names (1.3 us an object) reads 1.3-1.6; a ``stat`` per object, two
# passes and the dedup map loaded on open (12 us an object) read 2.4-2.6.
REOPEN_SCALING_MAX = 2.2

# Ceiling for the bytes allocated, at the peak, to restore one byte
# (``test_restore_allocations``, a count): the fetched blocks, the tensor they
# are decoded into and one block in flight are 2.2; fetched + decoded + joined
# + copied read 4.0.
RESTORE_ALLOC_MAX = 3.0


def _merge_json(update: dict) -> None:
    rows = {}
    if _JSON_PATH.exists():
        try:
            rows = json.loads(_JSON_PATH.read_text())
        except json.JSONDecodeError:
            rows = {}
    rows.update(update)
    _JSON_PATH.write_text(json.dumps(rows, indent=2) + "\n")


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _reference_apply_circuit(circuit, params):
    """The seed execution path: per-gate tensordot with rebuilt matrices."""
    state = zero_state(circuit.n_qubits)
    for op in circuit.ops:
        state = apply_gate(state, op.matrix(params), op.wires, circuit.n_qubits)
    return state


def test_statevector_execution_12q(benchmark):
    circuit = hardware_efficient(12, 4)
    params = initial_parameters(circuit, np.random.default_rng(0))
    state = benchmark(apply_circuit, circuit, params)
    assert np.isclose(np.linalg.norm(state), 1.0)


def test_adjoint_gradient_10q(benchmark):
    circuit = hardware_efficient(10, 4)
    params = initial_parameters(circuit, np.random.default_rng(0))
    hamiltonian = Hamiltonian.transverse_field_ising(10, 1.0, 0.8)
    grads = benchmark(adjoint_gradient, circuit, params, hamiltonian)
    assert grads.shape == params.shape


def test_shot_sampling_12q(benchmark):
    state = haar_state(12, np.random.default_rng(1))
    hamiltonian = Hamiltonian.transverse_field_ising(12, 1.0, 0.8)
    rng = np.random.default_rng(2)
    value = benchmark(estimate_expectation, state, hamiltonian, 1024, rng)
    assert np.isfinite(value)


def test_batched_shift_gradient_12q(benchmark):
    """Throughput of the batched engine gradient itself."""
    circuit, params, hamiltonian = gradient_workload(12, 4)
    grads = benchmark(parameter_shift_gradient, circuit, params, hamiltonian)
    assert grads.shape == params.shape


def test_engine_speedups(report):
    """Old path vs fast engine: gate kernels and gradient throughput.

    Asserts the acceptance target (>= 3x on the 12-qubit, 4-layer HEA
    parameter-shift gradient) and writes every row to BENCH_substrate.json.
    """
    circuit, params, hamiltonian = gradient_workload(12, 4)

    exec_ref, state_ref = _best_of(lambda: _reference_apply_circuit(circuit, params), 3)
    exec_fast, state_fast = _best_of(lambda: apply_circuit(circuit, params), 5)
    assert np.allclose(state_ref, state_fast, atol=1e-12)

    grad_ref, g_ref = _best_of(
        lambda: parameter_shift_gradient(
            circuit, params, hamiltonian, engine="reference"
        ),
        2,
    )
    grad_fast, g_fast = _best_of(
        lambda: parameter_shift_gradient(circuit, params, hamiltonian), 5
    )
    assert np.allclose(g_ref, g_fast, atol=1e-10)

    evaluations = shift_rule_evaluations(circuit)
    rows = {
        "workload": {
            "n_qubits": 12,
            "n_layers": 4,
            "n_params": int(circuit.n_params),
            "n_ops": len(circuit.ops),
            "shift_evaluations": evaluations,
        },
        "execution_seconds": {"reference": exec_ref, "engine": exec_fast},
        "gradient_seconds": {"reference": grad_ref, "engine": grad_fast},
        "speedups": {
            "execution": exec_ref / exec_fast,
            "gradient": grad_ref / grad_fast,
        },
        "gradient_evals_per_second": {
            "reference": evaluations / grad_ref,
            "engine": evaluations / grad_fast,
        },
    }
    _merge_json(rows)

    table = "\n".join(
        [
            f"{'path':<12} {'execute (ms)':>14} {'gradient (ms)':>14} {'evals/s':>10}",
            f"{'reference':<12} {exec_ref * 1e3:>14.2f} {grad_ref * 1e3:>14.1f} "
            f"{evaluations / grad_ref:>10.0f}",
            f"{'engine':<12} {exec_fast * 1e3:>14.2f} {grad_fast * 1e3:>14.1f} "
            f"{evaluations / grad_fast:>10.0f}",
            f"{'speedup':<12} {exec_ref / exec_fast:>13.1f}x "
            f"{grad_ref / grad_fast:>13.1f}x",
        ]
    )
    report("Substrate engine: 12-qubit 4-layer HEA (old path vs fast engine)", table)

    assert grad_ref / grad_fast >= GRAD_SPEEDUP_TARGET, (
        f"gradient speedup {grad_ref / grad_fast:.2f}x below the "
        f"{GRAD_SPEEDUP_TARGET}x acceptance target"
    )


def test_gradient_sharding_sweep(report):
    """Engine tier x shard-worker sweep on the 12-qubit 4-layer gradient.

    Two axes, written to ``BENCH_substrate.json`` under ``gradient_sharding``:

    - tier: the numpy engine vs the compiled kernel tier (skipped rows when
      no compiler is available) — asserts the >= 2x tier acceptance target
      and bitwise-checks every sharded gradient against the single-process
      numpy result of its own tier;
    - workers: 1 (in-process) vs 2 and 4 worker processes, reported as
      evals/s and parallel efficiency.  On a single-core host the fan-out
      rows document the dispatch overhead rather than a speedup, so the
      host's cpu_count rides along in the payload.
    """
    circuit, params, hamiltonian = gradient_workload(12, 4)
    evaluations = shift_rule_evaluations(circuit)
    tiers = ["numpy"] + (["compiled"] if compiled.available() else [])
    worker_counts = (1, 2, 4)

    saved_env = os.environ.get(engines.ENGINE_ENV)
    rows = {}
    try:
        for tier in tiers:
            os.environ[engines.ENGINE_ENV] = tier
            engines.reset_engine()
            sharding.shutdown_default()
            single = parameter_shift_gradient(circuit, params, hamiltonian)
            per_tier = {}
            for workers in worker_counts:
                repeats = 3 if workers == 1 else 2
                seconds, grads = _best_of(
                    lambda w=workers: parameter_shift_gradient(
                        circuit, params, hamiltonian, shard_workers=w
                    ),
                    repeats,
                )
                assert np.array_equal(grads, single), (
                    f"sharded gradient diverged from single-process "
                    f"({tier}, workers={workers})"
                )
                per_tier[str(workers)] = {
                    "seconds": seconds,
                    "evals_per_second": evaluations / seconds,
                }
            base = per_tier["1"]["evals_per_second"]
            for workers in worker_counts[1:]:
                row = per_tier[str(workers)]
                row["parallel_efficiency"] = row["evals_per_second"] / (
                    workers * base
                )
            rows[tier] = per_tier
    finally:
        if saved_env is None:
            os.environ.pop(engines.ENGINE_ENV, None)
        else:
            os.environ[engines.ENGINE_ENV] = saved_env
        engines.reset_engine()
        sharding.shutdown_default()

    payload = {
        "workload": {"n_qubits": 12, "n_layers": 4, "shift_evaluations": evaluations},
        "cpu_count": os.cpu_count(),
        "compiled_available": compiled.available(),
        "compiled_reason": engines.engine_info()["compiled_reason"],
        "tiers": rows,
    }
    if "compiled" in rows:
        payload["tier_speedup"] = (
            rows["compiled"]["1"]["evals_per_second"]
            / rows["numpy"]["1"]["evals_per_second"]
        )
    _merge_json({"gradient_sharding": payload})

    lines = [f"{'tier':<10} {'workers':>8} {'evals/s':>10} {'efficiency':>11}"]
    for tier, per_tier in rows.items():
        for workers in worker_counts:
            row = per_tier[str(workers)]
            eff = row.get("parallel_efficiency")
            lines.append(
                f"{tier:<10} {workers:>8} {row['evals_per_second']:>10.0f} "
                f"{eff:>10.0%}" if eff is not None else
                f"{tier:<10} {workers:>8} {row['evals_per_second']:>10.0f} "
                f"{'—':>11}"
            )
    if "tier_speedup" in payload:
        lines.append(f"compiled-vs-numpy tier speedup: {payload['tier_speedup']:.2f}x")
    report(
        "Gradient sharding: tier x worker sweep (12-qubit 4-layer HEA)",
        "\n".join(lines),
    )

    if "compiled" in rows:
        assert payload["tier_speedup"] >= TIER_SPEEDUP_TARGET, (
            f"compiled tier speedup {payload['tier_speedup']:.2f}x below the "
            f"{TIER_SPEEDUP_TARGET}x acceptance target"
        )


def test_encode_bypass(report):
    """The zlib codec's probe against DEFLATE on every block, paired.

    A 16-qubit statevector (1 MiB) is cut into the chunk store's 64 KiB
    blocks and encoded twice in the same run: through ``get_codec("zlib-6")``
    (probe, then stored or deflated) and through a forced
    ``zlib.compress(block, 6)`` — what every block cost before the probe.
    Dense (Haar) and sparse (low-excitation) states; the ratios adaptive /
    forced for encode seconds, decode seconds and stored bytes go to
    ``BENCH_substrate.json`` under ``encode_bypass`` with their ceilings,
    where ``tools/bench_trend.py`` gates on them (paired ratios hold on
    noisy runners where seconds do not).  Each pair times both sides back
    to back, the side that goes first alternating from pair to pair; a
    timing ratio is the median of the ``ENCODE_BYPASS_PAIRS`` per-pair
    ratios, and the seconds recorded beside it are each side's median.
    """
    codec = get_codec("zlib-6")
    block_bytes = 1 << 16
    payload = {"cpu_count": os.cpu_count(), "block_bytes": block_bytes}
    lines = [
        f"{'state':<8} {'encode ad/forced ms':>20} {'decode ad/forced ms':>20} "
        f"{'enc ratio':>10} {'dec ratio':>10} {'bytes ratio':>12}"
    ]
    for kind in ("haar", "sparse"):
        raw = memoryview(
            synthetic_snapshot(16, statevector_kind=kind).statevector
        ).cast("B")
        blocks = [raw[i : i + block_bytes] for i in range(0, len(raw), block_bytes)]
        encoders = {
            "adaptive": lambda: [codec.encode(block) for block in blocks],
            "forced": lambda: [zlib.compress(block, 6) for block in blocks],
        }
        encoded, decoded = {}, {}
        enc_s = {side: [] for side in encoders}
        dec_s = {side: [] for side in encoders}
        for pair in range(ENCODE_BYPASS_PAIRS):
            order = ("adaptive", "forced")
            if pair % 2:
                order = order[::-1]
            for side in order:
                seconds, encoded[side] = _best_of(encoders[side], 1)
                enc_s[side].append(seconds)
            for side in order:
                seconds, decoded[side] = _best_of(
                    lambda: [codec.decode(chunk) for chunk in encoded[side]], 1
                )
                dec_s[side].append(seconds)
        assert b"".join(decoded["adaptive"]) == raw

        def paired(samples):
            ratios = np.divide(samples["adaptive"], samples["forced"])
            return float(np.median(ratios))

        adaptive_s, forced_s = (float(np.median(enc_s[s])) for s in encoders)
        adaptive_dec_s, forced_dec_s = (
            float(np.median(dec_s[s])) for s in encoders
        )
        row = {
            "adaptive_encode_seconds": adaptive_s,
            "forced_encode_seconds": forced_s,
            "adaptive_decode_seconds": adaptive_dec_s,
            "forced_decode_seconds": forced_dec_s,
            "encode_seconds_ratio": paired(enc_s),
            "decode_seconds_ratio": paired(dec_s),
            "stored_bytes_ratio": sum(map(len, encoded["adaptive"]))
            / sum(map(len, encoded["forced"])),
        }
        name = "dense" if kind == "haar" else kind
        row.update(
            {f"{key}_max": cap for key, cap in ENCODE_BYPASS_MAX[name].items()}
        )
        payload[name] = row
        lines.append(
            f"{kind:<8} {1e3 * adaptive_s:>9.2f}/{1e3 * forced_s:<10.2f} "
            f"{1e3 * adaptive_dec_s:>9.2f}/{1e3 * forced_dec_s:<10.2f} "
            f"{row['encode_seconds_ratio']:>10.3f} "
            f"{row['decode_seconds_ratio']:>10.3f} "
            f"{row['stored_bytes_ratio']:>12.4f}"
        )
    _merge_json({"encode_bypass": payload})
    report("Encode bypass: zlib-6 probe vs forced level-6 (16q, 64 KiB blocks)",
           "\n".join(lines))

    for name, caps in ENCODE_BYPASS_MAX.items():
        for key, cap in caps.items():
            assert payload[name][key] <= cap, (name, key, payload[name][key])


def test_reopen_scaling(report, tmp_path):
    """Reopen of an indexed directory store of 25 checkpoints and of one of
    100, in alternating rounds of one run.

    Each sample is a fresh ``LocalDirectoryBackend`` + ``MetaDB`` +
    ``ChunkStore`` over the directory; each side is the median of 25.  The
    ratio goes to ``BENCH_substrate.json`` as ``reopen_scaling`` beside its
    ceiling, where ``tools/bench_trend.py`` gates on it.
    """
    base, rounds = 25, 25

    def open_store(root):
        return ChunkStore(
            LocalDirectoryBackend(root, fsync=False),
            metadb=MetaDB(root / DB_FILENAME),
        )

    roots = {1: tmp_path / "store1x", 4: tmp_path / "store4x"}
    for scale, root in roots.items():
        writer = open_store(root)
        for saved in range(scale * base):
            writer.save_snapshot(
                f"job{saved % 4}",
                synthetic_snapshot(6, seed=saved, history_len=saved),
            )
        writer.metadb.close()

    samples = {1: [], 4: []}
    for _ in range(rounds):
        for scale, root in roots.items():
            started = time.perf_counter()
            store = open_store(root)
            samples[scale].append(time.perf_counter() - started)
            store.metadb.close()
    seconds = {scale: float(np.median(times)) for scale, times in samples.items()}
    objects = {scale: len(os.listdir(root)) for scale, root in roots.items()}
    payload = {
        "cpu_count": os.cpu_count(),
        "checkpoints": [base, 4 * base],
        "objects": [objects[1], objects[4]],
        "reopen_1x_seconds": seconds[1],
        "reopen_4x_seconds": seconds[4],
        "reopen_seconds_per_object": (seconds[4] - seconds[1])
        / (objects[4] - objects[1]),
        "reopen_scaling": seconds[4] / seconds[1],
        "reopen_scaling_max": REOPEN_SCALING_MAX,
    }
    _merge_json({"reopen_scaling": payload})
    report(
        f"Reopen scaling: indexed directory stores of {base} and {4 * base} checkpoints",
        f"{'1x (ms)':>10} {'4x (ms)':>10} {'us/object':>10} {'ratio':>8} {'ceiling':>8}\n"
        f"{1e3 * seconds[1]:>10.2f} {1e3 * seconds[4]:>10.2f} "
        f"{1e6 * payload['reopen_seconds_per_object']:>10.2f} "
        f"{payload['reopen_scaling']:>8.2f} {REOPEN_SCALING_MAX:>8.2f}",
    )
    assert payload["reopen_scaling"] <= REOPEN_SCALING_MAX, payload


def test_restore_allocations(report, tmp_path):
    """Bytes allocated at the peak of one warm ``latest_valid`` of a 16-qubit
    (1 MiB) snapshot, per byte restored: ``tracemalloc`` around the call, a
    count that repeats, written beside its ceiling like the paired ratios."""
    store = ChunkStore(LocalDirectoryBackend(tmp_path / "store", fsync=False))
    snapshot = synthetic_snapshot(16, seed=3)
    store.save_snapshot("job", snapshot)
    assert store.latest_valid("job")[1] == snapshot  # warm: threads, caches
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        restored = store.latest_valid("job")[1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert restored == snapshot
    payload = {
        "restored_bytes": snapshot.nbytes(),
        "peak_allocated_bytes": peak - before,
        "restore_alloc_bytes_per_byte": (peak - before) / snapshot.nbytes(),
        "restore_alloc_bytes_per_byte_max": RESTORE_ALLOC_MAX,
    }
    _merge_json({"restore_allocations": payload})
    report(
        "Restore allocations: one warm latest_valid, 16q snapshot, directory store",
        f"{'restored (B)':>14} {'peak (B)':>12} {'per byte':>9} {'ceiling':>8}\n"
        f"{payload['restored_bytes']:>14d} {payload['peak_allocated_bytes']:>12d} "
        f"{payload['restore_alloc_bytes_per_byte']:>9.2f} {RESTORE_ALLOC_MAX:>8.2f}",
    )
    assert payload["restore_alloc_bytes_per_byte"] <= RESTORE_ALLOC_MAX, payload


def test_step_beside_writers(report):
    """A small training step beside a saturated writer pool over the same step alone.

    The fleet daemon's regime in one thread: the 8-qubit 1-layer batch-4
    classifier step (some 450 kernel calls of 2^8 amplitudes) is stepped
    alone, then beside a ``WriterPool(2)`` whose two queues are topped up
    with the step's snapshot before every step, in alternating rounds of one
    run.  The store is in memory and the queues never empty, so neither
    worker sleeps in a flush or idles: both want the interpreter lock all
    the time, which is the regime the ratio is about and one a runner's disk
    cannot blur.  What is timed is the stepping thread's own CPU time inside
    ``train_step`` -- waiting its turn is not in it, the lock traffic of the
    kernel boundary is.  The ratio goes to ``BENCH_substrate.json`` as
    ``contended_step`` beside its ceiling, where ``tools/bench_trend.py``
    gates on it.
    """
    rounds, steps, depth = 4, 40, 32
    trainer = build_trainer(
        "classifier",
        qubits=8,
        layers=1,
        samples=64,
        batch_size=4,
        seed=1234,
        lr=0.05,
    )
    store = ChunkStore(InMemoryBackend())
    pool = WriterPool(workers=2)
    # One channel's saves run in order, one at a time: two keep both workers busy.
    channels = [pool.channel(f"job{i}", max_pending=depth) for i in (0, 1)]

    def top_up():
        snapshot = trainer.capture()
        for channel in channels:
            while channel.pending < depth:  # never blocks: this thread alone submits
                channel.submit(
                    lambda job=channel.job_id: store.save_snapshot(job, snapshot)
                )

    def step_cpu_seconds():
        started = time.thread_time()
        trainer.train_step()
        return time.thread_time() - started

    alone, beside = [], []
    try:
        for _ in range(5):  # engine tier, caches, first touches
            trainer.train_step()
        for _ in range(rounds):
            for channel in channels:
                channel.drain()
            alone += [step_cpu_seconds() for _ in range(steps)]
            for _ in range(steps):
                top_up()
                beside.append(step_cpu_seconds())
    finally:
        pool.close()

    alone_s, beside_s = float(np.median(alone)), float(np.median(beside))
    payload = {
        "cpu_count": os.cpu_count(),
        "engine": engines.active_engine(),
        "steps_per_side": rounds * steps,
        "alone_cpu_seconds": alone_s,
        "beside_cpu_seconds": beside_s,
        "contended_step": beside_s / alone_s,
        "contended_step_max": CONTENDED_STEP_MAX,
    }
    _merge_json({"step_beside_writers": payload})
    report(
        "Step beside writers: 8q/1L batch-4 classifier, saturated WriterPool(2)",
        f"{'alone (ms CPU)':>16} {'beside (ms CPU)':>16} {'ratio':>8} {'ceiling':>8}\n"
        f"{1e3 * alone_s:>16.2f} {1e3 * beside_s:>16.2f} "
        f"{payload['contended_step']:>8.2f} {CONTENDED_STEP_MAX:>8.2f}",
    )
    assert payload["contended_step"] <= CONTENDED_STEP_MAX, payload
