"""Engine tiers, gradient sharding, and storage fast paths.

The load-bearing property here is *bitwise determinism*: a sharded gradient
must equal the single-process gradient bit for bit, on every tier, for every
shift rule — otherwise checkpoint/resume equivalence (the repo's core
contract) would depend on the fan-out knob.  The compiled tier's own bitwise
parity against numpy is enforced by its load-time self-test; these tests
cover the seams above it.
"""

import ctypes
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.autodiff import finite_difference_gradient, parameter_shift_gradient
from repro.core import delta as _delta
from repro.core import hashing as _hashing
from repro.core.restore import content_address
from repro.errors import ConfigError
from repro.quantum import engines, kernels
from repro.quantum.circuit import Circuit
from repro.quantum.engines import compiled, sharding
from repro.quantum.observables import Hamiltonian
from repro.quantum.templates import hardware_efficient, initial_parameters

TFIM4 = Hamiltonian.transverse_field_ising(4, 1.0, 0.7)

COMPILED_AVAILABLE = compiled.available()
TIERS = ["numpy"] + (["compiled"] if COMPILED_AVAILABLE else [])


@pytest.fixture(autouse=True)
def _engine_hygiene(monkeypatch):
    """Isolate engine/env/pool state: every test starts from a clean ladder."""
    monkeypatch.delenv(engines.ENGINE_ENV, raising=False)
    monkeypatch.delenv(engines.WORKERS_ENV, raising=False)
    engines.reset_engine()
    yield
    sharding.shutdown_default()
    engines.reset_engine()


def _use_tier(monkeypatch, tier):
    """Pin a tier and rebuild the default worker pool under it."""
    monkeypatch.setenv(engines.ENGINE_ENV, tier)
    engines.reset_engine()
    sharding.shutdown_default()


def _cases():
    rng = np.random.default_rng(7)
    hea = hardware_efficient(4, 2)
    ctrl = Circuit(4)
    ctrl.h(0).crx(0, 1, ctrl.new_param()).cry(1, 2, ctrl.new_param())
    ctrl.crz(2, 3, ctrl.new_param()).crz(3, 0, ctrl.new_param())
    ctrl.rx(1, ctrl.new_param()).rz(2, ctrl.new_param())
    return [
        ("hea-two-term", hea, initial_parameters(hea, rng, 0.8), TFIM4),
        (
            "controlled-four-term",
            ctrl,
            rng.uniform(0, np.pi, ctrl.n_params),
            TFIM4,
        ),
    ]


class TestEngineSelection:
    def test_auto_prefers_compiled_when_available(self):
        tier = engines.select_engine("auto")
        expected = "compiled" if COMPILED_AVAILABLE else "numpy"
        assert tier == expected
        assert engines.active_engine() == expected

    def test_env_ladder_pins_numpy(self, monkeypatch):
        monkeypatch.setenv(engines.ENGINE_ENV, "numpy")
        engines.reset_engine()
        assert engines.active_engine() == "numpy"
        assert kernels._COMPILED is None

    def test_invalid_request_rejected(self):
        with pytest.raises(ConfigError):
            engines.select_engine("fortran")

    def test_explicit_compiled_on_unavailable_host_raises(self, monkeypatch):
        monkeypatch.setattr(compiled, "_probed", True)
        monkeypatch.setattr(compiled, "_library", None)
        monkeypatch.setattr(compiled, "_reason", "forced unavailable (test)")
        with pytest.raises(ConfigError, match="forced unavailable"):
            engines.select_engine("compiled")
        # auto on the same host silently lands on numpy
        assert engines.select_engine("auto") == "numpy"

    def test_engine_info_bundle(self):
        info = engines.engine_info()
        assert info["active"] in ("numpy", "compiled")
        assert info["compiled_available"] == COMPILED_AVAILABLE
        assert isinstance(info["compiled_reason"], str)
        assert info["shard_workers"] == 0
        assert info["release_gil_min_work"] == compiled.RELEASE_GIL_MIN_WORK

    @pytest.mark.skipif(not COMPILED_AVAILABLE, reason="no compiled tier")
    def test_kernel_calls_are_reported_by_side(self):
        from repro import cli

        def sides():
            return {
                record["labels"]["gil"]: record["value"]
                for record in engines.metrics_snapshot()["series"]
                if record["name"] == "engine.kernel_calls"
            }

        engines.select_engine("compiled")
        before = sides()
        kernels.run(hardware_efficient(3, 1), np.zeros(6))
        assert compiled.RELEASE_GIL_MIN_WORK > 1 << 3
        after = sides()
        assert after["kept"] > before["kept"]
        assert after["released"] == before["released"]
        line = cli._engine_line(engines.metrics_snapshot())
        assert f"kernel calls {after['kept']} lock-kept" in line
        # Reading the counts leaves the registry as it was.
        names = {r["name"] for r in engines.METRICS.snapshot()["series"]}
        assert "engine.kernel_calls" not in names

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds"
    )
    def test_activation_stops_the_heap_top_being_faulted_again(self):
        # In a process of its own: thresholds only ever go up, and an earlier
        # test may have freed something large.
        script = """
import resource
import numpy as np
from repro.quantum import engines

engines.select_engine("numpy")

def temporaries():  # what ``a * b + c`` holds at once on 14-qubit states
    held = [np.ones(1 << 18, dtype=np.uint8) for _ in range(3)]

temporaries()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(8):
    temporaries()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        # 8 x 192 pages when the freed top is trimmed every time (what a
        # process that has not activated an engine reads)
        assert int(out.stdout.strip()) < 64

    def test_selection_is_counted(self):
        engines.select_engine("numpy")
        snapshot = engines.metrics_snapshot()
        selected = [
            record
            for record in snapshot["series"]
            if record["name"] == "engine.selected"
            and record.get("labels", {}).get("tier") == "numpy"
        ]
        assert selected and selected[0]["value"] >= 1

    def test_direct_kernel_path_resolves_engine(self):
        # The adjoint sweep calls apply_matrix_inplace directly, bypassing
        # the batch entry points.  It must resolve the tier ladder itself —
        # otherwise gradient bits would depend on whether a batch entry
        # point happened to run first in the process (the engine would bind
        # mid-run and the same params would grade differently before/after).
        assert not kernels._engine_resolved
        state = np.zeros(4, dtype=np.complex128)
        state[0] = 1.0
        h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
        kernels.apply_matrix_inplace(state, h, (0,), 2)
        assert kernels._engine_resolved

    def test_adjoint_gradient_is_resolution_order_invariant(self):
        from repro.autodiff import adjoint_gradient
        from repro.quantum.statevector import apply_circuit

        name, circuit, params, obs = _cases()[0]
        engines.reset_engine()
        cold = adjoint_gradient(circuit, params, obs)
        engines.reset_engine()
        apply_circuit(circuit, params + 0.371)  # batch entry binds the tier
        warm = adjoint_gradient(circuit, params, obs)
        assert np.array_equal(cold, warm)

    def test_storage_library_honors_numpy_pin(self, monkeypatch):
        monkeypatch.setenv(engines.ENGINE_ENV, "numpy")
        assert engines.storage_library() is None
        monkeypatch.delenv(engines.ENGINE_ENV)
        lib = engines.storage_library()
        assert (lib is not None) == COMPILED_AVAILABLE


class _Broken:
    """A library handle whose named symbols return without doing anything."""

    def __init__(self, dll, broken):
        self._dll = dll
        self._broken = broken

    def __getattr__(self, name):
        if name in self._broken:
            return lambda *args: 0
        return getattr(self._dll, name)


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


def _facade(kept=None, released=None):
    """A facade of its own over the loaded library (fresh counters/slots)."""
    path = compiled.kernel_library().so_path
    return compiled.CompiledKernels(
        kept or ctypes.PyDLL(path), released or ctypes.CDLL(path), path
    )


def _recording(lib, slot, log):
    """Wrap both functions of ``slot`` so each call appends its side."""
    kept, released = getattr(lib, slot)

    def wrap(side, function):
        def call(*args):
            log.append(side)
            return function(*args)

        return call

    setattr(lib, slot, (wrap("kept", kept), wrap("released", released)))


def _random_states(rng, n, tail):
    shape = (1 << n, tail) if tail > 1 else (1 << n,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


LIMIT = compiled.RELEASE_GIL_MIN_WORK
LIMIT_QUBITS = LIMIT.bit_length() - 1
#: ``(n, tail)`` just below and at the constant: flat states, and batches of
#: 3-qubit columns one column short of it and at it.
BELOW_AT = [
    ((LIMIT_QUBITS - 1, 1), (LIMIT_QUBITS, 1)),
    ((3, LIMIT // 8 - 1), (3, LIMIT // 8)),
]
CYCLE = np.zeros((4, 4), dtype=np.complex128)  # a phase permutation
CYCLE[0, 0], CYCLE[1, 2], CYCLE[2, 3], CYCLE[3, 1] = 1, 1j, 1, -1


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="no compiled tier on this host")
class TestKernelBoundary:
    """The size of a call picks the handle; arrays cross as addresses."""

    def test_the_constant_is_a_power_of_two_state(self):
        assert LIMIT == 1 << LIMIT_QUBITS and LIMIT_QUBITS >= 4

    @pytest.mark.parametrize("below,at", BELOW_AT)
    def test_gate_calls_pick_the_handle_by_amplitudes(self, below, at):
        lib, log = _facade(), []
        _recording(lib, "_k1q", log)
        _recording(lib, "_k2q", log)
        rng = np.random.default_rng(5)
        ry = kernels.cached_matrix("ry", (0.7853981,))
        for (n, tail), side in ((below, "kept"), (at, "released")):
            states = np.ascontiguousarray(_random_states(rng, n, tail))
            assert lib.apply_1q(states, ry, 1, n, tail)
            assert lib.apply_2q(states, CYCLE, (0, 2), n, tail)
            assert lib.apply_2q(states, CYCLE, (2, 0), n, tail)
            assert log == [side] * 3
            del log[:]
        assert lib.calls == [3, 3]

    def test_storage_calls_pick_the_handle_by_bytes(self):
        lib, log = _facade(), []
        for slot in ("_xor", "_xor3", "_fnv"):
            _recording(lib, slot, log)
        rng = np.random.default_rng(6)
        for size, side in ((LIMIT - 1, "kept"), (LIMIT, "released")):
            a = rng.integers(0, 256, size=size, dtype=np.uint8)
            b = rng.integers(0, 256, size=size, dtype=np.uint8)
            out, acc = np.empty_like(a), a.copy()
            assert lib.xor_into(acc, b)
            assert lib.xor_to(out, a, b)
            assert np.array_equal(acc, a ^ b) and np.array_equal(out, a ^ b)
            assert lib.fnv1a64(a) == _hashing._fast_digest_python(memoryview(a))
            assert log == [side] * 3
            del log[:]
        assert lib.calls == [3, 3]

    @pytest.mark.parametrize("n,tail", [case for pair in BELOW_AT for case in pair])
    def test_either_handle_gives_the_numpy_bits(self, monkeypatch, n, tail):
        path = compiled.kernel_library().so_path
        kept, released = ctypes.PyDLL(path), ctypes.CDLL(path)
        rng = np.random.default_rng(n * 1000 + tail)
        start = np.ascontiguousarray(_random_states(rng, n, tail))
        ry = kernels.cached_matrix("ry", (0.7853981,))
        results = []
        for dll in (kept, released):
            lib = _facade(dll, dll)
            states = start.copy()
            assert lib.apply_1q(states, ry, n - 1, n, tail)
            assert lib.apply_2q(states, CYCLE, (0, 2), n, tail)
            assert lib.apply_2q(states, CYCLE, (2, 1), n, tail)
            results.append(states)
        monkeypatch.setattr(kernels, "_COMPILED", None)  # the numpy oracle
        want = start.copy()
        kernels._apply_1q(want, ry, n - 1, n, tail=tail)
        kernels._apply_2q(want, CYCLE, (0, 2), n, tail=tail)
        kernels._apply_2q(want, CYCLE, (2, 1), n, tail=tail)
        assert not np.array_equal(_bits(want), _bits(start))
        for states in results:
            assert np.array_equal(_bits(states), _bits(want))

    @pytest.mark.parametrize("tail", [1, 5])
    def test_transposed_matrix_view_matches_its_copy(self, tail):
        # An address says nothing about strides: the facade must copy a view.
        lib = compiled.kernel_library()
        start = _random_states(np.random.default_rng(3), 6, tail)
        ry = kernels.cached_matrix("ry", (0.7853981,))
        for matrix, wires in ((ry, (2,)), (CYCLE, (4, 1))):
            view = matrix.T
            assert not view.flags["C_CONTIGUOUS"]
            got, want = start.copy(), start.copy()
            for states, m in ((got, view), (want, np.ascontiguousarray(view))):
                if len(wires) == 1:
                    assert lib.apply_1q(states, m, wires[0], 6, tail)
                else:
                    assert lib.apply_2q(states, m, wires, 6, tail)
            assert not np.array_equal(_bits(got), _bits(start))
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("side", ["kept", "released"])
    @pytest.mark.parametrize("symbol", ["qk_apply_1q", "qk_apply_2q", "qk_xor3"])
    def test_self_test_rejects_a_broken_handle(self, side, symbol):
        real = compiled.kernel_library()
        assert compiled._self_test(real) is None
        path = real.so_path
        handles = {"kept": ctypes.PyDLL(path), "released": ctypes.CDLL(path)}
        handles[side] = _Broken(handles[side], (symbol,))
        failure = compiled._self_test(_facade(**handles))
        assert failure is not None
        assert failure.startswith(
            "lock-keeping" if side == "kept" else "lock-releasing"
        )

    @pytest.mark.parametrize("loader", ["PyDLL", "CDLL"])
    def test_unloadable_library_means_no_tier(self, monkeypatch, loader):
        def refuse(path):
            raise OSError(f"{loader} refused (test)")

        monkeypatch.setattr(ctypes, loader, refuse)
        compiled.reset_probe()
        try:
            assert not compiled.available()
            assert f"{loader} refused" in compiled.availability_reason()
            assert engines.select_engine("auto") == "numpy"
        finally:
            monkeypatch.undo()
            compiled.reset_probe()
        assert compiled.available()

    def test_two_threads_on_separate_states_match_one_thread(self):
        # 6-qubit kernels keep the lock, so nothing overlaps in C; what two
        # threads share is the facade, the matrix caches and the scratch
        # discipline.  Switch as often as the interpreter allows.
        circuit = hardware_efficient(6, 3)
        assert 1 << 6 < LIMIT
        rng = np.random.default_rng(21)
        jobs = [initial_parameters(circuit, rng, 0.8) for _ in range(2)]
        rounds = 30
        want = [kernels.run(circuit, params) for params in jobs]
        got = [[], []]

        def drive(slot):
            for _ in range(rounds):
                got[slot].append(kernels.run(circuit, jobs[slot]))

        threads = [threading.Thread(target=drive, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot in (0, 1):
            assert len(got[slot]) == rounds
            assert all(np.array_equal(_bits(s), _bits(want[slot])) for s in got[slot])


class TestScopeResolution:
    def test_explicit_beats_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv(engines.WORKERS_ENV, "5")
        assert engines.resolve_shard_workers(None) == 5
        with engines.execution_scope(shard_workers=3):
            assert engines.resolve_shard_workers(None) == 3
            assert engines.resolve_shard_workers(2) == 2
            with engines.execution_scope(shard_workers=0):
                assert engines.resolve_shard_workers(None) == 0
        assert engines.resolve_shard_workers(None) == 5

    def test_none_scope_inherits(self):
        with engines.execution_scope(shard_workers=4):
            with engines.execution_scope(shard_workers=None):
                assert engines.resolve_shard_workers(None) == 4

    def test_negative_scope_rejected(self):
        with pytest.raises(ConfigError):
            with engines.execution_scope(shard_workers=-1):
                pass

    def test_malformed_env_rejected(self, monkeypatch):
        monkeypatch.setenv(engines.WORKERS_ENV, "lots")
        with pytest.raises(ConfigError):
            engines.resolve_shard_workers(None)


class TestShardBounds:
    def test_contiguous_cover(self):
        bounds = sharding.shard_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_min_shard_width(self):
        # 5 evaluations over 4 workers: only 2 shards of width >= 2
        assert sharding.shard_bounds(5, 4) == [(0, 3), (3, 5)]
        assert sharding.shard_bounds(2, 8) == [(0, 2)]


class TestShardParity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("name,circuit,params,obs", _cases())
    def test_parameter_shift_bitwise(
        self, monkeypatch, tier, name, circuit, params, obs
    ):
        _use_tier(monkeypatch, tier)
        single = parameter_shift_gradient(circuit, params, obs)
        for workers in (2, 3):
            sharded = parameter_shift_gradient(
                circuit, params, obs, shard_workers=workers
            )
            assert np.array_equal(single, sharded), (name, tier, workers)

    @pytest.mark.parametrize("tier", TIERS)
    def test_finite_difference_bitwise(self, monkeypatch, tier):
        _use_tier(monkeypatch, tier)
        _, circuit, params, obs = _cases()[0]
        for scheme in ("central", "forward"):
            single = finite_difference_gradient(
                circuit, params, obs, scheme=scheme
            )
            sharded = finite_difference_gradient(
                circuit, params, obs, scheme=scheme, shard_workers=2
            )
            assert np.array_equal(single, sharded), (tier, scheme)

    def test_ambient_scope_shards_bitwise(self):
        name, circuit, params, obs = _cases()[0]
        single = parameter_shift_gradient(circuit, params, obs)
        with engines.execution_scope(shard_workers=2):
            sharded = parameter_shift_gradient(circuit, params, obs)
        assert np.array_equal(single, sharded)
        shifts = [
            r
            for r in engines.metrics_snapshot()["series"]
            if r["name"] == "shard.shifts"
        ]
        assert shifts and shifts[0]["value"] >= len(params) * 2

    @pytest.mark.skipif(
        not COMPILED_AVAILABLE, reason="no compiled tier on this host"
    )
    def test_cross_tier_agreement(self, monkeypatch):
        grads = {}
        for tier in ("numpy", "compiled"):
            _use_tier(monkeypatch, tier)
            name, circuit, params, obs = _cases()[1]
            grads[tier] = parameter_shift_gradient(
                circuit, params, obs, shard_workers=2
            )
        assert np.allclose(grads["numpy"], grads["compiled"], atol=1e-12)


class TestShardRecovery:
    def test_worker_crash_mid_gradient_recovers_bitwise(self):
        name, circuit, params, obs = _cases()[0]
        single = parameter_shift_gradient(circuit, params, obs)
        executor = sharding.get_executor(3)
        before = engines.METRICS.counter("shard.worker_crashes").value
        executor.inject_worker_crash(1)
        sharded = parameter_shift_gradient(
            circuit, params, obs, shard_workers=3
        )
        assert np.array_equal(single, sharded)
        assert (
            engines.METRICS.counter("shard.worker_crashes").value == before + 1
        )
        # the pool healed: all workers answer and a clean run still matches
        assert len(executor.ping()) == 3
        again = parameter_shift_gradient(circuit, params, obs, shard_workers=3)
        assert np.array_equal(single, again)


class TestWorkerCaches:
    def test_prime_and_inspect_all_workers(self):
        name, circuit, params, obs = _cases()[0]
        sharding.prime_worker_caches(circuit, params, workers=2)
        info = kernels.cache_info(all_workers=True)
        assert len(info["workers"]) == 2
        for worker in info["workers"]:
            assert worker["pid"] > 0
            assert worker["matrix"]["currsize"] > 0
        kernels.clear_caches(all_workers=True)
        info = kernels.cache_info(all_workers=True)
        for worker in info["workers"]:
            assert worker["matrix"]["currsize"] == 0

    def test_cache_info_without_pool_has_no_workers_key(self):
        info = kernels.cache_info()
        assert "workers" not in info


class TestTrainerFleetOptIn:
    def _trainer(self, shard_workers):
        from repro.ml.models import VQEModel
        from repro.ml.optimizers import Adam
        from repro.ml.trainer import Trainer, TrainerConfig

        model = VQEModel(
            hardware_efficient(4, 2), TFIM4, gradient_method="parameter-shift"
        )
        return Trainer(
            model,
            Adam(lr=0.05),
            config=TrainerConfig(seed=5, shard_workers=shard_workers),
        )

    def test_sharded_training_is_bitwise_identical(self):
        baseline = self._trainer(None)
        sharded = self._trainer(2)
        for _ in range(2):
            baseline.train_step()
            sharded.train_step()
        assert np.array_equal(baseline.params, sharded.params)
        assert baseline.loss_history == sharded.loss_history

    def test_fleet_spec_validates_and_carries_knob(self):
        from repro.service.fleet import FleetJobSpec

        spec = FleetJobSpec(
            job_id="j1",
            trainer_factory=lambda: None,
            target_steps=1,
            shard_workers=2,
        )
        assert spec.shard_workers == 2
        with pytest.raises(ConfigError):
            FleetJobSpec(
                job_id="j2",
                trainer_factory=lambda: None,
                target_steps=1,
                shard_workers=-1,
            )


class TestHashing:
    def test_block_addresses_match_hashlib_oracle(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 256, size=10_007, dtype=np.uint8).tobytes()
        for block in (64, 1000, 4096, 20_000):
            pairs = _hashing.block_addresses(raw, block, "zlib")
            starts = range(0, len(raw), block)
            assert [a for _, a in pairs] == [
                content_address(raw[s : s + block], "zlib") for s in starts
            ]
            for i, (view, _) in enumerate(pairs):
                assert bytes(view) == raw[i * block : (i + 1) * block]

    def test_empty_stream_is_one_empty_block(self):
        pairs = _hashing.block_addresses(b"", 4096, "none")
        assert len(pairs) == 1
        assert pairs[0][1] == content_address(b"", "none")
        assert bytes(pairs[0][0]) == b""

    def test_fast_digest_matches_python_oracle(self):
        rng = np.random.default_rng(4)
        for n in (0, 1, 63, 64, 257, 8192):
            data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            assert _hashing.fast_digest(data) == _hashing._fast_digest_python(
                memoryview(data)
            )

    def test_fast_digest_known_vector(self):
        # FNV-1a 64 of b"a" per the published constants
        assert _hashing.fast_digest(b"a") == 0xAF63DC4C8601EC8C

    def test_fast_digest_accepts_views_and_arrays(self):
        arr = np.arange(32, dtype=np.float64)
        as_bytes = _hashing.fast_digest(arr.tobytes())
        assert _hashing.fast_digest(arr) == as_bytes
        assert _hashing.fast_digest(memoryview(arr.tobytes())) == as_bytes


class TestDeltaXor:
    def test_xor_hook_matches_numpy(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(4097)
        b = a.copy()
        b[::11] += 1e-12
        got = _delta._xor_arrays(a, b)
        want = np.bitwise_xor(
            a.view(np.uint8).reshape(-1), b.view(np.uint8).reshape(-1)
        )
        assert np.array_equal(got, want)

    def test_roundtrip_under_numpy_pin(self, monkeypatch):
        monkeypatch.setenv(engines.ENGINE_ENV, "numpy")
        rng = np.random.default_rng(6)
        base = {"t": rng.standard_normal(513)}
        curr = {"t": base["t"] + rng.standard_normal(513) * 1e-3}
        tensors = {
            "t": np.bitwise_xor(base["t"].view(np.uint8), curr["t"].view(np.uint8))
        }
        meta = {
            "entries": {"t": {"mode": "xor", "dtype": "<f8", "shape": [513]}},
            "removed": [],
        }
        back = _delta.apply_delta(base, tensors, meta)
        assert np.array_equal(
            back["t"].view(np.uint8), curr["t"].view(np.uint8)
        )


def _snapshot(step, params):
    from repro.core.snapshot import TrainingSnapshot

    return TrainingSnapshot(
        step=step,
        params=params,
        optimizer_state={"name": "sgd", "lr": 0.1},
        rng_state={"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}},
        model_fingerprint="fp",
    )


class TestChunkStorePipeline:
    def test_speculative_compress_counters_and_roundtrip(self):
        from repro.service.chunkstore import ChunkStore
        from repro.storage.memory import InMemoryBackend

        store = ChunkStore(InMemoryBackend(), codec="zlib-6", block_bytes=8192)
        # distinct full-size blocks that really deflate: the packer's work
        params = np.arange(4096, dtype=np.float64)
        record = store.save_snapshot("job-a", _snapshot(1, params))
        assert record.n_blocks >= 4
        speculated = store.metrics.counter("save.pipeline.speculated").value
        assert speculated >= 4
        # identical content re-saved: every block dedups, nothing is probed
        # or speculated again, stored bytes stay put
        record2 = store.save_snapshot("job-a", _snapshot(2, params))
        assert record2.n_new_blocks == 0
        assert (
            store.metrics.counter("save.pipeline.speculated").value
            == speculated
        )
        loaded = store.load_snapshot("job-a", record.ckpt_id)
        assert np.array_equal(
            loaded.params.view(np.uint8), params.view(np.uint8)
        )

    def test_only_blocks_that_deflate_reach_the_packer_thread(self):
        import threading

        from repro.service.chunkstore import ChunkStore
        from repro.storage.memory import InMemoryBackend

        created = []
        original = threading.Thread.start

        def recording_start(thread):
            created.append(thread.name)
            return original(thread)

        rng = np.random.default_rng(8)
        store = ChunkStore(InMemoryBackend(), codec="zlib-6", block_bytes=8192)
        threading.Thread.start = recording_start
        try:
            # full blocks of dense data: stored inline
            store.save_snapshot("dense", _snapshot(1, rng.standard_normal(4096)))
            # blocks under the probe floor: deflated inline
            small = ChunkStore(InMemoryBackend(), codec="zlib-6", block_bytes=256)
            small.save_snapshot("small", _snapshot(1, rng.standard_normal(400)))
        finally:
            threading.Thread.start = original
        assert not [name for name in created if name.startswith("qckpt-pack")]
        assert store.metrics.counter("save.pipeline.speculated").value == 0
        assert small.metrics.counter("save.pipeline.speculated").value == 0
        assert store.metrics.counter("save.encode.stored_blocks").value == 4
        assert store.metrics.counter("save.encode.stored_bytes").value == 4 * 8192
        assert small.metrics.counter("save.encode.stored_blocks").value == 0
        assert small.metrics.counter("save.encode.deflated_blocks").value >= 13

    def test_none_codec_never_aliases_tensor_memory(self):
        from repro.service.chunkstore import ChunkStore
        from repro.storage.memory import InMemoryBackend

        store = ChunkStore(InMemoryBackend(), codec="none", block_bytes=256)
        params = np.zeros(64)
        record = store.save_snapshot("job-b", _snapshot(1, params))
        params += 1.0  # mutate after save; stored chunks must not move
        loaded = store.load_snapshot("job-b", record.ckpt_id)
        assert np.array_equal(loaded.params, np.zeros(64))
