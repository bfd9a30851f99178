"""Engine tiers, gradient sharding, and storage fast paths.

The load-bearing property here is *bitwise determinism*: a sharded gradient
must equal the single-process gradient bit for bit, on every tier, for every
shift rule — otherwise checkpoint/resume equivalence (the repo's core
contract) would depend on the fan-out knob.  The compiled tier's own bitwise
parity against numpy is enforced by its load-time self-test; these tests
cover the seams above it.
"""

import os

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
        tensors, meta = _delta.encode_delta(base, curr)
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
