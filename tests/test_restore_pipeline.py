"""Tests for the unified restore pipeline (`repro.core.restore`).

Covers the acceptance criteria of the restore-path refactor:

* bitwise identity with the legacy read paths over formats x codecs x
  backends (property test),
* parameters-only restore transfers measurably fewer bytes than full,
* parallel executor and whole-object-fallback correctness,
* tier-aware chunk placement (pinned manifests, promote-on-restore),
* fault injection: a backend failing mid-restore, truncated manifests,
  and chunks vanishing or moving tiers between plan and fetch all either
  restore bitwise or raise — never return corrupt tensors.
"""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.restore import (
    WARM_START_TENSORS,
    QckptSource,
    RestoreExecutor,
    content_address,
)
from repro.core.serialize import unpack_payload
from repro.core.snapshot import TrainingSnapshot
from repro.core.store import CheckpointStore
from repro.errors import (
    CheckpointError,
    CheckpointNotFoundError,
    ConfigError,
    IntegrityError,
    ReproError,
    SerializationError,
    StorageError,
)
from repro.service.chunkstore import ChunkStore
from repro.service.pool import WriterPool
from repro.storage.backend import StorageBackend
from repro.storage.flaky import FlakyBackend
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.sharded import ShardedBackend
from repro.storage.tiered import TieredBackend
from tests.test_store import DIGESTS, assert_digests, fixture_into


def snapshot_at(step: int, seed: int = 7, extra_elems: int = 2048):
    rng = np.random.default_rng(seed + step)
    return TrainingSnapshot(
        step=step,
        params=rng.standard_normal(24),
        optimizer_state={"name": "adam", "t": step, "m": rng.standard_normal(24)},
        rng_state={"bit_generator": "PCG64", "state": {"s": step}},
        model_fingerprint="restore-pipeline-test",
        loss_history=rng.standard_normal(step + 1),
        statevector=(
            rng.standard_normal(extra_elems)
            + 1j * rng.standard_normal(extra_elems)
        ),
        wall_time=1.25 * step,
    )


def tensors_equal(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    return all(
        a[k].dtype == b[k].dtype
        and a[k].shape == b[k].shape
        and np.array_equal(a[k], b[k])
        for k in a
    )


def backend_factories(tmp_path):
    return {
        "memory": lambda: InMemoryBackend(),
        "local": lambda: LocalDirectoryBackend(tmp_path / "store"),
        "sharded": lambda: ShardedBackend([InMemoryBackend() for _ in range(3)]),
        "tiered": lambda: TieredBackend(
            InMemoryBackend(), InMemoryBackend(), fast_capacity_bytes=1 << 20
        ),
    }


class MinimalBackend(StorageBackend):
    """Abstract surface only; counts reads."""

    def __init__(self):
        self.objects = {}
        self.reads = 0

    def write(self, name, data):
        self.objects[name] = bytes(data)

    def read(self, name):
        self.reads += 1
        try:
            return self.objects[name]
        except KeyError:
            raise StorageError(f"object {name!r} does not exist") from None

    def exists(self, name):
        return name in self.objects

    def delete(self, name):
        self.objects.pop(name, None)

    def list(self, prefix=""):
        return sorted(n for n in self.objects if n.startswith(prefix))


# ---------------------------------------------------------------------------
# Bitwise identity with the legacy paths: formats x codecs x backends
# ---------------------------------------------------------------------------


CODECS = ("none", "zlib-1", "zlib-6")


class TestBitwiseIdentity:
    @pytest.mark.parametrize(
        "backend_name", ["memory", "local", "sharded", "tiered"]
    )
    def test_core_store_full_and_delta(self, tmp_path, backend_name):
        # A QCKPT store an earlier release wrote, on each backend.
        backend = fixture_into(backend_factories(tmp_path)[backend_name]())
        store = CheckpointStore(backend)
        # Pipeline full restore, delta chains resolved, == what that
        # release restored.
        for key in DIGESTS:
            job, ckpt_id = key.split("/")
            assert_digests(key, store.load_tensors(job, ckpt_id)[1])
        # Legacy oracle at the format level: the full record's bytes unpack
        # to exactly what the pipeline returned.
        full = store.checkpoints("default")[0]
        legacy_meta, legacy_tensors = unpack_payload(
            backend.read(full.object_name)
        )
        _, pipeline_tensors = store.load_tensors("default", full.ckpt_id)
        assert tensors_equal(legacy_tensors, pipeline_tensors)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize(
        "backend_name", ["memory", "local", "sharded", "tiered"]
    )
    def test_chunk_store(self, tmp_path, codec, backend_name):
        backend = backend_factories(tmp_path)[backend_name]()
        store = ChunkStore(backend, codec=codec, block_bytes=512)
        for step in (1, 2):
            store.save_snapshot("jobA", snapshot_at(step))
        # Legacy oracle: reassemble chunks by hand from the manifest.
        manifest = json.loads(
            backend.read("job-jobA-ckpt-000002.json").decode("utf-8")
        )
        from repro.core.codecs import get_codec
        from repro.core.serialize import tensor_from_bytes

        codec_obj = get_codec(manifest["codec"])
        legacy = {}
        for entry in manifest["tensors"]:
            raw = b"".join(
                codec_obj.decode(backend.read(block["chunk"]))
                for block in entry["blocks"]
            )
            legacy[entry["name"]] = tensor_from_bytes(
                raw, entry["dtype"], tuple(entry["shape"])
            )
        _, pipeline = store.load_tensors("jobA", "ckpt-000002")
        assert tensors_equal(legacy, pipeline), f"{backend_name}/{codec}"
        assert store.load_snapshot("jobA") == snapshot_at(2)

    def test_partial_equals_full_subset(self, tmp_path):
        for backend_name, factory in backend_factories(tmp_path).items():
            store = CheckpointStore(fixture_into(factory()))
            chain_tip = ("default", "ckpt-000003")
            _, full = store.load_tensors(*chain_tip)
            _, part = store.load_tensors(
                *chain_tip, names=["params", "loss_history"]
            )
            assert np.array_equal(part["params"], full["params"])
            assert np.array_equal(part["loss_history"], full["loss_history"])

    def test_executor_parallelism_is_invisible(self):
        backend = InMemoryBackend()
        store_serial = ChunkStore(backend, block_bytes=256, restore_workers=1)
        store_serial.save_snapshot("j", snapshot_at(5))
        store_parallel = ChunkStore(backend, block_bytes=256, restore_workers=8)
        _, serial = store_serial.load_tensors("j")
        _, parallel = store_parallel.load_tensors("j")
        assert tensors_equal(serial, parallel)


# ---------------------------------------------------------------------------
# Block-by-block assembly: any tensor, any block size, any damage
# ---------------------------------------------------------------------------


def _tensor(kind: str, dtype: str, block_bytes: int, content: str, seed: int):
    """One tensor whose canonical bytes sit in ``kind`` relation to the
    store's block size; ``noise`` bytes are stored as they are by ``zlib-6``
    (blocks of 4 KiB and more), ``runs`` are deflated."""
    item = np.dtype(dtype).itemsize
    nbytes = {
        "empty": 0,
        "scalar": item,
        "one-block": max(item, block_bytes // 2),
        "aligned": 2 * block_bytes,
        "ragged": 2 * block_bytes + 3 * item,
        "strided": 2 * block_bytes + 3 * item,
    }[kind]
    count = nbytes // item
    if kind == "strided":
        count *= 2
    rng = np.random.default_rng(seed)
    if content == "noise":
        raw = rng.integers(0, 256, count * item, dtype=np.uint8)
    else:
        raw = np.repeat(rng.integers(0, 256, 8, dtype=np.uint8), -(-count * item // 8))
    if dtype == "|b1":
        raw = raw & 1
    array = raw[: count * item].view(dtype)
    if kind == "scalar":
        return array.reshape(())
    if kind == "empty":
        return array.reshape(3, 0)
    return array[::2] if kind == "strided" else array


class TestBlockAssembly:
    """What the executor hands back is the saved tensors or a typed error."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        kind=st.sampled_from(
            ["empty", "scalar", "one-block", "aligned", "ragged", "strided"]
        ),
        dtype=st.sampled_from(["<f8", "<f4", "<c16", "<i8", "|u1", "|b1"]),
        block_bytes=st.sampled_from([64, 4096, 8192]),
        codec=st.sampled_from(["none", "zlib-6"]),
        content=st.sampled_from(["noise", "runs"]),
        local=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    # Always run: a flipped tensor byte in an uncompressed in-memory chunk.
    @example(
        kind="one-block",
        dtype="<f8",
        block_bytes=4096,
        codec="none",
        content="noise",
        local=False,
        seed=0,
    )
    def test_bitwise_owned_writable_or_integrity_error(
        self, kind, dtype, block_bytes, codec, content, local, seed
    ):
        first = _tensor(kind, dtype, block_bytes, content, seed)
        # The twin repeats the first tensor's blocks: one stored chunk, two
        # destinations.
        snapshot = TrainingSnapshot(
            step=1,
            params=np.arange(3.0),
            optimizer_state={"first": first, "twin": first.copy()},
            rng_state={},
            model_fingerprint="block-assembly",
        )
        _, expected = snapshot.to_payload()
        with tempfile.TemporaryDirectory() as root:
            backend = (
                LocalDirectoryBackend(root, fsync=False)
                if local
                else InMemoryBackend()
            )
            store = ChunkStore(backend, codec=codec, block_bytes=block_bytes)
            store.save_snapshot("j", snapshot)

            def assert_restores_bitwise():
                _, restored = store.load_tensors("j")
                assert set(restored) == set(expected)
                arrays = list(restored.values())
                for name, array in restored.items():
                    want = expected[name]
                    assert array.dtype == want.dtype and array.shape == want.shape
                    assert array.tobytes() == want.tobytes(), name
                    # Trainer.restore mutates what it is handed, in place.
                    assert array.flags.writeable and array.flags.owndata
                    assert not any(
                        np.shares_memory(array, other)
                        for other in arrays
                        if other is not array
                    )

            assert_restores_bitwise()

            manifest_name = store.manifest_names("j")[-1]
            manifest = json.loads(backend.read(manifest_name).decode("utf-8"))
            entry = next(
                e for e in manifest["tensors"] if e["name"].endswith("first")
            )

            def rewritten_blocks(blocks):
                entry["blocks"] = blocks
                return json.dumps(manifest, sort_keys=True).encode("utf-8")

            blocks = list(entry["blocks"])
            must_raise = {manifest_name: []}
            if first.size:
                # (An empty tensor is one empty block: dropping it leaves the
                # shape satisfied, and there is nothing to over-fill with.)
                must_raise[manifest_name] = [
                    rewritten_blocks(blocks[:-1]),  # under-fills the tensor
                    rewritten_blocks(blocks + blocks[-1:]),  # over-fills it
                ]
            chunk = blocks[-1]["chunk"]
            stored = backend.read(chunk)
            flipped = bytearray(stored)
            if stored:
                must_raise[chunk] = [stored[:-1]]  # truncated
                flipped[len(flipped) // 2] ^= 0x10
                if codec == "none":  # every stored byte is a tensor byte
                    must_raise[chunk].append(bytes(flipped))
            for name, versions in must_raise.items():
                original = backend.read(name)
                for version in versions:
                    backend.write(name, version)
                    with pytest.raises(IntegrityError):
                        store.load_tensors("j")
                backend.write(name, original)
            # A flipped bit of a deflate stream may be padding: the block
            # then still decodes to its own address, which is no damage.
            backend.write(chunk, bytes(flipped))
            try:
                assert_restores_bitwise()
            except IntegrityError:
                pass
            backend.write(chunk, stored)
            assert_restores_bitwise()


# ---------------------------------------------------------------------------
# Planner accounting: partial restores transfer fewer bytes
# ---------------------------------------------------------------------------


class TestPlanAccounting:
    def test_partial_fetches_fewer_bytes(self):
        backend = InMemoryBackend()
        store = ChunkStore(backend, block_bytes=1024)
        store.save_snapshot("j", snapshot_at(1, extra_elems=1 << 14))
        backend.reset_counters()
        store.load_tensors("j", names=["params"])
        partial_bytes = backend.bytes_read
        backend.reset_counters()
        store.load_tensors("j")
        full_bytes = backend.bytes_read
        assert partial_bytes < full_bytes / 5

    def test_core_plans_read_the_whole_object(self, tmp_path):
        backend = fixture_into(LocalDirectoryBackend(tmp_path / "s"))
        store = CheckpointStore(backend)
        full_plan = store.plan_restore("other")
        part_plan = store.plan_restore("other", names=["params"])
        size = backend.size(store.checkpoints("other")[0].object_name)
        assert [o.nbytes for o in part_plan.objects] == [size]
        assert part_plan.fetch_bytes == full_plan.fetch_bytes == size

    def test_plan_introspection_transfers_no_payload(self):
        backend = InMemoryBackend()
        store = ChunkStore(backend, block_bytes=1024)
        store.save_snapshot("j", snapshot_at(1, extra_elems=1 << 14))
        backend.reset_counters()
        plan = store.plan_restore("j")
        # Planning a full restore reads the manifest, no payload.
        assert backend.bytes_read < plan.fetch_bytes / 10

    def test_minimal_backend_coalesces_to_one_read(self):
        backend = fixture_into(MinimalBackend())
        store = CheckpointStore(backend)
        backend.reads = 0
        names = ["params", "loss_history"]
        _, tensors = store.load_tensors("other", "ckpt-000005", names)
        # The planner reads the object once and the executor reuses that
        # read: not once per tensor.
        assert backend.reads == 1
        assert_digests("other/ckpt-000005", tensors, names)

    def test_shared_chunk_fetched_once(self):
        backend = InMemoryBackend()
        store = ChunkStore(backend, block_bytes=256)
        # Two tensors with identical content share every chunk.
        snap = snapshot_at(1)
        snap.extra["params_copy"] = snap.params.copy()
        store.save_snapshot("j", snap)
        plan = store.plan_restore(
            "j", names=["params", "extra/params_copy"]
        )
        addresses = [o.name for o in plan.objects]
        assert len(addresses) == len(set(addresses))


# ---------------------------------------------------------------------------
# Tier-aware placement
# ---------------------------------------------------------------------------


def tiered_chunk_store(fast_capacity=1 << 16, block_bytes=1024):
    tier = TieredBackend(
        InMemoryBackend(),
        InMemoryBackend(),
        fast_capacity_bytes=fast_capacity,
        policy="write-through",
    )
    return tier, ChunkStore(tier, block_bytes=block_bytes)


class TestTierPlacement:
    def test_newest_manifest_pinned_against_chunk_churn(self):
        tier, store = tiered_chunk_store(fast_capacity=1 << 14)
        for step in range(1, 6):
            store.save_snapshot("j", snapshot_at(step, extra_elems=4096))
        # Only the newest manifest stays pinned (bounded pinned bytes no
        # matter how long the history grows); chunk churn far beyond fast
        # capacity cannot evict it.
        assert tier.pinned_objects() == ["job-j-ckpt-000005.json"]
        assert "job-j-ckpt-000005.json" in tier.resident_objects()

    def test_reopened_store_repins_newest_manifest(self):
        tier, store = tiered_chunk_store()
        store.save_snapshot("j", snapshot_at(1))
        store.save_snapshot("j", snapshot_at(2))
        fresh_tier = TieredBackend(
            InMemoryBackend(), tier.slow, fast_capacity_bytes=1 << 16
        )
        ChunkStore(fresh_tier, block_bytes=1024)
        assert fresh_tier.pinned_objects() == ["job-j-ckpt-000002.json"]

    def test_restore_promotes_touched_chunks(self):
        tier, store = tiered_chunk_store(fast_capacity=1 << 20)
        store.save_snapshot("j", snapshot_at(1, extra_elems=4096))
        # Cold-start a fresh tier over the same slow store: nothing resident.
        cold_tier = TieredBackend(
            InMemoryBackend(), tier.slow, fast_capacity_bytes=1 << 20
        )
        cold_store = ChunkStore(cold_tier, block_bytes=1024)
        assert cold_store.load_snapshot("j") == snapshot_at(
            1, extra_elems=4096
        )
        first_promotions = cold_tier.stats.promotions
        assert first_promotions > 0
        hits_before = cold_tier.stats.fast_hits
        assert cold_store.load_snapshot("j") == snapshot_at(
            1, extra_elems=4096
        )
        # The second (tier-warm) restore runs on fast hits, not promotions.
        assert cold_tier.stats.promotions == first_promotions
        assert cold_tier.stats.fast_hits > hits_before

    def test_cold_restore_leaves_the_whole_plan_resident(self):
        """Promote-on-read stages a restore by itself: after one cold
        restore every object of its plan sits in the fast tier, so the
        next restore needs nothing from the slow tier."""
        slow = FlakyBackend(InMemoryBackend())
        warm_tier = TieredBackend(
            InMemoryBackend(), slow, fast_capacity_bytes=1 << 20
        )
        writer = ChunkStore(warm_tier, block_bytes=1024)
        writer.save_snapshot("j", snapshot_at(1, extra_elems=4096))
        cold_tier = TieredBackend(
            InMemoryBackend(), slow, fast_capacity_bytes=1 << 20
        )
        cold_store = ChunkStore(cold_tier, block_bytes=1024)
        planned = {obj.name for obj in cold_store.plan_restore("j").objects}
        assert not planned & set(cold_tier.resident_objects())
        assert cold_store.load_snapshot("j") == snapshot_at(
            1, extra_elems=4096
        )
        assert planned <= set(cold_tier.resident_objects())
        # The slow tier fails its next read: the tier-warm restore never
        # makes one.
        slow.arm_read("error", fail_on_read=1)
        assert cold_store.load_snapshot("j") == snapshot_at(
            1, extra_elems=4096
        )
        assert slow.faults_injected == 0

    def test_pinned_objects_never_evicted(self):
        tier = TieredBackend(
            InMemoryBackend(), InMemoryBackend(), fast_capacity_bytes=4096
        )
        tier.write("keep", b"k" * 512)
        tier.pin("keep")
        for i in range(20):
            tier.write(f"obj-{i}", b"x" * 1024)
        assert "keep" in tier.resident_objects()
        tier.unpin("keep")
        for i in range(20, 40):
            tier.write(f"obj-{i}", b"x" * 1024)
        assert "keep" not in tier.resident_objects()  # unpinned: evictable
        assert tier.read("keep") == b"k" * 512  # still in the slow tier

    def test_pin_squeezed_write_degrades_to_slow_only(self):
        tier = TieredBackend(
            InMemoryBackend(), InMemoryBackend(), fast_capacity_bytes=2048
        )
        tier.write("a", b"a" * 1024)
        tier.write("b", b"b" * 1024)
        tier.pin("a")
        tier.pin("b")
        # Pinning must never fail a save: the write lands slow-only.
        tier.write("c", b"c" * 1024)
        assert "c" not in tier.resident_objects()
        assert tier.read("c") == b"c" * 1024  # readable (and now promotable)
        assert sorted(tier.pinned_objects()) == ["a", "b"]

    def test_pin_raises_when_tier_full_of_pins(self):
        tier = TieredBackend(
            InMemoryBackend(), InMemoryBackend(), fast_capacity_bytes=2048
        )
        tier.write("a", b"a" * 1536)
        tier.pin("a")
        tier.write("b", b"b" * 1024)  # slow-only: no unpinned victim fits
        with pytest.raises(StorageError, match="cannot pin"):
            tier.pin("b")

    def test_parallel_restores_through_one_tier_are_safe(self):
        import threading

        tier, store = tiered_chunk_store(fast_capacity=1 << 15)
        reference = snapshot_at(1, extra_elems=8192)
        store.save_snapshot("j", reference)
        cold = TieredBackend(
            InMemoryBackend(), tier.slow, fast_capacity_bytes=1 << 15
        )
        stores = [
            ChunkStore(cold, block_bytes=1024, restore_workers=4)
            for _ in range(4)
        ]
        errors = []

        def restore(chunk_store):
            try:
                for _ in range(3):
                    assert chunk_store.load_snapshot("j") == reference
            except BaseException as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=restore, args=(s,)) for s in stores
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors


# ---------------------------------------------------------------------------
# Fault injection: never corrupt tensors
# ---------------------------------------------------------------------------


class TestRestoreFaults:
    def _chunk_store_on(self, inner):
        store = ChunkStore(inner, block_bytes=512)
        store.save_snapshot("j", snapshot_at(1))
        store.save_snapshot("j", snapshot_at(2))
        return store

    def test_flaky_error_mid_chain_read_core(self):
        flaky = FlakyBackend(fixture_into(InMemoryBackend()))
        store = CheckpointStore(flaky)
        tip = ("default", "ckpt-000003")
        # Fail the third read of the partial restore: the tip's own object,
        # after its two older links were read.
        flaky.arm_read("error", fail_on_read=3)
        with pytest.raises(StorageError, match="injected read error"):
            store.load_tensors(*tip, names=["params", "statevector"])
        assert flaky.faults_injected == 1
        flaky.disarm()
        _, tensors = store.load_tensors(*tip, names=["params"])
        assert_digests("default/ckpt-000003", tensors, ["params"])

    def test_flaky_bitflip_mid_chain_read_detected(self):
        flaky = FlakyBackend(fixture_into(InMemoryBackend()))
        store = CheckpointStore(flaky)
        # Corrupt the third object read, inside its magic: the SHA-256 is
        # checked before the header is parsed, so that is what catches it.
        flaky.arm_read("bitflip", fail_on_read=3, flip_offset=5)
        with pytest.raises(IntegrityError, match="SHA-256"):
            store.load_tensors(
                "default", "ckpt-000003", names=["params", "statevector"]
            )
        assert flaky.faults_injected == 1

    def test_flaky_error_mid_chunk_fetch(self):
        flaky = FlakyBackend(InMemoryBackend())
        store = self._chunk_store_on(flaky)
        plan = store.plan_restore("j")
        assert plan.n_blocks > 3
        flaky.arm_read("error", fail_on_read=4)
        with pytest.raises(ReproError):
            store.load_snapshot("j")
        flaky.disarm()
        assert store.load_snapshot("j") == snapshot_at(2)

    def test_flaky_bitflip_on_chunk_detected_by_address(self):
        flaky = FlakyBackend(InMemoryBackend())
        store = self._chunk_store_on(flaky)
        flaky.arm_read("bitflip", fail_on_read=4, flip_offset=3)
        with pytest.raises(IntegrityError):
            store.load_snapshot("j")

    @pytest.mark.parametrize("fault", ["error", "bitflip"])
    @pytest.mark.parametrize("read", ["manifest", "first_chunk", "last_chunk"])
    def test_fault_on_any_chunk_store_read_never_corrupts(self, fault, read):
        """A clean error wherever the fault lands in a chunk-store restore,
        never wrong tensors; once it passes, the same store restores
        bitwise (nothing damaged was kept)."""
        flaky = FlakyBackend(InMemoryBackend())
        store = self._chunk_store_on(flaky)
        # One manifest read, then one whole-object read per planned chunk.
        n_chunks = len(store.plan_restore("j").objects)
        ordinal = {"manifest": 1, "first_chunk": 2, "last_chunk": 1 + n_chunks}
        flaky.arm_read(fault, fail_on_read=ordinal[read])
        expected = StorageError if fault == "error" else IntegrityError
        with pytest.raises(expected):
            store.load_snapshot("j")
        assert flaky.faults_injected == 1
        flaky.disarm()
        assert store.load_snapshot("j") == snapshot_at(2)

    def test_unknown_job_or_checkpoint_raises_not_found(self):
        store = self._chunk_store_on(InMemoryBackend())
        reads = (store.restore_source, store.plan_restore, store.load_snapshot)
        for read in reads:
            with pytest.raises(CheckpointNotFoundError):
                read("ghost")
            with pytest.raises(CheckpointNotFoundError):
                read("j", "ckpt-000404")

    def test_chunk_gcd_between_plan_and_fetch(self):
        backend = InMemoryBackend()
        store = self._chunk_store_on(backend)
        source = store.restore_source("j", "ckpt-000002")
        plan = source.plan()
        # A racing gc sweeps one planned chunk before the fetch.
        victim = plan.objects[0].name
        backend.delete(victim)
        with pytest.raises(IntegrityError, match="garbage-collected or lost"):
            RestoreExecutor().run(source, plan)

    def test_chunk_moved_tiers_between_plan_and_fetch(self):
        tier, store = tiered_chunk_store()
        store.save_snapshot("j", snapshot_at(4))
        source = store.restore_source("j")
        plan = source.plan()
        # Placement races: chunks evicted (and one promoted back) after the
        # plan was computed must not change restored bytes.
        for i in range(tier.fast_capacity_bytes // 1024):
            tier.write(f"filler-{i}", b"f" * 1024)
        resident = set(tier.resident_objects())
        assert not resident & {obj.name for obj in plan.objects}
        tier.promote(plan.objects[0].name)
        meta, tensors = RestoreExecutor().run(source, plan)
        assert TrainingSnapshot.from_payload(meta, tensors) == snapshot_at(4)

    def test_latest_valid_partial_skips_damaged_params_chunk(self):
        backend = InMemoryBackend()
        store = self._chunk_store_on(backend)
        plan = store.plan_restore("j", "ckpt-000002", names=["params"])
        for obj in plan.objects:
            backend.delete(obj.name)
        ckpt_id, tensors, skipped = store.latest_valid_partial(
            "j", WARM_START_TENSORS
        )
        assert ckpt_id == "ckpt-000001"
        assert np.array_equal(tensors["params"], snapshot_at(1).params)
        assert [s[0] for s in skipped] == ["ckpt-000002"]


# ---------------------------------------------------------------------------
# Warm starts through the pipeline
# ---------------------------------------------------------------------------


def tiny_trainer(seed=3):
    from repro.ml.dataset import make_moons
    from repro.ml.models import VariationalClassifier
    from repro.ml.optimizers import Adam
    from repro.ml.trainer import Trainer, TrainerConfig
    from repro.quantum.templates import hardware_efficient

    model = VariationalClassifier(hardware_efficient(3, 1))
    dataset = make_moons(32, np.random.default_rng(5))
    return Trainer(
        model,
        Adam(lr=0.05),
        dataset=dataset,
        config=TrainerConfig(batch_size=4, seed=seed),
    )


class TestWarmStart:
    def test_trainer_warm_start_params_only(self):
        donor = tiny_trainer()
        donor.run(2)
        fresh = tiny_trainer(seed=9)
        fresh.warm_start(donor.params)
        assert np.array_equal(fresh.params, donor.params)
        assert fresh.step_count == 0
        assert fresh.loss_history == []

    def test_trainer_warm_start_resets_run_counters(self):
        trainer = tiny_trainer()
        trainer.run(2)
        donor = tiny_trainer(seed=13)
        trainer.warm_start(donor.params)
        # A warm start is a new run even on a used trainer.
        assert trainer.step_count == 0
        assert trainer.loss_history == []
        assert trainer.wall_time == 0.0

    def test_trainer_warm_start_shape_mismatch(self):
        fresh = tiny_trainer()
        with pytest.raises(ConfigError, match="warm-start"):
            fresh.warm_start(np.zeros(3))


# ---------------------------------------------------------------------------
# Fleet warm-start restore mode
# ---------------------------------------------------------------------------


class TestFleetWarmStart:
    def test_warm_start_reincarnation(self):
        from repro.faults.injector import PreemptionStorm
        from repro.service.fleet import FleetHarness, FleetJobSpec

        store = ChunkStore(InMemoryBackend(), block_bytes=512)
        pool = WriterPool(workers=2)
        spec = FleetJobSpec(
            job_id="warm0",
            trainer_factory=lambda: tiny_trainer(seed=31),
            target_steps=3,
            restore_mode="warm-start",
        )
        harness = FleetHarness(
            store, pool, [spec], events=[PreemptionStorm(at_tick=1)]
        )
        try:
            result = harness.run()
        finally:
            pool.close()
        job = result.jobs["warm0"]
        assert job.final_step == 3
        assert job.preemptions == 1
        assert job.restores == 1
        # Warm starts restart the step counter: recovered step is 0.
        assert job.resumed_from_steps == [0]

    def test_invalid_restore_mode_rejected(self):
        from repro.service.fleet import FleetJobSpec

        with pytest.raises(ConfigError, match="restore_mode"):
            FleetJobSpec(
                job_id="x",
                trainer_factory=tiny_trainer,
                target_steps=1,
                restore_mode="lukewarm",
            )
