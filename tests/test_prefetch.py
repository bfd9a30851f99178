"""Delta-chain read-ahead: correctness, faults, window bounds, cancel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.restore import QckptSource, RestoreExecutor
from repro.core.serialize import pack_snapshot
from repro.core.snapshot import TrainingSnapshot
from repro.core.store import DEFAULT_JOB as JOB, CheckpointStore
from repro.errors import IntegrityError, ReproError, StorageError
from repro.service.chunkstore import ChunkStore
from repro.storage.flaky import FlakyBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.tiered import TieredBackend


def _snapshot(step: int, elems: int = 2048) -> TrainingSnapshot:
    rng = np.random.default_rng(7000 + step)
    return TrainingSnapshot(
        step=step,
        params=rng.standard_normal(64),
        optimizer_state={"name": "adam", "t": step},
        rng_state={"bit_generator": "PCG64", "state": {"state": step}},
        model_fingerprint="prefetch-test",
        loss_history=rng.standard_normal(step + 1),
        statevector=rng.standard_normal(elems) + 1j * rng.standard_normal(elems),
    )


def _build_chain(backend, links: int = 5):
    """A full checkpoint followed by ``links - 1`` XOR deltas."""
    store = CheckpointStore(backend)
    snapshots = [_snapshot(step) for step in range(1, links + 1)]
    record = store.save_full(snapshots[0])
    for snapshot in snapshots[1:]:
        record = store.save_delta(snapshot, base_id=record.ckpt_id)
    return store, record.ckpt_id, snapshots[-1]


class TestChainReadahead:
    def test_plans_carry_chain_identity(self):
        backend = InMemoryBackend()
        store, tip, _ = _build_chain(backend, links=4)
        plans = store.plan_restore(JOB, tip).links()
        assert len(plans) == 4
        assert plans[0].base_id is None  # the full base
        for previous, plan in zip(plans, plans[1:]):
            assert plan.base_id == previous.checkpoint_id

    @pytest.mark.parametrize("readahead", [0, 1, 2, 8])
    def test_full_chain_restore_bitwise_any_readahead(self, readahead):
        backend = InMemoryBackend()
        _, tip, expected = _build_chain(backend, links=5)
        store = CheckpointStore(backend, readahead_links=readahead)
        assert store.load_snapshot(JOB, tip) == expected

    @pytest.mark.parametrize("readahead", [0, 2])
    def test_partial_chain_restore_bitwise(self, readahead):
        backend = InMemoryBackend()
        _, tip, expected = _build_chain(backend, links=5)
        store = CheckpointStore(backend, readahead_links=readahead)
        _, tensors = store.load_tensors(JOB, tip, ["params", "loss_history"])
        np.testing.assert_array_equal(tensors["params"], expected.params)
        np.testing.assert_array_equal(
            tensors["loss_history"], expected.loss_history
        )

    def test_readahead_matches_sequential_exactly(self):
        backend = InMemoryBackend()
        _, tip, _ = _build_chain(backend, links=6)
        sequential = CheckpointStore(backend, readahead_links=0)
        pipelined = CheckpointStore(backend, readahead_links=3)
        meta_a, tensors_a = sequential.load_tensors(JOB, tip)
        meta_b, tensors_b = pipelined.load_tensors(JOB, tip)
        assert meta_a == meta_b
        assert set(tensors_a) == set(tensors_b)
        for name in tensors_a:
            np.testing.assert_array_equal(tensors_a[name], tensors_b[name])


class TestPrefetchFaults:
    def _planned_source(self):
        """A QCKPT object behind a flaky backend, planned for ranged reads."""
        inner = InMemoryBackend()
        snapshot = _snapshot(9)
        inner.write("ckpt.qckpt", pack_snapshot(snapshot))
        flaky = FlakyBackend(inner)
        source = QckptSource(flaky, "ckpt.qckpt")
        plan = source.plan(
            ["params", "statevector", "loss_history"], prefetch=False
        )
        return flaky, source, plan, snapshot

    def test_read_error_mid_prefetch_falls_back_bitwise(self):
        flaky, source, plan, snapshot = self._planned_source()
        executor = RestoreExecutor(max_workers=2)
        # Arm after planning: the very next read is a prefetch block fetch.
        flaky.arm_read("error", fail_on_read=1)
        handle = executor.prefetch(source, plan)
        assert handle.wait(timeout=30.0)
        assert flaky.faults_injected == 1, "fault must hit the prefetch"
        meta, tensors = executor.run(source, plan, prefetched=handle)
        np.testing.assert_array_equal(tensors["params"], snapshot.params)
        np.testing.assert_array_equal(
            tensors["statevector"], snapshot.statevector
        )
        executor.close()

    def test_lying_prefetch_read_caught_by_verification(self):
        flaky, source, plan, snapshot = self._planned_source()
        executor = RestoreExecutor(max_workers=2)
        flaky.arm_read("bitflip", fail_on_read=1)
        handle = executor.prefetch(source, plan)
        assert handle.wait(timeout=30.0)
        with pytest.raises(IntegrityError):
            executor.run(source, plan, prefetched=handle)
        executor.close()

    @pytest.mark.parametrize("fail_on_read", [1, 3, 5, 8, 12])
    def test_chain_restore_with_injected_fault_never_corrupts(
        self, fail_on_read
    ):
        """Bitwise result or a clean error — wherever the fault lands.

        The read ordinal sweeps across planning reads (not retried: the
        error propagates) and prefetch reads (retried synchronously); in no
        case may the restore return wrong tensors.
        """
        inner = InMemoryBackend()
        _, tip, expected = _build_chain(inner, links=5)
        flaky = FlakyBackend(inner)
        store = CheckpointStore(flaky, readahead_links=2)
        flaky.arm_read("error", fail_on_read=fail_on_read)
        try:
            restored = store.load_snapshot(JOB, tip)
        except (StorageError, IntegrityError):
            return  # clean failure is acceptable; corruption is not
        assert restored == expected

    @pytest.mark.parametrize("fail_on_read", [2, 6, 10])
    def test_chain_restore_with_bitflip_never_corrupts(self, fail_on_read):
        inner = InMemoryBackend()
        _, tip, expected = _build_chain(inner, links=5)
        flaky = FlakyBackend(inner)
        store = CheckpointStore(flaky, readahead_links=2)
        flaky.arm_read("bitflip", fail_on_read=fail_on_read)
        try:
            restored = store.load_snapshot(JOB, tip)
        except ReproError:
            return
        assert restored == expected


class TestWindowAndCancel:
    def test_window_bound_skips_and_restore_still_bitwise(self):
        inner = InMemoryBackend()
        snapshot = _snapshot(4, elems=4096)
        inner.write("ckpt.qckpt", pack_snapshot(snapshot))
        source = QckptSource(inner, "ckpt.qckpt")
        plan = source.plan(
            ["params", "statevector", "loss_history"], prefetch=False
        )
        executor = RestoreExecutor(max_workers=2, prefetch_window_bytes=1024)
        handle = executor.prefetch(source, plan)
        assert handle.skipped_bytes > 0, "window must bound the read-ahead"
        assert handle.enqueued_bytes <= 1024
        meta, tensors = executor.run(source, plan, prefetched=handle)
        np.testing.assert_array_equal(
            tensors["statevector"], snapshot.statevector
        )
        executor.close()

    def test_zero_window_prefetches_nothing(self):
        inner = InMemoryBackend()
        snapshot = _snapshot(4)
        inner.write("ckpt.qckpt", pack_snapshot(snapshot))
        source = QckptSource(inner, "ckpt.qckpt")
        plan = source.plan(["params"], prefetch=False)
        executor = RestoreExecutor(max_workers=2, prefetch_window_bytes=0)
        handle = executor.prefetch(source, plan)
        assert handle.n_enqueued == 0
        _, tensors = executor.run(source, plan, prefetched=handle)
        np.testing.assert_array_equal(tensors["params"], snapshot.params)
        executor.close()

    def test_cancelled_prefetch_falls_back_to_sync(self):
        inner = InMemoryBackend()
        snapshot = _snapshot(4)
        inner.write("ckpt.qckpt", pack_snapshot(snapshot))
        source = QckptSource(inner, "ckpt.qckpt")
        plan = source.plan(
            ["params", "statevector", "loss_history"], prefetch=False
        )
        executor = RestoreExecutor(max_workers=2)
        handle = executor.prefetch(source, plan)
        handle.cancel()
        assert handle.cancelled
        _, tensors = executor.run(source, plan, prefetched=handle)
        np.testing.assert_array_equal(
            tensors["statevector"], snapshot.statevector
        )
        executor.close()


class TestChunkStorePrefetch:
    def test_prefetch_restore_promotes_chunks_tier_warm(self):
        slow = InMemoryBackend()
        warm_tier = TieredBackend(
            InMemoryBackend(), slow, fast_capacity_bytes=1 << 22
        )
        writer = ChunkStore(warm_tier, block_bytes=2048)
        snapshot = _snapshot(5)
        writer.save_snapshot("job", snapshot)

        # A second process opens the store cold (fresh fast tier).
        cold_tier = TieredBackend(
            InMemoryBackend(), slow, fast_capacity_bytes=1 << 22
        )
        reader = ChunkStore(cold_tier, block_bytes=2048)
        plan = reader.plan_restore("job")
        chunk_names = {obj.name for obj in plan.objects}
        handle = reader.prefetch_restore("job")
        assert handle.wait(timeout=30.0)
        resident = set(cold_tier.resident_objects())
        assert chunk_names <= resident, "read-ahead must promote the chunks"
        hits_before = cold_tier.stats.fast_hits
        restored = reader.load_snapshot("job")
        assert restored == snapshot
        assert cold_tier.stats.fast_hits > hits_before

    def test_prefetch_restore_missing_job_raises(self):
        store = ChunkStore(InMemoryBackend())
        from repro.errors import CheckpointNotFoundError

        with pytest.raises(CheckpointNotFoundError):
            store.prefetch_restore("ghost")
