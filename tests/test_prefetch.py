"""Restore read-ahead: faults, window bounds, cancel, chunk-store staging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.restore import QckptSource, RestoreExecutor
from repro.core.serialize import pack_snapshot
from repro.core.snapshot import TrainingSnapshot
from repro.core.store import CheckpointStore
from repro.errors import IntegrityError, StorageError
from repro.service.chunkstore import ChunkStore
from repro.storage.flaky import FlakyBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.tiered import TieredBackend
from tests.test_store import assert_digests, fixture_into


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


CHAIN_TIP = "ckpt-000003"  # of the fixture's job "default": three links
SUBSET = ["params", "statevector", "loss_history"]


def _restore_chain_twice(store):
    """A full restore of the chain tip (read ordinals 1-3: one whole-object
    read per link), then one of ``SUBSET`` (ordinals 4-6, the same three
    objects); both bitwise or a raised error."""
    full = store.load_tensors("default", CHAIN_TIP)[1]
    assert_digests(f"default/{CHAIN_TIP}", full)
    subset = store.load_tensors("default", CHAIN_TIP, SUBSET)[1]
    assert_digests(f"default/{CHAIN_TIP}", subset, SUBSET)


class TestPrefetchFaults:
    def _planned_source(self):
        """A chunk-store checkpoint behind a flaky backend, planned (its
        manifest read) but none of its chunks fetched yet."""
        flaky = FlakyBackend(InMemoryBackend())
        store = ChunkStore(flaky, block_bytes=1024)
        snapshot = _snapshot(9)
        store.save_snapshot("job", snapshot)
        source = store.restore_source("job")
        plan = source.plan(["params", "statevector", "loss_history"])
        assert len(plan.objects) > 1
        return flaky, source, plan, snapshot

    def test_read_error_mid_prefetch_falls_back_bitwise(self):
        flaky, source, plan, snapshot = self._planned_source()
        executor = RestoreExecutor(max_workers=2)
        # Arm after planning: the very next read is a prefetch chunk fetch.
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
        assert flaky.faults_injected == 1, "fault must hit the prefetch"
        with pytest.raises(IntegrityError):
            executor.run(source, plan, prefetched=handle)
        executor.close()

    @pytest.mark.parametrize("fail_on_read", [1, 2, 3, 4, 5, 6])
    def test_chain_restore_with_injected_fault_never_corrupts(
        self, fail_on_read
    ):
        """A clean error wherever the fault lands, never wrong tensors.

        The read ordinal sweeps across every link's whole-object read, of
        the full restore and of the partial one; the restores before the
        fault come back bitwise.
        """
        flaky = FlakyBackend(fixture_into(InMemoryBackend()))
        store = CheckpointStore(flaky)
        flaky.arm_read("error", fail_on_read=fail_on_read)
        with pytest.raises(StorageError, match="injected read error"):
            _restore_chain_twice(store)
        assert flaky.faults_injected == 1

    @pytest.mark.parametrize("fail_on_read", [1, 2, 3, 4, 5, 6])
    def test_chain_restore_with_bitflip_never_corrupts(self, fail_on_read):
        flaky = FlakyBackend(fixture_into(InMemoryBackend()))
        store = CheckpointStore(flaky)
        flaky.arm_read("bitflip", fail_on_read=fail_on_read)
        # Every QCKPT read is checked against its SHA-256: a lie anywhere
        # in the object fails the restore.
        with pytest.raises(IntegrityError, match="SHA-256"):
            _restore_chain_twice(store)
        assert flaky.faults_injected == 1


class TestWindowAndCancel:
    def test_window_bound_skips_and_restore_still_bitwise(self):
        inner = InMemoryBackend()
        snapshot = _snapshot(4, elems=4096)
        inner.write("ckpt.qckpt", pack_snapshot(snapshot))
        source = QckptSource(inner, "ckpt.qckpt")
        plan = source.plan(["params", "statevector", "loss_history"])
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
        plan = source.plan(["params"])
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
        plan = source.plan(["params", "statevector", "loss_history"])
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
