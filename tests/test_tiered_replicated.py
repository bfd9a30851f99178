"""Tests for the replicated and tiered storage backends."""

import numpy as np
import pytest

from repro.core.policy import EveryKSteps
from repro.errors import ConfigError, StorageError
from repro.ml.optimizers import Adam
from repro.ml.trainer import Trainer, TrainerConfig
from repro.quantum.observables import Hamiltonian
from repro.quantum.templates import hardware_efficient
from repro.ml.models import VQEModel
from repro.service.chunkstore import ChunkStore
from repro.service.manager import ServiceCheckpointManager
from repro.storage.flaky import FlakyBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.replicated import ReplicatedBackend
from repro.storage.tiered import TieredBackend


def make_replicated(n=3, **kwargs):
    replicas = [InMemoryBackend() for _ in range(n)]
    return ReplicatedBackend(replicas, **kwargs), replicas


# ---------------------------------------------------------------------------
# ReplicatedBackend
# ---------------------------------------------------------------------------


class TestReplicatedConstruction:
    def test_rejects_single_replica(self):
        with pytest.raises(ConfigError):
            ReplicatedBackend([InMemoryBackend()])

    def test_rejects_bad_quorum(self):
        replicas = [InMemoryBackend(), InMemoryBackend()]
        with pytest.raises(ConfigError):
            ReplicatedBackend(replicas, write_quorum=3)
        with pytest.raises(ConfigError):
            ReplicatedBackend(replicas, write_quorum=0)

    def test_rejects_bad_consistency(self):
        with pytest.raises(ConfigError):
            ReplicatedBackend(
                [InMemoryBackend(), InMemoryBackend()], consistency="eventual"
            )

    def test_default_quorum_is_majority(self):
        backend, _ = make_replicated(5)
        assert backend.write_quorum == 3


class TestReplicatedWrites:
    def test_write_mirrors_to_all(self):
        backend, replicas = make_replicated(3)
        backend.write("obj", b"payload")
        for replica in replicas:
            assert replica.read("obj") == b"payload"

    def test_write_survives_minority_failure(self):
        fast = InMemoryBackend()
        flaky = FlakyBackend(InMemoryBackend())
        backend = ReplicatedBackend([fast, flaky, InMemoryBackend()])
        flaky.arm("error")
        backend.write("obj", b"payload")
        assert backend.stats.degraded_writes == 1
        assert backend.stats.per_replica_write_failures == [0, 1, 0]
        assert backend.read("obj") == b"payload"

    def test_write_fails_below_quorum(self):
        flaky_a = FlakyBackend(InMemoryBackend())
        flaky_b = FlakyBackend(InMemoryBackend())
        backend = ReplicatedBackend([flaky_a, flaky_b, InMemoryBackend()])
        flaky_a.arm("error")
        flaky_b.arm("error")
        with pytest.raises(StorageError, match="quorum"):
            backend.write("obj", b"payload")
        assert backend.stats.failed_writes == 1


class TestReplicatedReads:
    def test_first_mode_reads_any_available(self):
        backend, replicas = make_replicated(3)
        backend.write("obj", b"payload")
        replicas[0].delete("obj")
        assert backend.read("obj") == b"payload"

    def test_missing_everywhere_raises(self):
        backend, _ = make_replicated(3)
        with pytest.raises(StorageError, match="not found"):
            backend.read("ghost")

    def test_quorum_read_returns_majority(self):
        backend, replicas = make_replicated(3, consistency="quorum")
        backend.write("obj", b"good")
        replicas[1].write("obj", b"rot!")
        assert backend.read("obj") == b"good"
        assert backend.stats.divergent_reads == 1

    def test_quorum_read_repairs_minority(self):
        backend, replicas = make_replicated(3, consistency="quorum")
        backend.write("obj", b"good")
        replicas[2].write("obj", b"rot!")
        backend.read("obj")
        assert replicas[2].read("obj") == b"good"
        assert backend.stats.repaired_objects == 1

    def test_quorum_read_without_repair_leaves_rot(self):
        backend, replicas = make_replicated(
            3, consistency="quorum", read_repair=False
        )
        backend.write("obj", b"good")
        replicas[2].write("obj", b"rot!")
        assert backend.read("obj") == b"good"
        assert replicas[2].read("obj") == b"rot!"

    def test_unresolvable_tie_raises(self):
        backend, replicas = make_replicated(2, consistency="quorum")
        backend.write("obj", b"aaaa")
        replicas[1].write("obj", b"bbbb")
        with pytest.raises(StorageError, match="divergent"):
            backend.read("obj")


class TestReplicatedNamespace:
    def test_exists_any(self):
        backend, replicas = make_replicated(3)
        replicas[2].write("solo", b"x")
        assert backend.exists("solo")
        assert not backend.exists("ghost")

    def test_list_is_union(self):
        backend, replicas = make_replicated(2)
        replicas[0].write("a", b"1")
        replicas[1].write("b", b"2")
        assert backend.list() == ["a", "b"]

    def test_delete_removes_everywhere(self):
        backend, replicas = make_replicated(3)
        backend.write("obj", b"payload")
        backend.delete("obj")
        assert not backend.exists("obj")

    def test_size_from_first_holder(self):
        backend, replicas = make_replicated(2)
        backend.write("obj", b"12345")
        assert backend.size("obj") == 5
        with pytest.raises(StorageError):
            backend.size("ghost")


class TestReplicatedCheckpointing:
    def test_store_survives_one_dead_replica(self):
        backend, replicas = make_replicated(3)
        store = ChunkStore(backend)
        model = VQEModel(
            hardware_efficient(2, 1),
            Hamiltonian.transverse_field_ising(2, 1.0, 0.8),
        )
        config = TrainerConfig(seed=4)
        trainer = Trainer(model, Adam(lr=0.1), config=config)
        manager = ServiceCheckpointManager(store, policy=EveryKSteps(2))
        trainer.run(4, hooks=[manager])
        manager.close()
        trainer.run(2)

        # Lose an entire replica, then resume through a fresh store handle.
        replicas[0]._objects.clear()  # simulate total replica loss
        resumed = Trainer(model, Adam(lr=0.1), config=config)
        fresh = ChunkStore(backend)
        assert ServiceCheckpointManager(fresh).resume(resumed) is not None
        assert resumed.step_count == 4
        resumed.run(2)
        np.testing.assert_array_equal(resumed.params, trainer.params)


# ---------------------------------------------------------------------------
# TieredBackend
# ---------------------------------------------------------------------------


class TestTieredConstruction:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            TieredBackend(InMemoryBackend(), InMemoryBackend(), 0)

    def test_rejects_bad_policy(self):
        with pytest.raises(ConfigError):
            TieredBackend(
                InMemoryBackend(), InMemoryBackend(), 100, policy="write-around"
            )

    def test_adopts_existing_fast_objects(self):
        fast = InMemoryBackend()
        fast.write("warm", b"xyz")
        tiered = TieredBackend(fast, InMemoryBackend(), 100)
        assert tiered.fast_bytes_used() == 3
        tiered.read("warm")
        assert tiered.stats.fast_hits == 1


class TestWriteThrough:
    def test_write_lands_in_both_tiers(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 100)
        tiered.write("obj", b"data")
        assert fast.read("obj") == b"data"
        assert slow.read("obj") == b"data"
        assert tiered.dirty_objects() == []

    def test_read_hits_fast_tier(self):
        tiered = TieredBackend(InMemoryBackend(), InMemoryBackend(), 100)
        tiered.write("obj", b"data")
        tiered.read("obj")
        assert tiered.stats.fast_hits == 1
        assert tiered.stats.fast_misses == 0

    def test_eviction_is_lru(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 10)
        tiered.write("a", b"aaaa")  # 4 bytes
        tiered.write("b", b"bbbb")  # 8 bytes total
        tiered.read("a")  # refresh a; b is now LRU
        tiered.write("c", b"cccc")  # needs eviction: b goes
        assert not fast.exists("b")
        assert fast.exists("a") and fast.exists("c")
        assert tiered.stats.evictions == 1
        assert slow.exists("b")  # write-through kept it durable

    def test_miss_promotes_from_slow(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 100)
        slow.write("cold", b"brrr")
        assert tiered.read("cold") == b"brrr"
        assert tiered.stats.fast_misses == 1
        assert tiered.stats.promotions == 1
        assert fast.read("cold") == b"brrr"

    def test_oversized_object_is_served_without_promotion(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 4)
        slow.write("big", b"0123456789")
        assert tiered.read("big") == b"0123456789"
        assert tiered.stats.promotions == 0
        assert not fast.exists("big")

    def test_oversized_write_raises(self):
        tiered = TieredBackend(InMemoryBackend(), InMemoryBackend(), 4)
        with pytest.raises(StorageError, match="capacity"):
            tiered.write("big", b"0123456789")

    def test_replace_reuses_residency(self):
        tiered = TieredBackend(InMemoryBackend(), InMemoryBackend(), 10)
        tiered.write("obj", b"0123456789")
        tiered.write("obj", b"01234")
        assert tiered.fast_bytes_used() == 5
        assert tiered.stats.evictions == 0


class TestWriteBack:
    def test_write_defers_slow_tier(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 100, policy="write-back")
        tiered.write("obj", b"data")
        assert fast.read("obj") == b"data"
        assert not slow.exists("obj")
        assert tiered.dirty_objects() == ["obj"]

    def test_flush_pushes_dirty_objects(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 100, policy="write-back")
        tiered.write("a", b"1")
        tiered.write("b", b"2")
        assert tiered.flush() == ["a", "b"]
        assert slow.read("a") == b"1" and slow.read("b") == b"2"
        assert tiered.dirty_objects() == []
        assert tiered.stats.flushes == 2

    def test_eviction_flushes_dirty_victim(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 8, policy="write-back")
        tiered.write("a", b"aaaa")
        tiered.write("b", b"bbbb")
        tiered.write("c", b"cccc")  # evicts a, which is dirty
        assert slow.read("a") == b"aaaa"
        assert tiered.stats.evictions == 1
        assert "a" not in tiered.dirty_objects()

    def test_close_flushes(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 100, policy="write-back")
        tiered.write("obj", b"data")
        tiered.close()
        assert slow.read("obj") == b"data"

    def test_delete_clears_dirty_state(self):
        tiered = TieredBackend(
            InMemoryBackend(), InMemoryBackend(), 100, policy="write-back"
        )
        tiered.write("obj", b"data")
        tiered.delete("obj")
        assert tiered.dirty_objects() == []
        assert not tiered.exists("obj")


class TestTieredNamespace:
    def test_list_is_union_of_tiers(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 100, policy="write-back")
        tiered.write("hot", b"1")
        slow.write("cold", b"2")
        assert tiered.list() == ["cold", "hot"]
        assert tiered.list("h") == ["hot"]

    def test_size_prefers_fast_metadata(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 100)
        tiered.write("obj", b"12345")
        assert tiered.size("obj") == 5
        slow.write("cold", b"123")
        assert tiered.size("cold") == 3

    def test_exists_checks_both(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 100, policy="write-back")
        tiered.write("hot", b"1")
        slow.write("cold", b"2")
        assert tiered.exists("hot") and tiered.exists("cold")
        assert not tiered.exists("ghost")


class TestTieredCheckpointing:
    def test_checkpoint_roundtrip_through_tiers(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 1 << 20)
        store = ChunkStore(tiered)
        model = VQEModel(
            hardware_efficient(2, 1),
            Hamiltonian.transverse_field_ising(2, 1.0, 0.8),
        )
        config = TrainerConfig(seed=4)
        trainer = Trainer(model, Adam(lr=0.1), config=config)
        manager = ServiceCheckpointManager(store, policy=EveryKSteps(2))
        trainer.run(4, hooks=[manager])
        manager.close()

        # Losing the entire fast tier must not lose checkpoints.
        fast._objects.clear()
        fresh = ChunkStore(TieredBackend(InMemoryBackend(), slow, 1 << 20))
        assert fresh.load_snapshot("default").step == 4


class TestTieredWriteFailureConsistency:
    def test_failed_eviction_flush_preserves_bookkeeping(self):
        """A slow-tier failure during evict-flush must not orphan fast objects."""
        from repro.storage.flaky import FlakyBackend

        fast = InMemoryBackend()
        slow = FlakyBackend(InMemoryBackend())
        tiered = TieredBackend(fast, slow, 8, policy="write-back")
        tiered.write("a", b"aaaa")
        tiered.write("b", b"bbbb")
        slow.arm("error")  # next flush (triggered by eviction of dirty 'a') fails
        with pytest.raises(StorageError):
            tiered.write("c", b"cccc")
        # 'a' and 'b' still tracked and readable; no orphan bookkeeping.
        assert tiered.read("a") == b"aaaa"
        assert tiered.read("b") == b"bbbb"
        assert sorted(tiered.dirty_objects()) == ["a", "b"]
        assert tiered.fast_bytes_used() == 8
        # Once the slow tier recovers, the same write succeeds.
        tiered.write("c", b"cccc")
        assert tiered.read("c") == b"cccc"

    def test_replacement_write_failure_restores_residency(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 8)
        tiered.write("a", b"aaaa")
        with pytest.raises(StorageError, match="capacity"):
            tiered.write("a", b"0123456789")  # oversized replacement
        assert tiered.read("a") == b"aaaa"
        assert tiered.fast_bytes_used() == 4


class _OpLogBackend(InMemoryBackend):
    """In-memory backend recording (tier, op, name) for ordering assertions.

    Pass a shared ``log`` list to two instances to get one global timeline
    across tiers.
    """

    def __init__(self, tier="", log=None):
        super().__init__()
        self.tier = tier
        self.log = [] if log is None else log

    def write(self, name, data):
        self.log.append((self.tier, "write", name))
        super().write(name, data)

    def delete(self, name):
        self.log.append((self.tier, "delete", name))
        super().delete(name)


class TestWriteBackDurabilityWindow:
    """The write-back durability window Tab. 4's interval analysis prices."""

    def _train_write_back(self, steps, fast_capacity=1 << 20):
        fast, slow = _OpLogBackend(), _OpLogBackend()
        tiered = TieredBackend(fast, slow, fast_capacity, policy="write-back")
        store = ChunkStore(tiered)
        model = VQEModel(
            hardware_efficient(2, 1),
            Hamiltonian.transverse_field_ising(2, 1.0, 0.8),
        )
        trainer = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=4))
        manager = ServiceCheckpointManager(store, policy=EveryKSteps(1))
        trainer.run(steps, hooks=[manager])
        manager.close()
        return tiered, fast, slow

    def test_crash_before_flush_loses_dirty_window(self):
        """Unflushed write-back checkpoints die with the fast tier."""
        tiered, fast, slow = self._train_write_back(3)
        dirty = tiered.dirty_objects()
        assert dirty  # every object is still fast-tier-only
        assert slow.write_count == 0
        # Simulated crash: the fast tier (node-local SSD) is gone, no flush.
        survivor = ChunkStore(
            TieredBackend(InMemoryBackend(), slow, 1 << 20)
        )
        assert survivor.jobs() == []  # the whole window was lost

    def test_flush_closes_the_durability_window(self):
        tiered, fast, slow = self._train_write_back(3)
        flushed = tiered.flush()
        assert sorted(flushed) == sorted(set(flushed))
        assert tiered.dirty_objects() == []
        survivor = ChunkStore(
            TieredBackend(InMemoryBackend(), slow, 1 << 20)
        )
        assert survivor.load_snapshot("default").step == 3

    def test_partial_flush_crash_recovers_to_flushed_prefix(self):
        """Crash after an early flush: recovery lands on the flushed state."""
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 1 << 20, policy="write-back")
        store = ChunkStore(tiered)
        model = VQEModel(
            hardware_efficient(2, 1),
            Hamiltonian.transverse_field_ising(2, 1.0, 0.8),
        )
        trainer = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=4))
        manager = ServiceCheckpointManager(store, policy=EveryKSteps(1))
        trainer.run(2, hooks=[manager])
        tiered.flush()  # durability point at step 2
        trainer.run(2, hooks=[manager])
        manager.close()
        assert tiered.dirty_objects()  # steps 3-4 still in the window
        survivor = ChunkStore(
            TieredBackend(InMemoryBackend(), slow, 1 << 20)
        )
        # Manifest and objects are consistent at the flushed prefix.
        assert survivor.checkpoints("default")[-1].step == 2
        fresh_model = VQEModel(
            hardware_efficient(2, 1),
            Hamiltonian.transverse_field_ising(2, 1.0, 0.8),
        )
        fresh = Trainer(fresh_model, Adam(lr=0.1), config=TrainerConfig(seed=4))
        assert ServiceCheckpointManager(survivor).resume(fresh) is not None
        assert fresh.step_count == 2

    def test_eviction_flushes_dirty_victim_before_delete(self):
        """Under byte pressure the dirty LRU victim is flushed, then evicted."""
        shared_log = []
        fast = _OpLogBackend("fast", shared_log)
        slow = _OpLogBackend("slow", shared_log)
        tiered = TieredBackend(fast, slow, 8, policy="write-back")
        tiered.write("a", b"aaaa")
        tiered.write("b", b"bbbb")
        assert shared_log == [("fast", "write", "a"), ("fast", "write", "b")]
        shared_log.clear()
        tiered.write("c", b"cccc")  # evicts 'a' (LRU)
        # One timeline: 'a' reaches the slow tier strictly before it leaves
        # the fast tier — the victim is never in a "neither tier" state.
        assert shared_log == [
            ("slow", "write", "a"),
            ("fast", "delete", "a"),
            ("fast", "write", "c"),
        ]
        assert tiered.dirty_objects() == ["b", "c"]  # victim is clean in slow
        assert tiered.read("a") == b"aaaa"  # served from (and promoted off) slow

    def test_eviction_order_under_sustained_pressure_is_lru(self):
        fast, slow = _OpLogBackend(), _OpLogBackend()
        tiered = TieredBackend(fast, slow, 8, policy="write-back")
        for name in ("a", "b", "c", "d", "e"):
            tiered.write(name, b"xxxx")
        # a, b, c flushed+evicted in LRU order; d, e still dirty-resident.
        assert [name for _, op, name in slow.log if op == "write"] == ["a", "b", "c"]
        assert tiered.dirty_objects() == ["d", "e"]
        assert tiered.fast_bytes_used() == 8
