"""One contract for the store's job verbs, and one test of the trainer hook
over both writers."""

import numpy as np
import pytest

from repro.core.policy import EveryKSteps, FixedTimeInterval
from repro.core.restore import WARM_START_TENSORS
from repro.core.snapshot import TrainingSnapshot
from repro.errors import (
    CheckpointNotFoundError,
    ConfigError,
    IncompatibleCheckpointError,
    ReproError,
    SerializationError,
)
from repro.faults.injector import SimulatedClock
from repro.service.chunkstore import ChunkStore
from repro.service.manager import ServiceCheckpointManager
from repro.service.pool import WriterPool
from repro.storage.flaky import FlakyBackend
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.sharded import ShardedBackend
from tests.test_snapshot import sample_snapshot
from tests.test_trainer import make_classifier_trainer, make_vqe_trainer


def _damage(backend, names, how):
    """Tear (truncate) or bit-rot the payload objects in ``names``."""
    for name in names:
        data = bytearray(backend.read(name))
        if how == "torn":
            data = data[: len(data) // 2]
        elif name.endswith(".json"):
            continue  # rot hits payload bytes; manifests carry no checksum
        else:
            data[len(data) // 2] ^= 0xFF
        backend.write(name, bytes(data))


def _save_damaged(store, job_id, snapshot, how):
    """Save ``snapshot`` and damage every object that save added."""
    before = set(store.backend.list(""))
    record = store.save_snapshot(job_id, snapshot)
    _damage(store.backend, set(store.backend.list("")) - before, how)
    return record


BACKENDS = {
    "InMemoryBackend": lambda tmp_path: InMemoryBackend(),
    "sharded": lambda tmp_path: ShardedBackend(
        [InMemoryBackend(), InMemoryBackend()]
    ),
    "local": lambda tmp_path: LocalDirectoryBackend(tmp_path / "store"),
}


@pytest.fixture(params=list(BACKENDS))
def new_store(request, tmp_path):
    """A chunk store over a fresh backend."""
    return lambda: ChunkStore(BACKENDS[request.param](tmp_path))


class TestJobStoreContract:
    """What the store promises above the backend: everything a trainer
    hook, the CLI, the daemon and the chaos sweep ask of it."""

    def test_save_then_latest_valid_is_bitwise(self, new_store):
        store = new_store()
        store.save_snapshot("a", sample_snapshot(step=1))
        newest = sample_snapshot(step=2)
        store.save_snapshot("a", newest)
        ckpt_id, snapshot, skipped = store.latest_valid("a")
        assert (ckpt_id, skipped) == ("ckpt-000002", [])
        assert snapshot == newest

    @pytest.mark.parametrize("how", ["torn", "rot"])
    def test_damaged_newest_is_skipped_and_named(self, new_store, how):
        store = new_store()
        good = sample_snapshot(step=1)
        store.save_snapshot("a", good)
        first = store.backend.list("")
        for step in (2, 3):
            _save_damaged(store, "a", sample_snapshot(step=step), how)
        ckpt_id, snapshot, skipped = store.latest_valid("a")
        assert ckpt_id == "ckpt-000001" and snapshot == good
        assert [bad for bad, _ in skipped] == ["ckpt-000003", "ckpt-000002"]
        # verify says the same of each, one by one
        assert store.verify("a", "ckpt-000001") == (True, "ok")
        ok, detail = store.verify("a", "ckpt-000003")
        assert not ok and detail
        # a parameters-only probe may read past rot elsewhere in an object,
        # but what it returns is bitwise that checkpoint's
        ckpt_id, tensors, _ = store.latest_valid_partial("a", ["params"])
        expected = sample_snapshot(step=int(ckpt_id[-1])).params
        assert np.array_equal(tensors["params"], expected)
        # with every checkpoint damaged there is nothing, and all are named
        _damage(store.backend, first, how)
        ckpt_id, snapshot, skipped = store.latest_valid("a")
        assert (ckpt_id, snapshot, len(skipped)) == (None, None, 3)

    def test_partial_returns_only_the_named_tensors(self, new_store):
        store = new_store()
        snapshot = sample_snapshot(step=4)
        store.save_snapshot("a", snapshot)
        ckpt_id, tensors, skipped = store.latest_valid_partial(
            "a", WARM_START_TENSORS
        )
        assert (ckpt_id, skipped) == ("ckpt-000001", [])
        assert list(tensors) == ["params"]
        assert np.array_equal(tensors["params"], snapshot.params)
        with pytest.raises(ConfigError, match="at least one"):
            store.latest_valid_partial("a", [])

    def test_listing_is_commit_ordered_and_survives_reopen(self, new_store):
        store = new_store()
        saved = [
            (job, store.save_snapshot(job, sample_snapshot(step=step)))
            for job, step in (("a", 1), ("b", 5), ("a", 2))
        ]
        assert store.jobs() == ["a", "b"]
        for reader in (store, ChunkStore(store.backend)):
            records = reader.checkpoints("a")
            assert [r.ckpt_id for r in records] == [
                r.ckpt_id for job, r in saved if job == "a"
            ]
            assert [r.step for r in records] == [1, 2]
            assert all(r.nbytes > 0 and r.created > 0 and r.detail for r in records)
            assert reader.latest("a") == records[-1].ckpt_id
            assert reader.latest("b") == saved[1][1].ckpt_id
            assert reader.total_physical_bytes() > 0

    def test_plan_restore_accounts_full_and_params_only(self, new_store):
        store = new_store()
        store.save_snapshot("a", sample_snapshot(step=3))
        full = store.plan_restore("a")
        params = store.plan_restore("a", names=["params"])
        assert (full.requested, params.requested) == (None, ("params",))
        assert list(params.tensors) == ["params"]
        assert (full.step, full.checkpoint_id) == (3, store.latest("a"))
        assert 0 < params.n_blocks < full.n_blocks
        assert 0 < params.fetch_bytes < full.fetch_bytes
        assert full.fetch_bytes <= full.total_stored_bytes
        assert params.total_stored_bytes == full.total_stored_bytes

    def test_load_tensors_subset_unknown_name_and_none(self, new_store):
        store = new_store()
        snapshot = sample_snapshot(step=4)
        store.save_snapshot("a", snapshot)
        assert store.load_snapshot("a") == snapshot
        meta, tensors = store.load_tensors(
            "a", names=["params", "loss_history", "params"]
        )
        assert meta["step"] == 4
        assert sorted(tensors) == ["loss_history", "params"]
        assert np.array_equal(tensors["params"], snapshot.params)
        with pytest.raises(SerializationError, match="ghost"):
            store.load_tensors("a", names=["params", "ghost"])
        assert store.load_tensors("a", names=[])[1] == {}

    def test_delete_checkpoint_then_latest(self, new_store):
        store = new_store()
        first, second = (
            store.save_snapshot("a", sample_snapshot(step=step))
            for step in (1, 2)
        )
        store.delete_checkpoint("a", second.ckpt_id)
        assert store.latest("a") == first.ckpt_id
        assert store.latest_valid("a")[1] == sample_snapshot(step=1)
        with pytest.raises(CheckpointNotFoundError):
            store.load_snapshot("a", second.ckpt_id)
        store.delete_checkpoint("a", first.ckpt_id)
        assert (store.jobs(), store.latest("a")) == ([], None)

    def test_gc_keeps_the_last_of_each_job(self, new_store):
        store = new_store()
        for step in (1, 2, 3):
            store.save_snapshot("a", sample_snapshot(step=step))
        store.save_snapshot("b", sample_snapshot(step=9))
        before = store.total_physical_bytes()
        deleted = store.gc(keep_last_per_job=1)
        assert deleted["manifests"] == 2 and deleted["chunks"] > 0
        assert deleted["bytes"] == before - store.total_physical_bytes() > 0
        assert [r.step for r in store.checkpoints("a")] == [3]
        assert store.latest_valid("a")[1] == sample_snapshot(step=3)
        assert store.latest_valid("b")[1] == sample_snapshot(step=9)
        assert store.gc() == {"manifests": 0, "chunks": 0, "bytes": 0}
        with pytest.raises(ConfigError):
            store.gc(keep_last_per_job=0)

    def test_unknown_job(self, new_store):
        store = new_store()
        store.save_snapshot("a", sample_snapshot(step=1))
        assert store.latest_valid("b") == (None, None, [])
        assert store.latest_valid_partial("b", ["params"]) == (None, None, [])
        assert (store.checkpoints("b"), store.latest("b")) == ([], None)
        for read in (store.plan_restore, store.load_tensors, store.load_snapshot):
            with pytest.raises(CheckpointNotFoundError):
                read("b")
            with pytest.raises(CheckpointNotFoundError):
                read("a", "ckpt-000404")
        assert not store.verify("b", "ckpt-000001")[0]

    def test_two_jobs_each_get_their_own_newest(self, new_store):
        store = new_store()
        a, b = sample_snapshot(step=9), sample_snapshot(step=2)
        store.save_snapshot("a", sample_snapshot(step=8))
        store.save_snapshot("b", b)
        store.save_snapshot("a", a)
        assert store.latest_valid("a")[1] == a
        assert store.latest_valid("b")[1] == b


@pytest.fixture
def store():
    return ChunkStore(FlakyBackend(InMemoryBackend()))


@pytest.fixture(params=["inline", "pool"])
def channel(request):
    """``None`` (the manager's inline writer) or a one-worker pool channel."""
    if request.param == "inline":
        yield None
        return
    pool = WriterPool(1)
    yield pool.channel("job")
    pool.close()


class TestManager:
    def test_policy_drives_saves(self, store, channel):
        trainer = make_vqe_trainer()
        manager = ServiceCheckpointManager(
            store, "job", channel, policy=EveryKSteps(4)
        )
        trainer.run(12, hooks=[manager])
        manager.close()
        assert manager.stats.saves == 3 and manager.stats.lite_saves == 0
        assert manager.stats.bytes_written > 0
        assert manager.stats.last_record.step == 12
        assert store.latest_valid("job")[1] == trainer.capture()

    def test_save_copies_the_callers_snapshot_but_the_hook_does_not(
        self, store, channel, monkeypatch
    ):
        manager = ServiceCheckpointManager(store, "job", channel)
        copies = []
        original = TrainingSnapshot.copy
        monkeypatch.setattr(
            TrainingSnapshot,
            "copy",
            lambda self: copies.append(self.step) or original(self),
        )
        # the hook queues Trainer.capture()'s deep copies as they are, and
        # later training cannot reach what it queued
        trainer = make_vqe_trainer()
        trainer.run(2, hooks=[manager])
        at_two = trainer.capture()
        trainer.run(3)
        manager.channel.drain()
        assert copies == []
        assert store.latest_valid("job")[1] == at_two
        # save() takes a snapshot the caller still owns: mutating it right
        # after the call must not reach the store
        snapshot = sample_snapshot(step=7)
        expected = original(snapshot)
        manager.save(snapshot)
        snapshot.params += 1.0
        manager.close()
        assert copies == [7]
        assert store.latest_valid("job")[1] == expected

    def test_time_based_policy_with_fake_clock(self, store, channel):
        clock = SimulatedClock()
        manager = ServiceCheckpointManager(
            store,
            "job",
            channel,
            policy=FixedTimeInterval(10.0, clock=clock),
            clock=clock,
        )

        class Ticker:
            def on_step_end(self, trainer, info):
                clock.advance(3.0)

        make_vqe_trainer().run(10, hooks=[Ticker(), manager])
        manager.close()
        # 10 steps x 3s = 30s; interval 10s -> roughly 3 saves
        assert 2 <= manager.stats.saves <= 4

    def test_resume_exact_and_warm_start(self, store, channel):
        trainer = make_vqe_trainer()
        manager = ServiceCheckpointManager(
            store, "job", channel, policy=EveryKSteps(3)
        )
        trainer.run(6, hooks=[manager])
        manager.close()

        exact = make_vqe_trainer()
        assert manager.resume(exact) == "ckpt-000002"
        assert exact.capture() == trainer.capture()

        warm = make_vqe_trainer()
        assert manager.resume(warm, mode="warm-start") == "ckpt-000002"
        assert warm.step_count == 0
        assert np.array_equal(warm.params, trainer.params)

        with pytest.raises(ConfigError, match="mode"):
            manager.resume(exact, mode="lukewarm")
        # a snapshot of another model is a caller bug, not damage to skip
        with pytest.raises(IncompatibleCheckpointError):
            manager.resume(make_classifier_trainer())

    def test_nothing_to_resume(self, store, channel):
        manager = ServiceCheckpointManager(store, "job", channel)
        for mode in ("exact", "warm-start"):
            assert manager.resume(make_vqe_trainer(), mode=mode) is None
            with pytest.raises(CheckpointNotFoundError, match="'job'"):
                manager.resume(make_vqe_trainer(), mode=mode, required=True)
        manager.close()

    def test_write_failure_surfaces_exactly_once(self, store, channel):
        manager = ServiceCheckpointManager(store, "job", channel)
        store.backend.arm("error", fail_on_write=1)
        # inline: from the save itself; off-thread: no later than close
        with pytest.raises(ReproError, match="injected|failed"):
            manager.save(sample_snapshot(step=1))
            manager.close()
        manager.close()
        assert store.latest_valid("job") == (None, None, [])
