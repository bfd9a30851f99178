"""What only the QCKPT store does: manifest persistence, delta chains,
transforms, step-based latest and retention.  The job-scoped verbs it shares
with the chunk store are pinned once, over both, by
``tests/test_manager.py::TestJobStoreContract``."""

import numpy as np
import pytest

from repro.core.store import (
    DEFAULT_JOB,
    KIND_DELTA,
    KIND_FULL,
    CheckpointStore,
)
from repro.errors import (
    CheckpointNotFoundError,
    ConfigError,
    IntegrityError,
)
from repro.storage.flaky import FlakyBackend
from repro.storage.memory import InMemoryBackend
from tests.test_snapshot import sample_snapshot


def snapshot_at(step: int):
    return sample_snapshot(step=step)


def records(store):
    return store.checkpoints(DEFAULT_JOB)


def load(store, record):
    return store.load_snapshot(DEFAULT_JOB, record.ckpt_id)


class TestFullCheckpoints:
    def test_record_metadata(self, memory_store):
        record = memory_store.save_full(snapshot_at(5), extra={"tag": "x"})
        assert (record.kind, record.step) == (KIND_FULL, 5)
        assert record.extra == {"tag": "x"}
        assert record.nbytes == memory_store.total_physical_bytes() > 0
        assert len(record.sha256) == 64
        assert record.detail == "full zlib-6"

    def test_latest_by_step(self, memory_store):
        memory_store.save_full(snapshot_at(10))
        newest = memory_store.save_full(snapshot_at(30))
        memory_store.save_full(snapshot_at(20))
        assert memory_store.latest(DEFAULT_JOB) == newest.ckpt_id

    def test_transforms_respected(self, memory_store):
        snapshot = snapshot_at(3)
        lossless = memory_store.save_full(snapshot)
        lossy = memory_store.save_full(
            snapshot, transforms={"statevector": "int8-block"}
        )
        assert lossy.nbytes < lossless.nbytes
        restored = load(memory_store, lossy)
        fidelity = abs(np.vdot(snapshot.statevector, restored.statevector)) ** 2
        assert fidelity > 0.999
        # lossless tensors are untouched by the statevector transform
        assert np.array_equal(restored.params, snapshot.params)


class TestManifestPersistence:
    def test_reopen_continues_id_sequence(self, local_backend):
        store = CheckpointStore(local_backend)
        store.save_full(snapshot_at(1))
        reopened = CheckpointStore(local_backend)
        record = reopened.save_full(snapshot_at(2))
        assert record.ckpt_id == "ckpt-000002"

    def test_corrupt_manifest_rejected(self, local_backend):
        local_backend.write("MANIFEST.json", b"{not json")
        with pytest.raises(IntegrityError):
            CheckpointStore(local_backend)

    def test_wrong_manifest_version_rejected(self, local_backend):
        local_backend.write("MANIFEST.json", b'{"version": 42, "records": []}')
        with pytest.raises(IntegrityError):
            CheckpointStore(local_backend)

    def test_object_written_before_manifest(self):
        """Crash between object write and manifest write leaves an orphan,
        never a dangling manifest entry."""
        inner = InMemoryBackend()
        flaky = FlakyBackend(inner)
        store = CheckpointStore(flaky)
        # Fail the manifest write (second write of save_full).
        flaky.arm("error", fail_on_write=2)
        with pytest.raises(Exception):
            store.save_full(snapshot_at(1))
        reopened = CheckpointStore(inner)
        assert reopened.jobs() == []  # manifest clean
        assert inner.list("ckpt-")  # orphan object exists
        assert reopened.gc()["chunks"] == 1
        assert inner.list("ckpt-") == []  # orphan swept


class TestDeltaChains:
    def _chain(self, store, length=4):
        snapshot = snapshot_at(0)
        record = store.save_full(snapshot)
        snapshots = [snapshot]
        for i in range(1, length):
            nxt = snapshot.copy()
            nxt.step = i
            nxt.params = nxt.params + 0.01 * i
            record = store.save_delta(nxt, record.ckpt_id)
            snapshots.append(nxt)
            snapshot = nxt
        return snapshots

    def test_delta_roundtrip(self, memory_store):
        snapshots = self._chain(memory_store, 4)
        for record, expected in zip(records(memory_store), snapshots):
            assert load(memory_store, record) == expected

    def test_chain_length_and_one_plan_for_the_chain(self, memory_store):
        self._chain(memory_store, 4)
        chain = records(memory_store)
        assert memory_store.chain_length(chain[0].ckpt_id) == 1
        assert memory_store.chain_length(chain[3].ckpt_id) == 4
        assert chain[3].detail == f"delta zlib-6 on {chain[2].ckpt_id}"
        plan = memory_store.plan_restore(DEFAULT_JOB, chain[3].ckpt_id)
        links = plan.links()
        assert [link.checkpoint_id for link in links] == [
            r.ckpt_id for r in chain
        ]
        assert plan.base is links[2] and links[0].base is None
        # one plan is the whole restore: every link's bytes and blocks
        assert plan.fetch_bytes == sum(r.nbytes for r in chain)
        assert plan.n_blocks == sum(len(link.tensors) for link in links)

    def test_delta_smaller_than_full(self, memory_store):
        # Deltas win when most bytes are identical between steps: here a
        # 1024-amplitude statevector is unchanged while only the 12 params
        # move, so the XOR delta is mostly zero runs.
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        snapshot = snapshot_at(0)
        snapshot.statevector = vec / np.linalg.norm(vec)
        record = memory_store.save_full(snapshot)
        nxt = snapshot.copy()
        nxt.step = 1
        nxt.params = nxt.params + 0.01
        delta = memory_store.save_delta(nxt, record.ckpt_id)
        assert delta.kind == KIND_DELTA
        assert delta.nbytes < record.nbytes / 2

    def test_delta_overhead_dominates_tiny_snapshots(self, memory_store):
        # The flip side of the crossover: on a toy snapshot (~3 KB, dominated
        # by JSON meta and the RNG state) the delta's per-tensor metadata can
        # exceed the XOR savings — deltas are a large-state optimization, not
        # a universal one.
        self._chain(memory_store, 3)
        chain = records(memory_store)
        assert chain[1].kind == KIND_DELTA
        assert chain[1].nbytes < chain[0].nbytes * 1.25

    def test_delta_against_missing_base(self, memory_store):
        with pytest.raises(CheckpointNotFoundError):
            memory_store.save_delta(snapshot_at(1), "ckpt-424242")

    def test_delta_with_provided_base_tensors(self, memory_store):
        base = snapshot_at(0)
        record = memory_store.save_full(base)
        _, base_tensors = base.to_payload()
        nxt = base.copy()
        nxt.step = 1
        delta_record = memory_store.save_delta(
            nxt, record.ckpt_id, base_tensors=base_tensors
        )
        assert load(memory_store, delta_record) == nxt

    def test_base_of_a_live_delta_is_deleted_after_it(self, memory_store):
        self._chain(memory_store, 2)
        base, leaf = records(memory_store)
        with pytest.raises(ConfigError, match="depend"):
            memory_store.delete_checkpoint(DEFAULT_JOB, base.ckpt_id)
        memory_store.delete_checkpoint(DEFAULT_JOB, leaf.ckpt_id)
        memory_store.delete_checkpoint(DEFAULT_JOB, base.ckpt_id)
        assert records(memory_store) == []

    def test_chain_with_damaged_base_fails_verification(self, memory_store):
        base = memory_store.save_full(snapshot_at(0))
        nxt = snapshot_at(0).copy()
        nxt.step = 1
        leaf = memory_store.save_delta(nxt, base.ckpt_id)
        data = bytearray(memory_store.backend.read(base.object_name))
        data[-1] ^= 0x01
        memory_store.backend.write(base.object_name, bytes(data))
        ok, detail = memory_store.verify(DEFAULT_JOB, leaf.ckpt_id)
        assert not ok and "SHA-256" in detail


class TestRetention:
    def _populate(self, store, steps):
        for step in steps:
            store.save_full(snapshot_at(step))

    def test_keep_every(self, memory_store):
        self._populate(memory_store, range(1, 11))
        memory_store.gc(keep_last_per_job=1, keep_every=5)
        assert sorted(r.step for r in records(memory_store)) == [5, 10]

    def test_no_policy_keeps_everything(self, memory_store):
        self._populate(memory_store, range(1, 5))
        assert memory_store.gc()["manifests"] == 0
        assert len(records(memory_store)) == 4

    def test_gc_preserves_delta_bases(self, memory_store):
        base_snapshot = snapshot_at(1)
        base = memory_store.save_full(base_snapshot)
        nxt = base_snapshot.copy()
        nxt.step = 9
        memory_store.save_delta(nxt, base.ckpt_id)
        memory_store.gc(keep_last_per_job=1)
        # pinned by the surviving delta
        assert base.ckpt_id in {r.ckpt_id for r in records(memory_store)}

    def test_retention_validation(self, memory_store):
        with pytest.raises(ConfigError):
            memory_store.gc(keep_last_per_job=0)
        with pytest.raises(ConfigError):
            memory_store.gc(keep_every=0)
