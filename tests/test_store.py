"""The QCKPT store is a read-only reader.

``tests/data/qckpt-parent/store`` was written by the last release whose
``CheckpointStore`` wrote (see the README beside it): job ``default`` holds a
full save, an XOR delta on it, a delta on that delta whose loss history grew
(append mode) and an ``int8-block`` lossy full save; job ``other`` one full
save.  ``digests.json`` holds the SHA-256 of every tensor that release
restored.  Every test works on a copy of the directory.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import (
    Adam,
    CheckpointManager,
    Hamiltonian,
    Trainer,
    TrainerConfig,
    VQEModel,
    hardware_efficient,
    open_store,
)
from repro.core.restore import WARM_START_TENSORS
from repro.core.store import KIND_DELTA, KIND_FULL, CheckpointStore
from repro.errors import (
    CheckpointNotFoundError,
    ConfigError,
    IntegrityError,
    ReadOnlyStoreError,
    ReproError,
    SerializationError,
    StorageError,
)
from repro.storage.flaky import FlakyBackend
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.replicated import ReplicatedBackend
from repro.storage.sharded import ShardedBackend
from repro.storage.tiered import TieredBackend
from tests.test_snapshot import sample_snapshot

FIXTURE = Path(__file__).parent / "data" / "qckpt-parent"
DIGESTS = json.loads((FIXTURE / "digests.json").read_text())

# Every backend a chunk store runs on, built fresh for one test.
BACKENDS = {
    "memory": lambda tmp_path: InMemoryBackend(),
    "local": lambda tmp_path: LocalDirectoryBackend(tmp_path / "backend"),
    "sharded": lambda tmp_path: ShardedBackend(
        [InMemoryBackend() for _ in range(3)]
    ),
    "tiered": lambda tmp_path: TieredBackend(
        InMemoryBackend(), InMemoryBackend(), fast_capacity_bytes=1 << 20
    ),
    "replicated": lambda tmp_path: ReplicatedBackend(
        [InMemoryBackend() for _ in range(3)]
    ),
}


def chain_of(key):
    """Ids of ``key``'s delta chain, full base first."""
    job, ckpt_id = key.split("/")
    chain = []
    while ckpt_id is not None:
        chain.insert(0, ckpt_id)
        ckpt_id = DIGESTS[f"{job}/{ckpt_id}"]["base_id"]
    return chain


def copy_fixture(tmp_path) -> Path:
    """A private copy of the fixture store (tests may damage it)."""
    root = tmp_path / "qckpt"
    shutil.copytree(FIXTURE / "store", root)
    return root


def fixture_into(backend):
    """``backend`` holding the fixture store's objects; returns it."""
    disk = LocalDirectoryBackend(FIXTURE / "store")
    for name in disk.list():
        backend.write(name, disk.read(name))
    return backend


@pytest.fixture
def qckpt_root(tmp_path):
    return copy_fixture(tmp_path)


@pytest.fixture
def store(qckpt_root):
    return open_store(qckpt_root)


@pytest.fixture(params=list(BACKENDS))
def on_backend(request, tmp_path):
    """The fixture store's objects on one of ``BACKENDS``."""
    return fixture_into(BACKENDS[request.param](tmp_path))


def assert_digests(key, tensors, names=None):
    """``tensors`` are bitwise what the writing release restored for
    ``key`` (``job/ckpt-id``), restricted to ``names`` when given."""
    want = DIGESTS[key]["tensors"]
    assert set(tensors) == set(want if names is None else names)
    for name, array in tensors.items():
        assert np.dtype(array.dtype).str == want[name]["dtype"], name
        assert list(array.shape) == want[name]["shape"], name
        digest = hashlib.sha256(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == want[name]["sha256"], name


def flip_byte(path: Path, offset: int = -1) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))


def damage(backend, name: str, how: str) -> None:
    """Tear (truncate) or bit-rot the object ``name`` in ``backend``."""
    data = bytearray(backend.read(name))
    if how == "torn":
        data = data[: len(data) // 2]
    else:
        data[len(data) // 2] ^= 0xFF
    backend.write(name, bytes(data))


class TestFullCheckpoints:
    def test_record_metadata(self, store):
        records = store.checkpoints("default")
        assert [(r.ckpt_id, r.kind, r.step) for r in records] == [
            ("ckpt-000001", KIND_FULL, 10),
            ("ckpt-000002", KIND_DELTA, 11),
            ("ckpt-000003", KIND_DELTA, 12),
            ("ckpt-000004", KIND_FULL, 13),
        ]
        assert records[0].extra == {}  # written before jobs were recorded
        assert records[2].detail == "delta zlib-6 on ckpt-000002"
        assert all(len(r.sha256) == 64 for r in records)
        everything = records + store.checkpoints("other")
        assert sum(r.nbytes for r in everything) == store.total_physical_bytes()

    def test_latest_by_step(self, qckpt_root):
        # Commit order is not what "latest" means: move the step-13 record
        # to the front of the manifest and it is still the latest.
        manifest_path = qckpt_root / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        records = manifest["records"]
        records.insert(0, records.pop(3))
        manifest_path.write_text(json.dumps(manifest))
        store = open_store(qckpt_root)
        assert store.checkpoints("default")[0].ckpt_id == "ckpt-000004"
        assert store.latest("default") == "ckpt-000004"

    def test_transforms_respected(self, store):
        plan = store.plan_restore("default", "ckpt-000004")
        assert plan.tensors["statevector"].transform == "int8-block"
        assert plan.tensors["params"].transform == "identity"
        # the lossy object decodes to what the writing release decoded
        assert_digests(
            "default/ckpt-000004", store.load_tensors("default", "ckpt-000004")[1]
        )


class TestManifestPersistence:
    def test_corrupt_manifest_rejected(self, local_backend):
        local_backend.write("MANIFEST.json", b"{not json")
        with pytest.raises(IntegrityError):
            CheckpointStore(local_backend)

    def test_wrong_manifest_version_rejected(self, local_backend):
        local_backend.write("MANIFEST.json", b'{"version": 42, "records": []}')
        with pytest.raises(IntegrityError):
            CheckpointStore(local_backend)


class TestDeltaChains:
    def test_delta_roundtrip(self, store):
        for key in DIGESTS:
            job, ckpt_id = key.split("/")
            assert_digests(key, store.load_tensors(job, ckpt_id)[1])
            assert store.verify(job, ckpt_id) == (True, "ok")

    def test_one_plan_for_the_chain(self, store):
        plan = store.plan_restore("default", "ckpt-000003")
        links = plan.links()
        assert [link.checkpoint_id for link in links] == [
            "ckpt-000001",
            "ckpt-000002",
            "ckpt-000003",
        ]
        assert [link.base_id for link in links] == [
            None,
            "ckpt-000001",
            "ckpt-000002",
        ]
        assert plan.base is links[1] and links[0].base is None
        # one plan is the whole restore: every link's bytes and blocks
        chain = store.checkpoints("default")[:3]
        assert plan.fetch_bytes == sum(r.nbytes for r in chain)
        assert plan.n_blocks == sum(len(link.tensors) for link in links)

    def test_chain_with_damaged_base_fails_verification(self, qckpt_root):
        flip_byte(qckpt_root / "ckpt-000001.qckpt")
        ok, detail = open_store(qckpt_root).verify("default", "ckpt-000003")
        assert not ok and "SHA-256" in detail

    def test_damaged_delta_base_skips_its_chain(self, qckpt_root):
        # The newest (full) save and the middle link both damaged: the
        # delta on that link goes with it, and the walk lands on the base.
        for name in ("ckpt-000004.qckpt", "ckpt-000002.qckpt"):
            flip_byte(qckpt_root / name)
        ckpt_id, snapshot, skipped = open_store(qckpt_root).latest_valid("default")
        assert ckpt_id == "ckpt-000001"
        assert_digests("default/ckpt-000001", snapshot.to_payload()[1])
        assert [bad for bad, _ in skipped] == [
            "ckpt-000004",
            "ckpt-000003",
            "ckpt-000002",
        ]


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


class TestRecovery:
    def test_open_store_detects_it_and_latest_valid_is_bitwise(self, store):
        assert type(store) is CheckpointStore
        assert store.jobs() == ["default", "other"]
        for job, want in (("default", "ckpt-000004"), ("other", "ckpt-000005")):
            ckpt_id, snapshot, skipped = store.latest_valid(job)
            assert (ckpt_id, skipped) == (want, [])
            assert_digests(f"{job}/{ckpt_id}", snapshot.to_payload()[1])

    def test_partial_restore_through_the_chain(self, store):
        # params are XOR links; loss_history's last link is an append.
        names = ["params", "loss_history"]
        meta, tensors = store.load_tensors("default", "ckpt-000003", names)
        assert meta["step"] == 12
        assert_digests("default/ckpt-000003", tensors, names)
        plan = store.plan_restore("default", "ckpt-000003", ["params"])
        assert [set(link.tensors) for link in plan.links()] == [{"params"}] * 3
        full = store.plan_restore("default", "ckpt-000003")
        assert plan.fetch_bytes == full.fetch_bytes

    def test_partial_restore_reads_each_link_whole(self):
        # Bytes the backend actually serves through the three-link chain: a
        # params-only restore reads each link's object whole, once, exactly
        # as a full one does; planning either reads the same.
        backend = fixture_into(InMemoryBackend())
        store = CheckpointStore(backend)
        tip = ("default", "ckpt-000003")
        whole = sum(r.nbytes for r in store.checkpoints("default")[:3])
        for names in (["params"], None):
            backend.reset_counters()
            plan = store.plan_restore(*tip, names)
            assert backend.bytes_read == plan.fetch_bytes == whole
            backend.reset_counters()
            store.load_tensors(*tip, names)
            assert (backend.bytes_read, backend.read_count) == (whole, 3)

    def test_byte_flipped_object_is_skipped_and_named(self, qckpt_root):
        # One flipped byte inside the newest statevector's stored chunk:
        # the full walk and the partial one both skip it on its SHA-256.
        plan = open_store(qckpt_root).plan_restore(
            "default", "ckpt-000004", ["statevector"]
        )
        block = plan.tensors["statevector"].blocks[0]
        flip_byte(
            qckpt_root / block.object_name, block.start + block.stored_nbytes // 2
        )
        store = open_store(qckpt_root)
        ckpt_id, snapshot, skipped = store.latest_valid("default")
        assert ckpt_id == "ckpt-000003"
        assert_digests("default/ckpt-000003", snapshot.to_payload()[1])
        assert [bad for bad, _ in skipped] == ["ckpt-000004"]
        ckpt_id, tensors, skipped = store.latest_valid_partial(
            "default", ["statevector"]
        )
        assert ckpt_id == "ckpt-000003"
        assert_digests("default/ckpt-000003", tensors, ["statevector"])
        assert [bad for bad, _ in skipped] == ["ckpt-000004"]


class TestReadOnly:
    def test_every_write_raises_one_typed_error(self, qckpt_root, store):
        before = {p.name: p.read_bytes() for p in qckpt_root.iterdir()}
        writes = [
            lambda: store.save_snapshot("default", sample_snapshot(step=14)),
            lambda: store.gc(keep_last_per_job=1),
            lambda: store.gc(),
            lambda: store.delete_checkpoint("default", "ckpt-000001"),
        ]
        for write in writes:
            with pytest.raises(ReadOnlyStoreError, match="read-only"):
                write()
        assert issubclass(ReadOnlyStoreError, ReproError)
        after = {p.name: p.read_bytes() for p in qckpt_root.iterdir()}
        assert after == before

    def test_laying_out_a_chunk_store_over_it_is_refused(self, qckpt_root):
        # open_store(dir, shards=N) creates or reopens a chunk store; over a
        # QCKPT directory it would hide the old checkpoints behind shard-0/.
        before = sorted(p.name for p in qckpt_root.iterdir())
        for shards in (1, 2):
            with pytest.raises(ReadOnlyStoreError, match="read-only"):
                open_store(qckpt_root, shards=shards)
        assert sorted(p.name for p in qckpt_root.iterdir()) == before
        assert type(open_store(qckpt_root)) is CheckpointStore

    def test_a_trainer_warm_starts_from_it_but_cannot_save_to_it(self, store):
        model = VQEModel(hardware_efficient(2, 3), Hamiltonian.h2_minimal())
        trainer = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=1))
        manager = CheckpointManager(store)
        assert manager.resume(trainer, mode="warm-start") == "ckpt-000004"
        assert_digests("default/ckpt-000004", {"params": trainer.params}, ["params"])
        with pytest.raises(ReadOnlyStoreError):
            manager.save(trainer.capture())


class TestReadVerbsOnEveryBackend:
    """The read half of ``TestJobStoreContract`` (tests/test_manager.py),
    answered by the reader over each backend in ``BACKENDS``."""

    def test_latest_valid_is_bitwise(self, on_backend):
        store = CheckpointStore(on_backend)
        for job, want in (("default", "ckpt-000004"), ("other", "ckpt-000005")):
            ckpt_id, snapshot, skipped = store.latest_valid(job)
            assert (ckpt_id, skipped) == (want, [])
            assert_digests(f"{job}/{ckpt_id}", snapshot.to_payload()[1])

    @pytest.mark.parametrize("how", ["torn", "rot"])
    def test_damaged_newest_is_skipped_and_named(self, on_backend, how):
        for name in ("ckpt-000004.qckpt", "ckpt-000003.qckpt"):
            damage(on_backend, name, how)
        store = CheckpointStore(on_backend)
        ckpt_id, snapshot, skipped = store.latest_valid("default")
        assert ckpt_id == "ckpt-000002"
        assert_digests("default/ckpt-000002", snapshot.to_payload()[1])
        assert [bad for bad, _ in skipped] == ["ckpt-000004", "ckpt-000003"]
        # verify says the same of each, one by one
        assert store.verify("default", "ckpt-000002") == (True, "ok")
        ok, detail = store.verify("default", "ckpt-000003")
        assert not ok and detail
        # a parameters-only probe skips the same two: each object is
        # checked whole, whatever tensors are asked for
        ckpt_id, tensors, skipped = store.latest_valid_partial(
            "default", ["params"]
        )
        assert ckpt_id == "ckpt-000002"
        assert [bad for bad, _ in skipped] == ["ckpt-000004", "ckpt-000003"]
        assert_digests("default/ckpt-000002", tensors, ["params"])
        # with every checkpoint of the job damaged there is nothing, all
        # four are named, and the other job is untouched
        for name in ("ckpt-000002.qckpt", "ckpt-000001.qckpt"):
            damage(on_backend, name, how)
        ckpt_id, snapshot, skipped = store.latest_valid("default")
        assert (ckpt_id, snapshot, len(skipped)) == (None, None, 4)
        assert store.latest_valid("other")[0] == "ckpt-000005"

    def test_every_checkpoint_and_every_tensor_alone_is_bitwise(
        self, on_backend
    ):
        # full, XOR / append delta links and the lossy int8-block save
        store = CheckpointStore(on_backend)
        for key in DIGESTS:
            job, ckpt_id = key.split("/")
            assert_digests(key, store.load_tensors(job, ckpt_id)[1])
            for name in DIGESTS[key]["tensors"]:
                tensors = store.load_tensors(job, ckpt_id, [name])[1]
                assert_digests(key, tensors, [name])

    def test_partial_returns_only_the_named_tensors(self, on_backend):
        store = CheckpointStore(on_backend)
        ckpt_id, tensors, skipped = store.latest_valid_partial(
            "default", WARM_START_TENSORS
        )
        assert (ckpt_id, skipped) == ("ckpt-000004", [])
        assert list(tensors) == ["params"]
        assert_digests("default/ckpt-000004", tensors, ["params"])
        with pytest.raises(ConfigError, match="at least one"):
            store.latest_valid_partial("default", [])

    def test_listing_is_commit_ordered(self, on_backend):
        store = CheckpointStore(on_backend)
        assert store.jobs() == ["default", "other"]
        records = store.checkpoints("default")
        assert [r.ckpt_id for r in records] == [
            "ckpt-000001",
            "ckpt-000002",
            "ckpt-000003",
            "ckpt-000004",
        ]
        assert [r.step for r in records] == [10, 11, 12, 13]
        assert all(r.nbytes > 0 and r.created > 0 and r.detail for r in records)
        assert store.latest("default") == "ckpt-000004"
        assert store.latest("other") == "ckpt-000005"
        objects = [n for n in on_backend.list("") if n.endswith(".qckpt")]
        assert store.total_physical_bytes() == sum(
            len(on_backend.read(name)) for name in objects
        )

    def test_plan_restore_accounts_full_and_params_only(self, on_backend):
        store = CheckpointStore(on_backend)
        full = store.plan_restore("other")
        params = store.plan_restore("other", names=["params"])
        assert (full.requested, params.requested) == (None, ("params",))
        assert list(params.tensors) == ["params"]
        assert (full.step, full.checkpoint_id) == (3, "ckpt-000005")
        assert 0 < params.n_blocks < full.n_blocks
        # one object, read whole either way
        (record,) = store.checkpoints("other")
        assert params.fetch_bytes == full.fetch_bytes == record.nbytes
        assert params.total_stored_bytes == full.total_stored_bytes
        assert full.total_stored_bytes == record.nbytes

    def test_damage_in_an_unrequested_chunk_fails_a_partial_restore(
        self, on_backend
    ):
        # One flipped bit inside the newest checkpoint's statevector chunk.
        # A params-only restore never decodes that chunk, but it reads the
        # object whole and checks its SHA-256, so the damage fails it and
        # the parameters-only walk steps back to the previous checkpoint.
        plan = CheckpointStore(on_backend).plan_restore(
            "default", "ckpt-000004", ["statevector"]
        )
        block = plan.tensors["statevector"].blocks[0]
        data = bytearray(on_backend.read(block.object_name))
        data[block.start + block.stored_nbytes // 2] ^= 0x01
        on_backend.write(block.object_name, bytes(data))
        store = CheckpointStore(on_backend)
        with pytest.raises(IntegrityError, match="SHA-256"):
            store.load_tensors("default", "ckpt-000004", ["params"])
        ckpt_id, tensors, skipped = store.latest_valid_partial(
            "default", WARM_START_TENSORS
        )
        assert ckpt_id == "ckpt-000003"
        assert [bad for bad, _ in skipped] == ["ckpt-000004"]
        assert_digests("default/ckpt-000003", tensors, ["params"])

    def test_load_tensors_subset_unknown_name_and_none(self, on_backend):
        store = CheckpointStore(on_backend)
        tip = ("default", "ckpt-000003")
        snapshot = store.load_snapshot(*tip)
        assert_digests("default/ckpt-000003", snapshot.to_payload()[1])
        meta, tensors = store.load_tensors(
            *tip, names=["params", "loss_history", "params"]
        )
        assert meta["step"] == 12
        assert sorted(tensors) == ["loss_history", "params"]
        assert_digests("default/ckpt-000003", tensors, ["loss_history", "params"])
        with pytest.raises(SerializationError, match="ghost"):
            store.load_tensors(*tip, names=["params", "ghost"])
        assert store.load_tensors(*tip, names=[])[1] == {}

    def test_unknown_job(self, on_backend):
        store = CheckpointStore(on_backend)
        assert store.latest_valid("b") == (None, None, [])
        assert store.latest_valid_partial("b", ["params"]) == (None, None, [])
        assert (store.checkpoints("b"), store.latest("b")) == ([], None)
        for read in (store.plan_restore, store.load_tensors, store.load_snapshot):
            with pytest.raises(CheckpointNotFoundError):
                read("b")
            with pytest.raises(CheckpointNotFoundError):
                read("default", "ckpt-000404")
            with pytest.raises(CheckpointNotFoundError):
                read("other", "ckpt-000001")  # another job's checkpoint
        assert not store.verify("b", "ckpt-000001")[0]

    def test_writes_are_refused_and_change_nothing(self, on_backend):
        before = {name: on_backend.read(name) for name in on_backend.list("")}
        store = CheckpointStore(on_backend)
        writes = [
            lambda: store.save_snapshot("other", sample_snapshot(step=4)),
            lambda: store.gc(keep_last_per_job=1),
            lambda: store.delete_checkpoint("other", "ckpt-000005"),
        ]
        for write in writes:
            with pytest.raises(ReadOnlyStoreError):
                write()
        after = {name: on_backend.read(name) for name in on_backend.list("")}
        assert after == before


class TestEveryTensorAlone:
    """Each tensor of each checkpoint restored on its own: a full record,
    XOR and append delta entries at every depth of the chain, the lossy
    ``int8-block`` statevector and an integer permutation."""

    @pytest.mark.parametrize(
        "key,name",
        [(key, name) for key in DIGESTS for name in DIGESTS[key]["tensors"]],
    )
    def test_restores_bitwise_through_its_chain(self, store, key, name):
        job, ckpt_id = key.split("/")
        meta, tensors = store.load_tensors(job, ckpt_id, [name])
        assert meta["step"] == DIGESTS[key]["step"]
        assert_digests(key, tensors, [name])
        plan = store.plan_restore(job, ckpt_id, [name])
        links = plan.links()
        assert [link.checkpoint_id for link in links] == chain_of(key)
        assert all(set(link.tensors) <= {name} for link in links)
        # every link is read whole, whatever it stores of ``name``
        full = store.plan_restore(job, ckpt_id)
        assert plan.fetch_bytes == full.fetch_bytes
