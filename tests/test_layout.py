"""The detection table of ``repro.storage.layout`` / ``repro.open_store``:
what a directory holds is read off the directory, never told."""

import shutil

import pytest

from repro import open_store
from repro.core.store import CheckpointStore
from repro.errors import ReproError
from repro.service.chunkstore import ChunkStore
from repro.storage import layout
from repro.storage.local import LocalDirectoryBackend
from repro.storage.replicated import ReplicatedBackend
from repro.storage.sharded import ShardedBackend
from tests.test_snapshot import sample_snapshot
from tests.test_store import FIXTURE, assert_digests

SNAPSHOT = sample_snapshot(step=3)


def _qckpt(root):
    shutil.copytree(FIXTURE / "store", root)  # what an earlier release wrote


def _chunks(root, shards=None, **options):
    store = (
        ChunkStore(LocalDirectoryBackend(root))
        if shards is None
        else open_store(root, shards=shards, **options)
    )
    store.save_snapshot("a", SNAPSHOT)


def _dirs(backend):
    """Directory name(s) a backend reads: one, or a list when sharded."""
    if isinstance(backend, ShardedBackend):
        return [shard.root.name for shard in backend.shards]
    return backend.root.name


@pytest.mark.parametrize(
    "build, store_cls, dirs",
    [
        (_qckpt, CheckpointStore, "s"),
        (_chunks, ChunkStore, "s"),
        (lambda root: _chunks(root, 1), ChunkStore, "shard-0"),
        (lambda root: _chunks(root, 3), ChunkStore, ["shard-0", "shard-1", "shard-2"]),
    ],
    ids=["qckpt", "flat-chunks", "one-shard", "three-shards"],
)
def test_reopens_what_was_written(tmp_path, build, store_cls, dirs):
    build(tmp_path / "s")
    store = open_store(tmp_path / "s")
    assert type(store) is store_cls and _dirs(store.backend) == dirs
    if store_cls is CheckpointStore:
        ckpt_id, snapshot, _ = store.latest_valid("other")
        assert_digests(f"other/{ckpt_id}", snapshot.to_payload()[1])
    else:
        assert store.load_snapshot("a") == SNAPSHOT


def test_several_roots_are_replicas_that_readers_do_not_repair(tmp_path):
    roots = [tmp_path / "r0", tmp_path / "r1"]
    for root in roots:
        _chunks(root, 2)
    store = open_store(roots)
    assert isinstance(store.backend, ReplicatedBackend)
    assert not store.backend.read_repair
    assert all(isinstance(r, ShardedBackend) for r in store.backend.replicas)
    assert store.load_snapshot("a") == SNAPSHOT


def test_index_and_journal_are_found_where_the_daemon_puts_them(
    tmp_path, monkeypatch
):
    monkeypatch.delenv("QCKPT_METADB", raising=False)  # it outranks the file
    root = tmp_path / "svc"
    _chunks(root, 2, index=True, fast_bytes=1 << 16, owner="d1")
    assert layout.index_path(root).exists()
    assert layout.placement_journal(root).pinned_names()  # newest manifest
    assert open_store(root).metadb is not None  # the file is the switch
    assert open_store(root, index=False).metadb is None
    assert layout.placement_journal(tmp_path) is None
    assert layout.control_dir(root).parent == layout.obs_dir(root).parent == root


def test_what_is_not_one_store_is_refused_by_name(tmp_path):
    both = tmp_path / "both"
    _qckpt(both)
    _chunks(both)
    with pytest.raises(ReproError, match="found both"):
        open_store(both)
    (tmp_path / "empty").mkdir()
    with pytest.raises(ReproError, match="neither among its 0 object"):
        open_store(tmp_path / "empty")
    (tmp_path / "file").write_bytes(b"x")
    for missing in (tmp_path / "file", tmp_path / "nowhere"):
        with pytest.raises(ReproError, match="not a directory"):
            open_store(missing)
    assert not (tmp_path / "nowhere").exists()  # looking creates nothing
