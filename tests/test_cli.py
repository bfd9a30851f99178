"""Tests for the ``qckpt`` command-line tool."""

import json

import pytest

from repro import open_store
from repro.cli import main
from repro.core.serialize import read_header, unpack_snapshot
from repro.service.chunkstore import ChunkStore
from repro.storage.local import LocalDirectoryBackend
from tests.test_snapshot import sample_snapshot
from tests.test_store import copy_fixture


@pytest.fixture
def populated_store(tmp_path):
    """A copy of the QCKPT store an earlier release wrote: job ``default``
    is a full save (step 10), a delta chain on it (steps 11, 12) and a
    lossy full save (step 13); job ``other`` one full save (step 3)."""
    root = copy_fixture(tmp_path)
    return root, open_store(root)


@pytest.fixture(params=["flat", "shards-1", "shards-2"])
def chunk_root(request, tmp_path):
    """A chunk store as a run leaves it: one flat directory, or a daemon
    root with one or two shards.  Jobs ``a`` (steps 1-3) and ``b`` (step 7)."""
    root = tmp_path / "svc"
    if request.param == "flat":
        store = ChunkStore(LocalDirectoryBackend(root), block_bytes=256)
    else:
        store = open_store(
            root, shards=int(request.param[-1]), block_bytes=256
        )
    for step in (1, 2, 3):
        store.save_snapshot("a", sample_snapshot(step=step))
    store.save_snapshot("b", sample_snapshot(step=7))
    return root


class TestOneVerbSetOverEveryLayout:
    """The three misreports of the parent commit, pinned: a chunk directory
    listed as empty, ``gc`` planting a ``MANIFEST.json`` in it, and a daemon
    root that ``restore`` could not open."""

    def test_ls_stats_verify_see_the_checkpoints(self, chunk_root, capsys):
        assert main(["ls", str(chunk_root)]) == 0
        out = capsys.readouterr().out
        assert out.count("ckpt-00000") == 4 + 2  # rows + latest-of lines
        assert "4 checkpoint(s)" in out and "latest of a: ckpt-000003" in out
        assert main(["stats", str(chunk_root)]) == 0
        out = capsys.readouterr().out
        assert "1..3" in out and "4 checkpoint(s)" in out
        assert main(["verify", str(chunk_root)]) == 0
        assert "4/4 checkpoints valid" in capsys.readouterr().out
        assert main(["fsck", str(chunk_root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
        # one bit-flipped chunk of b's only checkpoint: named, exit 1
        store = open_store(chunk_root)
        victim = store.plan_restore("b", names=["params"]).objects[0].name
        data = bytearray(store.backend.read(victim))
        data[len(data) // 2] ^= 0xFF
        store.backend.write(victim, bytes(data))
        assert main(["verify", str(chunk_root)]) == 1
        out = capsys.readouterr().out
        assert "BAD b/ckpt-000001" in out and "3/4 checkpoints valid" in out

    def test_gc_keeps_a_chunk_directory_a_chunk_directory(
        self, chunk_root, capsys
    ):
        assert main(["gc", str(chunk_root), "--keep-last", "1"]) == 0
        assert "deleted 2 checkpoint(s)" in capsys.readouterr().out
        assert not list(chunk_root.rglob("MANIFEST.json"))
        assert main(["restore", str(chunk_root), "--job", "a"]) == 0
        assert "job a ckpt-000003 at step 3" in capsys.readouterr().out

    def test_restore_from_the_root_is_bitwise(self, chunk_root, tmp_path, capsys):
        out_file = tmp_path / "a.qckpt"
        assert main(
            ["restore", str(chunk_root), "--job", "a", "--out", str(out_file)]
        ) == 0
        assert unpack_snapshot(out_file.read_bytes()) == sample_snapshot(step=3)
        assert main(["restore", str(chunk_root), "--job", "b", "--plan"]) == 0
        assert "plan [chunks]: full checkpoint" in capsys.readouterr().out
        assert main(["restore", str(chunk_root)]) == 2  # which job?
        assert "--job" in capsys.readouterr().err
        # the same ids in two jobs: a bare id is ambiguous, JOB/ID is not
        assert main(["peek", str(chunk_root), "ckpt-000001", "params"]) == 2
        assert "JOB/ID" in capsys.readouterr().err
        assert main(["peek", str(chunk_root), "b/ckpt-000001", "params"]) == 0
        assert "at step 7" in capsys.readouterr().out
        assert main(["diff", str(chunk_root), "a/ckpt-000001", "a/ckpt-000002"]) == 0
        assert main(["inspect", f"{chunk_root}/b/ckpt-000001"]) == 0
        assert json.loads(capsys.readouterr().out.split("identical\n")[-1])[
            "kind"
        ] == "chunks"

    def test_both_markers_or_neither_is_one_error_line(
        self, populated_store, tmp_path, capsys
    ):
        root, _ = populated_store
        ChunkStore(LocalDirectoryBackend(root)).save_snapshot(
            "a", sample_snapshot(step=1)
        )
        (tmp_path / "empty").mkdir()
        for target in (root, tmp_path / "empty", tmp_path / "missing"):
            for verb in ("ls", "stats", "verify", "restore"):
                assert main([verb, str(target)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error:") and err.count("\n") == 1
        assert main(["restore", str(root)]) == 2
        assert "found both" in capsys.readouterr().err


class TestLs:
    def test_lists_records(self, populated_store, capsys):
        root, _ = populated_store
        assert main(["ls", str(root)]) == 0
        out = capsys.readouterr().out
        assert "ckpt-000001" in out and "ckpt-000005" in out
        assert "full zlib-6" in out and "delta zlib-6 on ckpt-000002" in out
        assert "latest of default: ckpt-000004" in out
        assert "latest of other: ckpt-000005" in out


class TestInspect:
    def test_inspect_file(self, populated_store, capsys):
        root, store = populated_store
        target = root / store.checkpoints("default")[0].object_name
        assert main(["inspect", str(target)]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["format_version"] == 1
        names = {t["name"] for t in header["tensors"]}
        assert "params" in names
        assert main(["inspect", str(target), "--tensors"]) == 0
        assert "crc32" in json.loads(capsys.readouterr().out)["tensors"][0]

    def test_inspect_by_store_id(self, populated_store, capsys):
        root, _ = populated_store
        assert main(["inspect", f"{root}/ckpt-000002", "--tensors"]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["meta"]["kind"] == "delta"
        assert header["base"]["meta"]["kind"] == "full"
        assert header["base"]["tensors"]["params"]["blocks"][0]["crc32"]

    def test_inspect_garbage_file(self, tmp_path, capsys):
        junk = tmp_path / "junk.qckpt"
        junk.write_bytes(b"\x00" * 100)
        assert main(["inspect", str(junk)]) == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_detects_corruption(self, populated_store, capsys):
        root, store = populated_store
        assert main(["verify", str(root)]) == 0
        assert "5/5 checkpoints valid" in capsys.readouterr().out
        victim = store.checkpoints("default")[1]
        path = root / victim.object_name
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["verify", str(root)]) == 1
        out = capsys.readouterr().out
        # the delta on it fails too: its chain runs through the damage
        assert "BAD default/ckpt-000002" in out
        assert "BAD default/ckpt-000003" in out
        assert "3/5 checkpoints valid" in out


class TestGc:
    def test_qckpt_store_is_refused(self, populated_store, capsys):
        root, _ = populated_store
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        assert main(["gc", str(root), "--keep-last", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gc: a QCKPT store is read-only")
        assert err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    def test_deletes_unreferenced(self, tmp_path, capsys):
        root = tmp_path / "s"
        store = ChunkStore(LocalDirectoryBackend(root))
        for step in range(1, 6):
            store.save_snapshot("default", sample_snapshot(step=step))
        assert main(["gc", str(root), "--keep-last", "2"]) == 0
        assert "deleted 3" in capsys.readouterr().out
        assert len(open_store(root).checkpoints("default")) == 2


class TestDiff:
    def test_diff_reports_changed_params(self, populated_store, capsys):
        root, _ = populated_store
        assert main(["diff", str(root), "ckpt-000001", "ckpt-000002"]) == 0
        out = capsys.readouterr().out
        assert "step 10" in out and "step 11" in out
        assert "identical" in out
        assert "TENSOR" in out

    def test_diff_same_checkpoint_all_identical(self, populated_store, capsys):
        root, _ = populated_store
        assert main(["diff", str(root), "ckpt-000001", "ckpt-000001"]) == 0
        assert "changed" not in capsys.readouterr().out
        assert main(["diff", str(root), "ckpt-000001", "ckpt-999999"]) == 2
        assert "error" in capsys.readouterr().err


class TestExport:
    def test_export_delta_as_standalone(self, populated_store, tmp_path, capsys):
        root, store = populated_store
        out_file = tmp_path / "standalone.qckpt"
        assert main(["export", str(root), "ckpt-000002", str(out_file)]) == 0
        assert "from 2 object(s)" in capsys.readouterr().out  # the chain
        snapshot = unpack_snapshot(out_file.read_bytes())
        assert snapshot == store.load_snapshot("default", "ckpt-000002")

    def test_export_with_codec(self, populated_store, tmp_path):
        root, _ = populated_store
        out_file = tmp_path / "x.qckpt"
        assert main(
            ["export", str(root), "ckpt-000001", str(out_file), "--codec", "lzma"]
        ) == 0
        assert read_header(out_file.read_bytes())[0]["codec"] == "lzma"


class TestStats:
    def test_stats_summary(self, populated_store, capsys):
        root, _ = populated_store
        assert main(["stats", str(root)]) == 0
        out = capsys.readouterr().out
        assert "default" in out and "10..13" in out
        assert "other" in out and "3..3" in out
        assert "5 checkpoint(s)" in out and "total stored" in out


class TestPeek:
    def test_peek_params(self, populated_store, capsys):
        root, _ = populated_store
        assert main(["peek", str(root), "ckpt-000003", "params"]) == 0
        out = capsys.readouterr().out
        assert "at step 12" in out
        assert "params: float64" in out

    def test_peek_unknown_tensor_errors(self, populated_store, capsys):
        root, _ = populated_store
        assert main(["peek", str(root), "ckpt-000001", "ghost"]) == 2
        assert "error" in capsys.readouterr().err


class TestFleet:
    def test_fleet_storm_in_memory(self, capsys):
        assert (
            main(
                [
                    "fleet",
                    "--jobs", "2",
                    "--steps", "3",
                    "--qubits", "2",
                    "--layers", "1",
                    "--samples", "32",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "job00" in out and "job01" in out
        assert "storm@2" in out
        assert "dedup" in out
        assert "recovered-work ratio" in out

    def test_fleet_persists_to_directory(self, tmp_path, capsys):
        store_dir = tmp_path / "fleet"
        assert (
            main(
                [
                    "fleet",
                    "--jobs", "2",
                    "--steps", "1",
                    "--qubits", "2",
                    "--layers", "1",
                    "--samples", "32",
                    "--scenario", "sweep",
                    "--shards", "2",
                    "--store", str(store_dir),
                ]
            )
            == 0
        )
        # Chunks and manifests landed on the shard directories.
        store = open_store(store_dir)
        assert len(store.backend.shards) == 2
        assert store.jobs() == ["job00", "job01"]
        assert store.load_snapshot("job00").step == 1


class TestRestore:
    def test_full_restore_core_store(self, populated_store, capsys):
        root, _ = populated_store
        assert main(["restore", str(root), "--job", "default"]) == 0
        out = capsys.readouterr().out
        assert "plan [qckpt]" in out
        assert "ckpt-000004 at step 13" in out
        assert "params" in out

    def test_warm_start_plans_fewer_bytes(self, populated_store, capsys):
        root, _ = populated_store
        assert main(
            ["restore", str(root), "--id", "ckpt-000003", "--warm-start"]
        ) == 0
        out = capsys.readouterr().out
        assert "tensors params: 3 block(s) from 3 object(s)" in out  # the chain
        assert main(["restore", str(root), "--warm-start", "--out", "x"]) == 2

    def test_plan_only_transfers_nothing(self, populated_store, capsys):
        root, _ = populated_store
        assert main(["restore", str(root), "--job", "other", "--plan"]) == 0
        out = capsys.readouterr().out
        assert "plan [qckpt]" in out
        assert "at step" not in out

    def test_out_writes_standalone_file(self, populated_store, tmp_path, capsys):
        root, store = populated_store
        target = tmp_path / "standalone.qckpt"
        assert main(
            ["restore", str(root), "--id", "ckpt-000003", "--out", str(target)]
        ) == 0
        restored = unpack_snapshot(target.read_bytes())
        assert restored == store.load_snapshot("default", "ckpt-000003")
        assert restored.step == 12

    def test_tensors_subset(self, populated_store, capsys):
        root, _ = populated_store
        assert main(
            ["restore", str(root), "--job", "default", "--tensors", "params"]
        ) == 0
        out = capsys.readouterr().out
        assert "params:" in out

    def test_gcd_chunk_is_a_clean_error_or_a_reported_fallback(
        self, tmp_path, capsys
    ):
        root = tmp_path / "chunks"
        store = ChunkStore(LocalDirectoryBackend(root), block_bytes=256)
        for step in (1, 2):
            store.save_snapshot("jobA", sample_snapshot(step=step))
        older = {o.name for o in store.plan_restore("jobA", "ckpt-000001").objects}
        newest = store.plan_restore("jobA", "ckpt-000002").objects
        store.backend.delete(next(o.name for o in newest if o.name not in older))
        # An explicit id has no fallback: one clean error line naming the
        # damage, not a traceback.
        assert main(["restore", str(root), "--id", "ckpt-000002"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "garbage-collected or lost" in err
        # Without one, the newest valid checkpoint, and what was skipped.
        assert main(["restore", str(root)]) == 0
        out = capsys.readouterr().out
        assert "warning: skipped damaged checkpoint ckpt-000002" in out
        assert "job jobA ckpt-000001" in out
