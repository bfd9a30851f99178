"""Differential recovery-oracle tests for the SQLite metadata index.

The invariant under test, stated by the index design itself: the JSON files
are the durable truth and the index is a cache, so for ANY reachable store
state the indexed view must equal what a fresh, index-less reader folds
from the files — after every op batch, after deleting the index mid-run,
after reopening with a stale high-water mark, and after crash-shaped
half-states (those live in the chaos sweep; here the oracle is exercised
through randomized op sequences and process-level contention).

Behavioral parity: ``QCKPT_METADB=0`` runs this whole suite with the index
disabled (every ``_db`` helper returns ``None``), ``QCKPT_METADB=1`` (the
default here) with it enabled — CI runs both and both must pass, proving
the index changes performance, never behavior.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.snapshot import TrainingSnapshot
from repro.service.chunkstore import ChunkStore
from repro.service.scrub import scrub_store
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.metadb import (
    DB_FILENAME,
    MetaDB,
    metadb_enabled,
    parse_record_name,
)
from repro.storage.placement import PlacementJournal
from repro.storage.replicated import ReplicatedBackend

#: The CI parity job flips this via QCKPT_METADB; default-on in this suite.
USE_INDEX = metadb_enabled(None, default=True)

_oracle_ids = itertools.count()


def _db(path):
    """Index over ``path`` — or ``None`` when the parity job disabled it."""
    return MetaDB(path) if USE_INDEX else None


def _snap(step: int) -> TrainingSnapshot:
    rng = np.random.default_rng(step)
    return TrainingSnapshot(
        step=step,
        params=rng.normal(size=24),
        optimizer_state={"lr": 0.01},
        rng_state={"seed": step},
        model_fingerprint="metadb-model",
    )


def _journal_state(journal: PlacementJournal):
    """Comparable placement state of one journal's current fold."""
    journal.refresh()
    return (
        set(journal._pins),
        dict(journal._pin_owner),
        {
            role: (slot.holder, slot.expires)
            for role, slot in journal._leases.items()
        },
    )


def _oracle_state(backend):
    """The recovery oracle: a fresh, index-less fold of the journal files."""
    oracle = PlacementJournal(
        backend, owner=f"oracle-{next(_oracle_ids)}", refresh_seconds=0.0
    )
    return _journal_state(oracle)


class TestJournalDifferentialOracle:
    def test_two_writer_randomized_ops(self, tmp_path, rng):
        """Random pin/unpin/lease/release/compact from two writers sharing
        one index file: after every batch, both writers' indexed folds must
        equal the file-journal oracle byte for byte."""
        backend = InMemoryBackend()
        db_path = tmp_path / DB_FILENAME
        writers = [
            PlacementJournal(
                backend,
                owner=f"writer-{i}",
                refresh_seconds=0.0,
                lease_seconds=1000.0,
                metadb=_db(db_path),
            )
            for i in range(2)
        ]
        names = [f"job-demo-ckpt-{i:06d}.json" for i in range(6)]
        roles = ["rebalance", "compact", "scrub"]
        for step in range(120):
            writer = writers[int(rng.integers(2))]
            op = int(rng.integers(6))
            if op <= 1:
                writer.pin(names[int(rng.integers(len(names)))])
            elif op == 2:
                writer.unpin(names[int(rng.integers(len(names)))])
            elif op == 3:
                writer.acquire_lease(
                    roles[int(rng.integers(len(roles)))], ttl=1000.0
                )
            elif op == 4:
                writer.release_lease(roles[int(rng.integers(len(roles)))])
            elif int(rng.integers(4)) == 0:
                writer.compact()
            if step % 10 == 9:
                expect = _oracle_state(backend)
                for each in writers:
                    assert _journal_state(each) == expect, f"step {step}"

    def test_index_deletion_mid_run_loses_nothing(self, tmp_path, rng):
        """Deleting the .db mid-run must lose no metadata: the next indexed
        open rebuilds the whole fold from the journal files."""
        backend = InMemoryBackend()
        db_path = tmp_path / DB_FILENAME
        journal = PlacementJournal(
            backend, owner="first", refresh_seconds=0.0, metadb=_db(db_path)
        )
        for i in range(8):
            journal.pin(f"job-a-ckpt-{i:06d}.json")
        journal.unpin("job-a-ckpt-000003.json")
        assert journal.acquire_lease("rebalance", ttl=1000.0)
        journal.compact()
        journal.pin("job-a-ckpt-000099.json")
        expect = _oracle_state(backend)
        _drop_index(db_path)
        reborn = PlacementJournal(
            backend, owner="reborn", refresh_seconds=0.0, metadb=_db(db_path)
        )
        assert _journal_state(reborn) == expect
        if USE_INDEX:
            state = reborn._db.placement_state()
            assert state.pins == expect[0]
            assert state.hwm > (0, "")

    def test_stale_hwm_reopen_catches_up_from_suffix(self, tmp_path):
        """An index left behind by further journal writes catches up by
        folding only the suffix past its high-water mark — no rebuild."""
        backend = InMemoryBackend()
        writer_db = tmp_path / "writer.db"
        stale_db = tmp_path / "stale.db"
        writer = PlacementJournal(
            backend, owner="writer", refresh_seconds=0.0, metadb=_db(writer_db)
        )
        writer.pin("job-x-ckpt-000001.json")
        writer.pin("job-x-ckpt-000002.json")
        observer = PlacementJournal(
            backend, owner="observer", refresh_seconds=0.0, metadb=_db(stale_db)
        )
        assert _journal_state(observer) == _oracle_state(backend)
        if USE_INDEX:
            observer._db.close()
        # The observer's index now goes stale.
        writer.unpin("job-x-ckpt-000001.json")
        writer.pin("job-x-ckpt-000003.json")
        assert writer.acquire_lease("rebalance", ttl=1000.0)
        reopened = PlacementJournal(
            backend, owner="observer-2", refresh_seconds=0.0,
            metadb=_db(stale_db),
        )
        assert _journal_state(reopened) == _oracle_state(backend)
        if USE_INDEX:
            metrics = reopened._db.metrics
            assert metrics.counter("metadb.full_folds").value == 0
            assert metrics.counter("metadb.catchup_records").value > 0

    def test_out_of_order_record_forces_full_refold(self, tmp_path):
        """A record sorting at-or-below the high-water mark that the base
        does not cover must invalidate the incremental state — the file
        fold is the oracle and wins."""
        if not USE_INDEX:
            pytest.skip("exercises index-internal invalidation")
        backend = InMemoryBackend()
        first = PlacementJournal(backend, owner="zz", refresh_seconds=0.0)
        first.pin("job-a-ckpt-000001.json")
        indexed = PlacementJournal(
            backend,
            owner="reader",
            refresh_seconds=0.0,
            metadb=MetaDB(tmp_path / DB_FILENAME),
        )
        assert indexed._base_hwm == (1, "zz")
        # A concurrent writer that allocated the same sequence number with
        # a lexicographically smaller owner sorts *before* the mark.
        rogue = {
            "version": 1,
            "seq": 1,
            "owner": "aa",
            "ts": 0.0,
            "op": "pin",
            "name": "job-rogue-ckpt-000001.json",
        }
        backend.write(
            "plj-00000001-aa.json",
            json.dumps(rogue, sort_keys=True).encode("utf-8"),
        )
        assert parse_record_name("plj-00000001-aa.json") == (1, "aa")
        indexed.refresh()
        assert _journal_state(indexed) == _oracle_state(backend)
        assert "job-rogue-ckpt-000001.json" in indexed.pinned_names()
        assert indexed._db.metrics.counter("metadb.full_folds").value >= 1

    def test_corrupt_index_discarded_never_trusted(self, tmp_path):
        if not USE_INDEX:
            pytest.skip("exercises index-file corruption handling")
        backend = InMemoryBackend()
        db_path = tmp_path / DB_FILENAME
        journal = PlacementJournal(
            backend, owner="writer", refresh_seconds=0.0,
            metadb=MetaDB(db_path),
        )
        journal.pin("job-a-ckpt-000001.json")
        journal._db.close()
        db_path.write_bytes(b"this is not a sqlite database")
        reopened_db = MetaDB(db_path)
        assert reopened_db.discarded_previous
        reopened = PlacementJournal(
            backend, owner="reader", refresh_seconds=0.0, metadb=reopened_db
        )
        assert _journal_state(reopened) == _oracle_state(backend)

    def test_schema_version_mismatch_rebuilds(self, tmp_path):
        if not USE_INDEX:
            pytest.skip("exercises index schema versioning")
        db_path = tmp_path / DB_FILENAME
        db = MetaDB(db_path)
        db._conn.execute(
            "UPDATE meta SET value='9999' WHERE key='schema_version'"
        )
        db._conn.commit()
        db.close()
        reopened = MetaDB(db_path)
        assert reopened.discarded_previous

    def test_table_from_an_earlier_release_does_not_discard(self, tmp_path):
        if not USE_INDEX:
            pytest.skip("exercises index schema versioning")
        db_path = tmp_path / DB_FILENAME
        db = MetaDB(db_path)
        db._conn.execute("CREATE TABLE retired (job_id TEXT PRIMARY KEY)")
        db._conn.commit()
        db.close()
        assert not MetaDB(db_path).discarded_previous


class TestChunkStoreDifferential:
    def test_randomized_ops_match_scan(self, tmp_path, rng):
        """save/delete/gc through the indexed store: discovery and the
        dedup index must match an index-less store scanning the files."""
        backend = InMemoryBackend()
        db_path = tmp_path / "manifest.db"
        store = ChunkStore(backend, metadb=_db(db_path))
        jobs = ["alpha", "beta"]
        for step in range(14):
            op = int(rng.integers(5))
            job = jobs[int(rng.integers(len(jobs)))]
            if op <= 2:
                store.save_snapshot(job, _snap(int(rng.integers(1000))))
            elif op == 3:
                latest = store.latest(job)
                if latest is not None:
                    store.delete_checkpoint(job, latest)
            else:
                store.gc(keep_last_per_job=2)
            oracle = ChunkStore(backend)  # fresh index-less scan
            assert store.jobs() == oracle.jobs(), f"step {step}"
            for job_id in jobs:
                assert store.manifest_names(job_id) == oracle.manifest_names(
                    job_id
                ), f"step {step}"
                assert store.latest(job_id) == oracle.latest(job_id)
                assert store.has_checkpoints(job_id) == bool(
                    oracle.manifest_names(job_id)
                )
        # Reopening against the same index reconciles to the same state.
        reopened = ChunkStore(backend, metadb=_db(db_path))
        oracle = ChunkStore(backend)
        assert reopened.jobs() == oracle.jobs()
        assert reopened._dedup_map() == oracle._dedup_map()
        for job_id in oracle.jobs():
            indexed_ckpt, indexed_snap, _ = reopened.latest_valid(job_id)
            oracle_ckpt, oracle_snap, _ = oracle.latest_valid(job_id)
            assert indexed_ckpt == oracle_ckpt
            if oracle_snap is not None:
                assert (
                    indexed_snap.params.tobytes()
                    == oracle_snap.params.tobytes()
                )

    def test_gc_liveness_by_query_matches_manifest_walk(self, tmp_path):
        backend = InMemoryBackend()
        store = ChunkStore(backend, metadb=_db(tmp_path / "gc.db"))
        for step in range(4):
            store.save_snapshot("gcjob", _snap(step))
        before = set(backend.list("ch-"))
        result = store.gc(keep_last_per_job=1)
        assert result["manifests"] == 3
        oracle = ChunkStore(backend)
        assert oracle.manifest_names("gcjob") == store.manifest_names("gcjob")
        # Every surviving chunk is referenced by the surviving manifest;
        # the swept ones are gone from backend and dedup index alike.
        _, snap, _ = oracle.latest_valid("gcjob")
        assert snap is not None and snap.step == 3
        swept = before - set(backend.list("ch-"))
        assert result["chunks"] == len(swept)
        assert not (swept & set(store._known))


class _CountingLocal(LocalDirectoryBackend):
    """Directory backend that counts what a reopen may not do per object."""

    def __init__(self, root):
        super().__init__(root, fsync=False)
        self.calls = Counter()

    def list(self, prefix=""):
        self.calls["list"] += 1
        return super().list(prefix)

    def read(self, name, into=None):
        self.calls["manifest reads" if name.startswith("job-") else "reads"] += 1
        return super().read(name, into=into)

    def size(self, name):
        self.calls["size"] += 1
        return super().size(name)

    def exists(self, name):
        self.calls["exists"] += 1
        return super().exists(name)


def _drop_index(db_path):
    for suffix in ("", "-wal", "-shm"):
        Path(str(db_path) + suffix).unlink(missing_ok=True)


class TestReopenCounts:
    """Counts, not clocks: what opening a store asks of its backend."""

    def _reopen(self, root, monkeypatch):
        """A store reopened over ``root``, its backend's call counts while
        it opened, and the ``stat`` calls on anything inside ``root``."""
        backend = _CountingLocal(root)
        stats = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            if Path(path) != Path(root) and Path(root) in Path(path).parents:
                stats.append(path)
            return real_stat(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "stat", counting_stat)
            store = ChunkStore(backend, metadb=_db(root / DB_FILENAME))
        return store, Counter(backend.calls), stats

    def test_reopen_cost_does_not_grow_with_the_store(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        writer = ChunkStore(
            LocalDirectoryBackend(root, fsync=False),
            metadb=_db(root / DB_FILENAME),
        )
        seen = {}
        saved = 0
        for total in (40, 400):
            while saved < total:
                writer.save_snapshot(f"job{saved % 4}", _snap(saved))
                saved += 1
            store, calls, stats = self._reopen(root, monkeypatch)
            seen[total] = calls
            assert calls["list"] <= 1
            assert calls["manifest reads"] == calls["reads"] == 0
            assert calls["size"] == calls["exists"] == 0 and not stats
            ckpt_id, restored, skipped = store.latest_valid("job3")
            assert ckpt_id == f"ckpt-{total // 4:06d}" and not skipped
            assert restored.params.tobytes() == _snap(total - 1).params.tobytes()
        assert seen[40] == seen[400]
        # The dedup map waited for the first save, and knows every chunk.
        assert store.save_snapshot("late", _snap(saved - 1)).n_new_blocks == 0

    @pytest.mark.parametrize("damage", ["deleted", "truncated", "behind"])
    def test_lost_or_stale_index_reopens_to_the_same_state(
        self, tmp_path, monkeypatch, damage
    ):
        root = tmp_path / "store"
        db_path = root / DB_FILENAME
        writer = ChunkStore(
            LocalDirectoryBackend(root, fsync=False), metadb=_db(db_path)
        )
        for step in range(6):
            writer.save_snapshot("alpha", _snap(step))
        newest = 5
        if USE_INDEX:
            writer.metadb.close()
        if damage == "deleted":
            _drop_index(db_path)
        elif damage == "truncated" and USE_INDEX:
            db_path.write_bytes(db_path.read_bytes()[: db_path.stat().st_size // 2])
        elif damage == "behind":
            # A writer that bypassed the index: one manifest it never saw.
            newest = 6
            ChunkStore(LocalDirectoryBackend(root, fsync=False)).save_snapshot(
                "alpha", _snap(newest)
            )
        store, calls, _ = self._reopen(root, monkeypatch)
        if USE_INDEX:  # the scan path: exactly the manifests the index lacks
            assert calls["manifest reads"] == (1 if damage == "behind" else 6)
        ckpt_id, restored, skipped = store.latest_valid("alpha")
        assert ckpt_id == f"ckpt-{newest + 1:06d}" and not skipped
        assert restored == _snap(newest)
        assert store.manifest_names("alpha") == ChunkStore(
            LocalDirectoryBackend(root, fsync=False)
        ).manifest_names("alpha")

    @pytest.mark.parametrize("damage", ["torn", "foreign version"])
    def test_next_save_steps_past_a_manifest_the_index_would_not_take(
        self, tmp_path, damage
    ):
        """A listed manifest that cannot be read here (torn, or written by
        another build) keeps its sequence number: the save after a reopen
        gets the next id and the file is left as it was — with an index,
        which never holds such a manifest, and without one."""
        root = tmp_path / "store"
        db_path = root / DB_FILENAME
        writer = ChunkStore(
            LocalDirectoryBackend(root, fsync=False), metadb=_db(db_path)
        )
        for step in range(3):
            writer.save_snapshot("alpha", _snap(step))
        writer.save_snapshot("lone", _snap(0))
        for name in ("job-alpha-ckpt-000003.json", "job-lone-ckpt-000001.json"):
            text = (root / name).read_text()
            if damage == "torn":
                (root / name).write_text(text[: len(text) // 2])
            else:
                (root / name).write_text(
                    text.replace('"version": 1', '"version": 99')
                )
        if USE_INDEX:
            # The index never saw them (as after a crash between the two).
            writer.metadb.delete_manifest("job-alpha-ckpt-000003.json")
            writer.metadb.delete_manifest("job-lone-ckpt-000001.json")
            writer.metadb.close()
        before = {
            name: (root / name).read_bytes()
            for name in ("job-alpha-ckpt-000003.json", "job-lone-ckpt-000001.json")
        }
        store = ChunkStore(
            LocalDirectoryBackend(root, fsync=False), metadb=_db(db_path)
        )
        assert store.save_snapshot("alpha", _snap(7)).ckpt_id == "ckpt-000004"
        assert store.save_snapshot("lone", _snap(8)).ckpt_id == "ckpt-000002"
        for name, content in before.items():
            assert (root / name).read_bytes() == content
        ckpt_id, restored, _ = store.latest_valid("alpha")
        assert ckpt_id == "ckpt-000004" and restored == _snap(7)

    def test_a_reconciled_index_answers_none_without_a_scan(self, tmp_path):
        """``has_checkpoints`` / ``manifest_names`` / ``jobs`` of a job the
        store never saw: one point query each when an index is attached; a
        scan, which also sees another writer's files, when none is."""
        backend = _CountingLocal(tmp_path / "store")
        store = ChunkStore(backend, metadb=_db(tmp_path / "store" / DB_FILENAME))
        store.save_snapshot("seen", _snap(1))
        backend.calls.clear()
        assert not store.has_checkpoints("fresh")
        assert store.manifest_names("fresh") == []
        assert store.jobs() == ["seen"]
        assert backend.calls["list"] == (0 if USE_INDEX else 3)
        # A writer sharing the index file (or, index-less, just the files).
        other = ChunkStore(
            LocalDirectoryBackend(tmp_path / "store", fsync=False),
            metadb=_db(tmp_path / "store" / DB_FILENAME),
        )
        other.save_snapshot("fresh", _snap(2))
        assert store.has_checkpoints("fresh")
        assert store.jobs() == ["fresh", "seen"]


class TestScrubIndexCoherence:
    def test_chunk_repair_keeps_indexed_latest_valid_bitwise(self, tmp_path):
        """Corrupt chunk → scrub repair → latest_valid through the index
        still restores bitwise (the satellite regression)."""
        replica_a, replica_b = InMemoryBackend(), InMemoryBackend()
        backend = ReplicatedBackend([replica_a, replica_b], read_repair=False)
        db = _db(tmp_path / "scrub.db")
        store = ChunkStore(backend, metadb=db)
        snap = _snap(7)
        store.save_snapshot("repairjob", snap)
        address = sorted(replica_a.list("ch-"))[0]
        replica_a.write(address, b"bit-rot")
        report = scrub_store(backend, repair=True, metadb=db)
        assert report.repaired >= 1
        reopened = ChunkStore(backend, metadb=db)
        ckpt_id, restored, skipped = reopened.latest_valid("repairjob")
        assert ckpt_id == "ckpt-000001"
        assert restored is not None and not skipped
        assert restored.params.tobytes() == snap.params.tobytes()

    def test_unrestorable_manifest_quarantine_invalidates_row(self, tmp_path):
        replica_a, replica_b = InMemoryBackend(), InMemoryBackend()
        backend = ReplicatedBackend([replica_a, replica_b], read_repair=False)
        db = _db(tmp_path / "scrub2.db")
        store = ChunkStore(backend, metadb=db)
        keep = _snap(1)
        store.save_snapshot("quarjob", keep)
        store.save_snapshot("quarjob", _snap(2))
        doomed = store.manifest_names("quarjob")[-1]
        for replica in (replica_a, replica_b):
            replica.write(doomed, b"not json at all")  # no good copy left
        scrub_store(backend, repair=True, metadb=db)
        if USE_INDEX:
            assert doomed not in db.manifest_objects()
        reopened = ChunkStore(backend, metadb=db)
        ckpt_id, restored, _ = reopened.latest_valid("quarjob")
        assert ckpt_id == "ckpt-000001"
        assert restored.params.tobytes() == keep.params.tobytes()


def _contention_worker(root, db_path, owner, seed, steps):
    """One process of the two-process contention test (fork target)."""
    backend = LocalDirectoryBackend(root, fsync=False)
    db = MetaDB(db_path) if db_path else None
    journal = PlacementJournal(
        backend,
        owner=owner,
        refresh_seconds=0.0,
        lease_seconds=30.0,
        metadb=db,
    )
    rng = np.random.default_rng(seed)
    names = [f"job-shared-ckpt-{i:06d}.json" for i in range(4)]
    for _ in range(steps):
        op = int(rng.integers(4))
        if op == 0:
            journal.pin(names[int(rng.integers(len(names)))])
        elif op == 1:
            journal.unpin(names[int(rng.integers(len(names)))])
        elif op == 2:
            journal.acquire_lease("rebalance", ttl=30.0)
        else:
            journal.release_lease("rebalance")
    if db is not None:
        db.close()


class TestTwoProcessContention:
    def test_pin_lease_contention_through_shared_index(self, tmp_path):
        """Two real processes hammering one journal + one index file: the
        indexed fold must equal the oracle fold, so last-op-wins pins and
        claim-then-verify leases are semantically unchanged (the process
        analog of tests/test_placement.py's two-process property test)."""
        root = tmp_path / "journal"
        root.mkdir()
        db_path = str(tmp_path / DB_FILENAME) if USE_INDEX else None
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(
                target=_contention_worker,
                args=(str(root), db_path, f"proc-{i}", 1000 + i, 40),
            )
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        backend = LocalDirectoryBackend(root, fsync=False)
        expect = _oracle_state(backend)
        indexed = PlacementJournal(
            backend,
            owner="verify",
            refresh_seconds=0.0,
            metadb=_db(tmp_path / DB_FILENAME),
        )
        assert _journal_state(indexed) == expect
        # Lease safety: however the race resolved, at most one holder, and
        # the indexed reader and the oracle agree on who it is.
        holders = expect[2]
        assert len(holders) <= 1
        for role in holders:
            assert indexed.lease_holder(role) == holders[role][0]


class TestIndexInvisibleToBackend:
    def test_sidecar_is_not_a_backend_object(self, tmp_path):
        """The .db sidecar must never leak into the store's namespace."""
        if not USE_INDEX:
            pytest.skip("no sidecar when the index is disabled")
        root = tmp_path / "store"
        backend = LocalDirectoryBackend(root, fsync=False)
        db = MetaDB(root / DB_FILENAME)
        store = ChunkStore(backend, metadb=db)
        store.save_snapshot("leakjob", _snap(1))
        assert os.path.exists(root / DB_FILENAME)
        listed = backend.list("")
        assert not any(name.startswith(".") for name in listed)
        assert DB_FILENAME not in listed
