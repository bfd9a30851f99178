"""Store scrub & repair: detection, quarantine, re-replication, fsck.

The headline guarantee under test: when at least one replica of every
damaged object survives, ``scrub`` repairs 100% of injected corruptions —
including the case where *every* chunk of one replica is corrupted — and
the repaired store restores bitwise.  ``fsck`` is the same walk read-only,
with a property test pinning "healthy store ⇒ zero findings".
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as qckpt_main
from repro.core.snapshot import TrainingSnapshot
from repro.service.chunkstore import ChunkStore
from repro.service.scrub import (
    QUARANTINE_PREFIX,
    StoreScrubber,
    scrub_store,
)
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.placement import PlacementJournal
from repro.storage.replicated import ReplicatedBackend
from repro.storage.sharded import ShardedBackend
from repro.storage.tiered import TieredBackend


def _snapshot(step: int, size: int = 192, seed: int | None = None) -> TrainingSnapshot:
    rng = np.random.default_rng(step if seed is None else seed)
    return TrainingSnapshot(
        step=step,
        params=rng.normal(size=size),
        optimizer_state={"lr": 0.01},
        rng_state={"seed": step},
        model_fingerprint="scrub-model",
    )


def _bitwise(a: TrainingSnapshot, b: TrainingSnapshot) -> bool:
    return a.step == b.step and a.params.tobytes() == b.params.tobytes()


def _replicated_store(block_bytes: int = 512):
    replica_a, replica_b = InMemoryBackend(), InMemoryBackend()
    backend = ReplicatedBackend([replica_a, replica_b], read_repair=False)
    return replica_a, replica_b, ChunkStore(backend, block_bytes=block_bytes)


class TestScrubRepairs:
    def test_every_chunk_of_one_replica_corrupted_full_repair(self):
        replica_a, replica_b, store = _replicated_store()
        snaps = [_snapshot(step) for step in (1, 2, 3)]
        for snap in snaps:
            store.save_snapshot("job", snap)
        chunks = replica_a.list("ch-")
        assert len(chunks) > 3
        for address in chunks:  # total rot of replica A's chunk payloads
            replica_a.write(address, b"rotten " + address.encode())

        report = scrub_store(store.backend, repair=True)
        assert report.repaired == len(chunks)  # 100% repaired
        assert report.quarantined == len(chunks)
        assert not report.unrestorable
        assert all(f.repaired for f in report.findings)

        # Repaired replica is byte-identical to the survivor again.
        for address in chunks:
            assert replica_a.read(address) == replica_b.read(address)
        # And the store restores bitwise through the repaired replica.
        _, restored, skipped = ChunkStore(store.backend).latest_valid("job")
        assert restored is not None and _bitwise(restored, snaps[-1])
        assert skipped == []
        # fsck confirms the heal (quarantine objects are evidence, not damage).
        assert scrub_store(store.backend, repair=False).clean

    def test_quarantine_preserves_the_corrupt_bytes(self):
        replica_a, _, store = _replicated_store()
        store.save_snapshot("job", _snapshot(1))
        address = sorted(replica_a.list("ch-"))[0]
        replica_a.write(address, b"evidence")
        report = scrub_store(store.backend, repair=True)
        finding = report.findings[0]
        assert finding.quarantined == f"{QUARANTINE_PREFIX}{address}"
        assert store.backend.read(finding.quarantined) == b"evidence"

    def test_damaged_manifest_repaired_from_replica(self):
        replica_a, _, store = _replicated_store()
        store.save_snapshot("job", _snapshot(1))
        manifest_name = replica_a.list("job-")[0]
        replica_a.write(manifest_name, b"{ not json")
        report = scrub_store(store.backend, repair=True)
        kinds = {f.kind for f in report.findings}
        assert kinds == {"damaged-manifest"}
        assert report.repaired == 1
        assert scrub_store(store.backend, repair=False).clean

    def test_no_surviving_copy_is_unrestorable_not_fabricated(self):
        replica_a, replica_b, store = _replicated_store()
        store.save_snapshot("job", _snapshot(1))
        address = sorted(replica_a.list("ch-"))[0]
        for replica in (replica_a, replica_b):
            replica.write(address, b"rot everywhere")
        report = scrub_store(store.backend, repair=True)
        corrupt = [f for f in report.findings if f.kind == "corrupt-chunk"]
        assert corrupt and not corrupt[0].repaired
        assert report.unrestorable  # the checkpoint is honestly reported lost
        # The corrupt copy was still quarantined for forensics.
        assert corrupt[0].quarantined is not None

    def test_missing_chunk_detected(self):
        replica_a, replica_b, store = _replicated_store()
        store.save_snapshot("job", _snapshot(1))
        address = sorted(replica_a.list("ch-"))[0]
        for replica in (replica_a, replica_b):
            replica.delete(address)
        report = scrub_store(store.backend, repair=True)
        assert any(f.kind == "missing-chunk" for f in report.findings)
        assert report.unrestorable

    def test_orphan_chunks_reported_never_deleted(self):
        backend = InMemoryBackend()
        store = ChunkStore(backend, block_bytes=512)
        store.save_snapshot("job", _snapshot(1))
        backend.write("ch-" + "0" * 32, b"unreferenced")
        report = scrub_store(backend, repair=True)
        orphans = [f for f in report.findings if f.kind == "orphan-chunk"]
        assert len(orphans) == 1 and not orphans[0].repaired
        assert backend.exists("ch-" + "0" * 32)  # gc's job, not scrub's

    def test_corruption_inside_tiered_slow_tier_found(self):
        # A stale-but-valid fast tier would mask slow-tier rot from a plain
        # read(); the leaf walk must still find and fix it.
        fast, slow = InMemoryBackend(), InMemoryBackend()
        replica_b = InMemoryBackend()
        tiered = TieredBackend(fast, slow, fast_capacity_bytes=1 << 20)
        backend = ReplicatedBackend([tiered, replica_b], read_repair=False)
        store = ChunkStore(backend, block_bytes=512, tier_placement=False)
        store.save_snapshot("job", _snapshot(1))
        address = sorted(slow.list("ch-"))[0]
        slow.write(address, b"slow-tier rot")
        report = scrub_store(backend, repair=True)
        assert report.repaired >= 1
        assert slow.read(address) == replica_b.read(address)

    def test_scrub_under_sharded_replicas(self):
        shards_a = [InMemoryBackend() for _ in range(3)]
        shards_b = [InMemoryBackend() for _ in range(3)]
        backend = ReplicatedBackend(
            [ShardedBackend(shards_a), ShardedBackend(shards_b)],
            read_repair=False,
        )
        store = ChunkStore(backend, block_bytes=512)
        snap = _snapshot(1)
        store.save_snapshot("job", snap)
        for shard in shards_a:
            for address in shard.list("ch-"):
                shard.write(address, b"shard rot")
        report = scrub_store(backend, repair=True)
        assert report.repaired == report.chunks_checked > 0
        _, restored, _ = ChunkStore(backend).latest_valid("job")
        assert restored is not None and _bitwise(restored, snap)


class TestScrubLease:
    def test_repairing_scrub_skips_when_lease_held(self):
        backend = InMemoryBackend()
        store = ChunkStore(backend, block_bytes=512)
        store.save_snapshot("job", _snapshot(1))
        journal_store = InMemoryBackend()
        holder = PlacementJournal(journal_store, owner="daemon-1")
        assert holder.acquire_lease("scrub")
        rival = PlacementJournal(journal_store, owner="scrubber-2")
        report = StoreScrubber(backend, repair=True, journal=rival).run()
        assert report.lease_holder == "daemon-1"
        assert not report.clean
        holder.release_lease("scrub")
        report = StoreScrubber(backend, repair=True, journal=rival).run()
        assert report.lease_holder is None

    def test_repaired_manifest_re_pinned(self):
        replica_a, _, store = _replicated_store()
        store.save_snapshot("job", _snapshot(1))
        manifest_name = replica_a.list("job-")[0]
        replica_a.write(manifest_name, b"torn")
        journal = PlacementJournal(InMemoryBackend(), owner="scrubber")
        report = StoreScrubber(
            store.backend, repair=True, journal=journal
        ).run()
        assert report.repaired == 1
        assert manifest_name in journal.pinned_names()

    def test_fsck_never_takes_the_lease(self):
        backend = InMemoryBackend()
        ChunkStore(backend, block_bytes=512).save_snapshot("job", _snapshot(1))
        journal_store = InMemoryBackend()
        holder = PlacementJournal(journal_store, owner="daemon-1")
        assert holder.acquire_lease("scrub")
        rival = PlacementJournal(journal_store, owner="fsck")
        report = StoreScrubber(backend, repair=False, journal=rival).run()
        assert report.clean  # read-only walk proceeds regardless of the lease


class TestFsckProperty:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**16), min_size=1, max_size=4
        ),
        size=st.integers(min_value=8, max_value=512),
        jobs=st.integers(min_value=1, max_value=3),
    )
    def test_healthy_store_has_zero_findings(self, seeds, size, jobs):
        backend = InMemoryBackend()
        store = ChunkStore(backend, block_bytes=256)
        for job in range(jobs):
            for step, seed in enumerate(seeds, start=1):
                store.save_snapshot(
                    f"job{job}", _snapshot(step, size=size, seed=seed)
                )
        report = scrub_store(backend, repair=False)
        assert report.clean
        assert report.findings == []
        assert report.manifests_checked == jobs * len(seeds)
        assert report.chunks_checked > 0


class TestScrubCli:
    def _seed_dirs(self, tmp_path):
        dir_a, dir_b = tmp_path / "replA", tmp_path / "replB"
        replica_a = LocalDirectoryBackend(dir_a)
        replica_b = LocalDirectoryBackend(dir_b)
        store = ChunkStore(
            ReplicatedBackend([replica_a, replica_b], read_repair=False),
            block_bytes=512,
        )
        snap = _snapshot(1)
        store.save_snapshot("job", snap)
        return dir_a, dir_b, replica_a, snap

    def test_fsck_then_scrub_then_fsck(self, tmp_path, capsys):
        dir_a, dir_b, replica_a, _ = self._seed_dirs(tmp_path)
        address = sorted(replica_a.list("ch-"))[0]
        replica_a.write(address, b"cli rot")

        assert qckpt_main(["fsck", str(dir_a), str(dir_b)]) == 1
        assert "corrupt-chunk" in capsys.readouterr().out
        assert qckpt_main(["scrub", str(dir_a), str(dir_b)]) == 0
        assert "repaired" in capsys.readouterr().out
        assert qckpt_main(["fsck", str(dir_a), str(dir_b)]) == 0
        assert (dir_a / f"{QUARANTINE_PREFIX}{address}").exists()

    def test_monolithic_store_redirected_to_verify(self, tmp_path, capsys):
        from tests.test_store import copy_fixture

        assert qckpt_main(["fsck", str(copy_fixture(tmp_path))]) == 2
        assert "qckpt verify" in capsys.readouterr().err
