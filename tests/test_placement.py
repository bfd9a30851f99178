"""Placement journal: durable pins, cross-process coordination, leases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.snapshot import TrainingSnapshot
from repro.errors import ConfigError, StorageError
from repro.service.chunkstore import ChunkStore
from repro.storage.memory import InMemoryBackend
from repro.storage.placement import LEASE_COMPACT, PlacementJournal
from repro.storage.tiered import TieredBackend


def _journal(backend, owner, **kwargs):
    kwargs.setdefault("refresh_seconds", 0.0)
    return PlacementJournal(backend, owner, **kwargs)


def _snapshot(step: int, elems: int = 512) -> TrainingSnapshot:
    rng = np.random.default_rng(1000 + step)
    return TrainingSnapshot(
        step=step,
        params=rng.standard_normal(32),
        optimizer_state={"name": "adam", "t": step},
        rng_state={"bit_generator": "PCG64", "state": {"state": step}},
        model_fingerprint="placement-test",
        statevector=rng.standard_normal(elems) + 1j * rng.standard_normal(elems),
    )


# ---------------------------------------------------------------------------
# Journal semantics
# ---------------------------------------------------------------------------


class TestJournalBasics:
    def test_pins_visible_across_instances(self):
        backend = InMemoryBackend()
        a = _journal(backend, "a")
        b = _journal(backend, "b")
        a.pin("obj-1")
        assert b.is_pinned("obj-1")
        b.unpin("obj-1")
        assert not a.is_pinned("obj-1")

    def test_pins_survive_reopen(self):
        backend = InMemoryBackend()
        _journal(backend, "a").pin("obj-1")
        reopened = _journal(backend, "later")
        assert reopened.pinned_names() == {"obj-1"}

    def test_last_op_wins_across_owners(self):
        backend = InMemoryBackend()
        a = _journal(backend, "a")
        b = _journal(backend, "b")
        a.pin("x")
        b.unpin("x")
        a.refresh()
        assert not a.is_pinned("x")
        a.pin("x")
        b.refresh()
        assert b.is_pinned("x")

    def test_idempotent_pin_appends_one_record(self):
        backend = InMemoryBackend()
        a = _journal(backend, "a")
        a.pin("x")
        n = len(a.records())
        a.pin("x")
        assert len(a.records()) == n

    def test_bad_owner_rejected(self):
        with pytest.raises(StorageError):
            PlacementJournal(InMemoryBackend(), "bad/owner")
        with pytest.raises(ConfigError):
            PlacementJournal(InMemoryBackend(), "")

    def test_damaged_record_skipped(self):
        backend = InMemoryBackend()
        a = _journal(backend, "a")
        a.pin("x")
        backend.write("plj-99999999-rot.json", b"\xff not json")
        reopened = _journal(backend, "b")
        assert reopened.pinned_names() == {"x"}


class TestLeases:
    def test_single_holder(self):
        backend = InMemoryBackend()
        a = _journal(backend, "a")
        b = _journal(backend, "b")
        assert a.acquire_lease(LEASE_COMPACT)
        assert not b.acquire_lease(LEASE_COMPACT)
        assert b.lease_holder(LEASE_COMPACT) == "a"
        a.release_lease(LEASE_COMPACT)
        assert b.acquire_lease(LEASE_COMPACT)
        assert a.lease_holder(LEASE_COMPACT) == "b"

    def test_renewal_by_holder(self):
        backend = InMemoryBackend()
        a = _journal(backend, "a")
        assert a.acquire_lease(LEASE_COMPACT)
        assert a.acquire_lease(LEASE_COMPACT)  # renew
        assert a.holds_lease(LEASE_COMPACT)

    def test_expiry_allows_takeover(self):
        backend = InMemoryBackend()
        now = [1000.0]
        a = _journal(backend, "a", clock=lambda: now[0], lease_seconds=5.0)
        b = _journal(backend, "b", clock=lambda: now[0], lease_seconds=5.0)
        assert a.acquire_lease(LEASE_COMPACT)
        assert not b.acquire_lease(LEASE_COMPACT)
        now[0] += 10.0  # a's lease expires
        assert b.acquire_lease(LEASE_COMPACT)
        assert a.lease_holder(LEASE_COMPACT) == "b"

    def test_concurrent_claims_agree_on_one_winner(self):
        """Both claimants write, then both read back the same winner."""
        backend = InMemoryBackend()
        a = _journal(backend, "a")
        b = _journal(backend, "b")
        # Simulate the race: both write their claim record before either
        # re-reads (bypassing the early-out check in acquire_lease).
        a._append({"op": "lease", "role": "r", "expires": a._clock() + 30})
        b._append({"op": "lease", "role": "r", "expires": b._clock() + 30})
        a.refresh()
        b.refresh()
        assert a.lease_holder("r") == b.lease_holder("r")
        holders = {a.holds_lease("r"), b.holds_lease("r")}
        assert holders == {True, False}


class TestCompaction:
    def test_compact_preserves_state_and_shrinks_log(self):
        backend = InMemoryBackend()
        a = _journal(backend, "a")
        for i in range(10):
            a.pin(f"obj-{i}")
        for i in range(0, 10, 2):
            a.unpin(f"obj-{i}")
        before = set(a.pinned_names())
        assert a.compact() > 0
        assert a.pinned_names() == before
        reopened = _journal(backend, "b")
        assert reopened.pinned_names() == before
        # One snapshot + the compact-lease release is all that remains.
        assert len(reopened.records()) <= 3

    def test_compact_requires_lease(self):
        """Two daemons never compact at once: while one holds the compact
        lease the other's compaction deletes nothing."""
        backend = InMemoryBackend()
        a = _journal(backend, "daemon-a")
        b = _journal(backend, "daemon-b")
        for i in range(6):
            b.pin(f"obj-{i}")
        assert a.acquire_lease(LEASE_COMPACT)
        records = b.records()
        assert b.compact() == 0
        assert b.records() == records
        assert b.lease_holder(LEASE_COMPACT) == "daemon-a"
        # A releases: B's compaction now runs and leaves the lease free.
        a.release_lease(LEASE_COMPACT)
        assert b.compact() > 0
        assert b.pinned_names() == {f"obj-{i}" for i in range(6)}
        assert a.lease_holder(LEASE_COMPACT) is None


# ---------------------------------------------------------------------------
# TieredBackend integration: durable + cross-process pins
# ---------------------------------------------------------------------------


def _fill(tier: TieredBackend, prefix: str, count: int, size: int) -> None:
    for i in range(count):
        tier.write(f"{prefix}-{i:03d}", bytes([i % 251]) * size)


class TestDurablePins:
    def test_pin_lost_without_journal_after_reopen(self):
        """The bug: a reopened tier has forgotten its pins and evicts."""
        slow = InMemoryBackend()
        tier = TieredBackend(InMemoryBackend(), slow, fast_capacity_bytes=4096)
        tier.write("manifest", b"m" * 512)
        tier.pin("manifest")
        # Crash: the process dies; a new tier opens over the same slow store.
        reopened = TieredBackend(
            InMemoryBackend(), slow, fast_capacity_bytes=4096
        )
        reopened.read("manifest")  # promoted, but no longer pinned
        _fill(reopened, "churn", 12, 512)  # eviction pressure
        assert "manifest" not in reopened.resident_objects()

    def test_journal_pin_survives_reopen_and_eviction(self):
        """The fix: journal pins are re-adopted and honoured after a crash."""
        slow = InMemoryBackend()
        journal_store = InMemoryBackend()
        journal = _journal(journal_store, "proc-1")
        tier = TieredBackend(
            InMemoryBackend(), slow, fast_capacity_bytes=4096, journal=journal
        )
        tier.write("manifest", b"m" * 512)
        tier.pin("manifest")
        # Crash + reopen under a different process identity.
        journal2 = _journal(journal_store, "proc-2")
        reopened = TieredBackend(
            InMemoryBackend(),
            slow,
            fast_capacity_bytes=4096,
            journal=journal2,
        )
        # Adopted pins put the manifest back on the fast tier immediately.
        assert "manifest" in reopened.resident_objects()
        _fill(reopened, "churn", 12, 512)
        assert "manifest" in reopened.resident_objects()
        assert reopened.read("manifest") == b"m" * 512

    def test_chunkstore_manifest_restorable_after_crash_reopen_evict(self):
        """Regression: crash, reopen, evict — the job's newest manifest
        stays pinned (via the journal) and the checkpoint restores."""
        slow = InMemoryBackend()
        journal_store = InMemoryBackend()
        journal = _journal(journal_store, "daemon-a")
        tier = TieredBackend(
            InMemoryBackend(),
            slow,
            fast_capacity_bytes=1 << 16,
            journal=journal,
        )
        store = ChunkStore(tier, block_bytes=1024, placement_journal=journal)
        snapshot = _snapshot(3)
        store.save_snapshot("jobA", _snapshot(1))
        store.save_snapshot("jobA", snapshot)
        manifest = store.manifest_names("jobA")[-1]
        assert journal.is_pinned(manifest)

        # Crash: fast tier (memory) is gone; only slow store + journal live.
        journal2 = _journal(journal_store, "daemon-b")
        tier2 = TieredBackend(
            InMemoryBackend(),
            slow,
            fast_capacity_bytes=1 << 16,
            journal=journal2,
        )
        # The raw tier honours the pin before any ChunkStore adoption runs
        # (the window where the old code would evict the manifest).
        assert manifest in tier2.resident_objects()
        _fill(tier2, "churn", 40, 2048)
        assert manifest in tier2.resident_objects()

        store2 = ChunkStore(tier2, block_bytes=1024, placement_journal=journal2)
        restored = store2.load_snapshot("jobA")
        assert restored == snapshot

    def test_delete_clears_journal_pin(self):
        slow = InMemoryBackend()
        journal = _journal(InMemoryBackend(), "a")
        tier = TieredBackend(
            InMemoryBackend(), slow, fast_capacity_bytes=4096, journal=journal
        )
        tier.write("manifest", b"m" * 100)
        tier.pin("manifest")
        tier.delete("manifest")
        assert not journal.is_pinned("manifest")


class TestCrossProcessPins:
    def test_other_process_pin_blocks_eviction(self):
        slow = InMemoryBackend()
        journal_store = InMemoryBackend()
        ja = _journal(journal_store, "a")
        jb = _journal(journal_store, "b")
        ta = TieredBackend(
            InMemoryBackend(), slow, fast_capacity_bytes=4096, journal=ja
        )
        tb = TieredBackend(
            InMemoryBackend(), slow, fast_capacity_bytes=4096, journal=jb
        )
        ta.write("hot", b"h" * 256)
        ta.pin("hot")
        tb.read("hot")  # resident in B's fast tier too
        _fill(tb, "churn", 20, 400)
        assert "hot" in tb.resident_objects(), "B must honour A's pin"

    def test_two_process_pin_property(self, rng):
        """Two backends sharing one store never violate a journal pin.

        Random interleaving of pins, unpins, promotes, reads and
        eviction-pressure writes from two processes; after every operation,
        any journal-pinned name that was resident in a tier must still be
        resident there (residency may only end via an explicit unpin).
        """
        slow = InMemoryBackend()
        journal_store = InMemoryBackend()
        journals = {
            "a": _journal(journal_store, "a"),
            "b": _journal(journal_store, "b"),
        }
        tiers = {
            key: TieredBackend(
                InMemoryBackend(),
                slow,
                fast_capacity_bytes=4096,
                journal=journals[key],
            )
            for key in journals
        }
        names = [f"obj-{i:02d}" for i in range(12)]
        for i, name in enumerate(names):
            slow.write(name, bytes([i]) * 300)
        pinned: set = set()
        resident_pinned = {key: set() for key in tiers}

        for step in range(300):
            key = ("a", "b")[int(rng.integers(0, 2))]
            tier = tiers[key]
            name = names[int(rng.integers(0, len(names)))]
            op = int(rng.integers(0, 5))
            if op == 0 and len(pinned) < 8:
                try:
                    tier.pin(name)
                    pinned.add(name)
                except StorageError:
                    pass
            elif op == 1 and pinned:
                victim = sorted(pinned)[int(rng.integers(0, len(pinned)))]
                tier.unpin(victim)
                pinned.discard(victim)
                for tracked in resident_pinned.values():
                    tracked.discard(victim)
            elif op == 2:
                tier.promote(name)
            elif op == 3:
                tier.write(f"churn-{step}", b"c" * 600)
            else:
                tier.read(name)
            # The invariant: pinned + resident stays resident.
            for tier_key, tracked in resident_pinned.items():
                current = set(tiers[tier_key].resident_objects())
                for pinned_name in tracked:
                    assert pinned_name in current, (
                        f"pin violated: {pinned_name} evicted from "
                        f"{tier_key} at step {step}"
                    )
                resident_pinned[tier_key] = {
                    n for n in pinned if n in current
                }
