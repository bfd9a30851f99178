"""Two-tier storage: a small fast tier in front of a large slow tier.

The deployment shape the paper's remote-storage ablation points at: recent
checkpoints should restore at local-SSD speed while the full history lives in
a cheaper object store.  The fast tier is a byte-budgeted LRU cache:

* **write-through** (default): writes land in both tiers before returning —
  the slow tier is always complete, so losing the fast tier loses nothing;
* **write-back**: writes land only in the fast tier and are flushed to the
  slow tier by :meth:`flush`, on eviction, or at :meth:`close`; faster
  checkpoint latency at the cost of a durability window (the trade-off
  Tab. 4's interval analysis prices).

Reads hit the fast tier first and *promote* slow-tier objects into it.
Evictions are strictly LRU by last access and never drop a dirty object
without flushing it first.

Placement control (the chunk store's tier-aware read path drives these):

* :meth:`pin` / :meth:`unpin` — pinned objects (checkpoint manifests) are
  never chosen as eviction victims, so chunk churn cannot push the small,
  always-read metadata out of the fast tier;
* :meth:`promote` — pull one slow-tier object into the fast tier without
  returning its bytes (what :meth:`pin` does to an object not yet there).

Cross-process placement: per-process pin state dies with the process and is
invisible to other processes sharing the slow tier.  Passing a
:class:`~repro.storage.placement.PlacementJournal` makes pins *durable*
(a reopened backend re-adopts and re-promotes journal pins before serving
traffic) and *shared* (eviction also honours names pinned by any other
process writing the same journal).  The journal is advisory
metadata: losing it costs fast-tier residency, never data.

Thread safety: the restore executor fetches chunks through this backend
from several threads, so LRU/pin/dirty bookkeeping is guarded by a lock.
Slow-tier fetches on the miss path run *outside* the lock (concurrent
misses overlap their transfers; a raced double-fetch installs once), while
fast-tier operations — which are fast by definition — run under it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Set

from repro.errors import ConfigError, StorageError
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.storage.backend import StorageBackend
from repro.storage.placement import PlacementJournal

_POLICIES = {"write-through", "write-back"}


class TierStats(StatsView):
    """Cache counters exposed for tests and the storage ablation.

    Registry-backed (``tier.*`` series, labeled ``tier=fast``): same
    attribute reads/writes as the old dataclass, but the counts also land
    in the shared metrics registry when one is threaded through.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        super().__init__()
        registry = metrics if metrics is not None else MetricsRegistry()
        for name in (
            "fast_hits",
            "fast_misses",
            "promotions",
            "evictions",
            "flushes",
        ):
            self._bind(name, registry.counter(f"tier.{name}", tier="fast"))


class TieredBackend(StorageBackend):
    """LRU fast tier over a slow tier, write-through or write-back."""

    def __init__(
        self,
        fast: StorageBackend,
        slow: StorageBackend,
        fast_capacity_bytes: int,
        policy: str = "write-through",
        journal: Optional[PlacementJournal] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if fast_capacity_bytes < 1:
            raise ConfigError(
                f"fast_capacity_bytes must be >= 1, got {fast_capacity_bytes}"
            )
        if policy not in _POLICIES:
            raise ConfigError(
                f"policy must be one of {_POLICIES}, got {policy!r}"
            )
        self.fast = fast
        self.slow = slow
        self.fast_capacity_bytes = int(fast_capacity_bytes)
        self.policy = policy
        self.journal = journal
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = TierStats(self.metrics)
        # LRU bookkeeping: name -> size, in access order (oldest first).
        self._resident: "OrderedDict[str, int]" = OrderedDict()
        self._dirty: Set[str] = set()
        self._pinned: Set[str] = set()
        # name -> token of the newest write-through slow write still in
        # flight (performed outside the lock); the object stays dirty until
        # its token completes, so an eviction in that window flushes
        # instead of dropping the only copy.
        self._pending_slow: dict = {}
        self._lock = threading.RLock()
        self._adopt_existing_fast_objects()
        self._adopt_journal_pins()

    def _adopt_existing_fast_objects(self) -> None:
        for name in self.fast.list():
            self._resident[name] = self.fast.size(name)

    def _adopt_journal_pins(self) -> None:
        """Re-establish durable pins after a reopen (crash recovery).

        Every journal-pinned name is promoted (best-effort) and locally
        pinned, so pinned-aware eviction protects it from the first write
        onwards — the per-process pin set no longer starts empty after a
        crash.  Names the journal pins that no longer exist anywhere are
        skipped (a gc removed the object; the stale pin is harmless and
        cleared by the next compaction or unpin).
        """
        if self.journal is None:
            return
        for name in sorted(self.journal.pinned_names()):
            try:
                self.promote(name)
            except StorageError:
                continue  # pinned name no longer exists: stale journal entry
            with self._lock:
                if name in self._resident:
                    self._pinned.add(name)

    def _journal_pinned(self, name: str) -> bool:
        """Whether another process's (or a pre-crash) pin protects ``name``."""
        return self.journal is not None and self.journal.is_pinned(name)

    # -- capacity ---------------------------------------------------------------

    def fast_bytes_used(self) -> int:
        """Bytes currently resident in the fast tier."""
        with self._lock:
            return sum(self._resident.values())

    def _evict_until_fits(self, incoming: int) -> bool:
        """Free fast-tier space for ``incoming`` bytes (caller holds the lock).

        Returns ``False`` when the object cannot be made resident — it is
        larger than the tier, or every current resident is pinned.  Callers
        then skip caching (reads/promotes) or degrade to a slow-only write;
        pinning must never turn into a data-path failure.
        """
        if incoming > self.fast_capacity_bytes:
            return False
        # One journal read per eviction pass: names pinned by *any* process
        # sharing the journal are off-limits, exactly like local pins.
        journal_pins = (
            self.journal.pinned_names() if self.journal is not None else ()
        )
        while sum(self._resident.values()) + incoming > self.fast_capacity_bytes:
            victim = next(
                (
                    n
                    for n in self._resident
                    if n not in self._pinned and n not in journal_pins
                ),
                None,
            )
            if victim is None:
                return False
            self._evict(victim)
        return True

    def _evict(self, name: str) -> None:
        if name in self._dirty:
            self._flush_one(name)
        self.fast.delete(name)
        self._resident.pop(name, None)
        self.stats.evictions += 1

    def _touch(self, name: str, size: int) -> None:
        self._resident.pop(name, None)
        self._resident[name] = size

    # -- write-back flushing --------------------------------------------------------

    def _flush_one(self, name: str) -> None:
        self.slow.write(name, self.fast.read(name))
        self._dirty.discard(name)
        self.stats.flushes += 1

    def flush(self) -> List[str]:
        """Push every dirty object to the slow tier; returns flushed names."""
        with self._lock:
            flushed = sorted(self._dirty)
            for name in flushed:
                self._flush_one(name)
            return flushed

    def dirty_objects(self) -> List[str]:
        """Objects present only in the fast tier (durability window)."""
        with self._lock:
            return sorted(self._dirty)

    def close(self) -> None:
        """Flush outstanding write-back state (call before process exit)."""
        self.flush()

    # -- placement control ------------------------------------------------------

    def pin(self, name: str) -> None:
        """Keep ``name`` fast-tier resident; never an eviction victim.

        Promotes the object first if it only lives in the slow tier.  The
        chunk store pins checkpoint manifests: they are read by every
        restore, discovery, and gc pass, and are tiny next to the chunk
        churn that would otherwise evict them.  Raises
        :class:`~repro.errors.StorageError` when the object cannot be made
        resident (too big, or the tier is full of other pinned objects).
        """
        with self._lock:
            if name not in self._resident:
                self.promote(name)
            if name not in self._resident:
                raise StorageError(
                    f"cannot pin {name!r}: it does not fit the fast tier"
                )
            self._pinned.add(name)
        if self.journal is not None:
            # Durable + cross-process: the pin survives this process and is
            # honoured by every other backend sharing the journal.
            self.journal.pin(name)

    def unpin(self, name: str) -> None:
        """Make ``name`` evictable again (resident until LRU says otherwise)."""
        with self._lock:
            self._pinned.discard(name)
        if self.journal is not None:
            self.journal.unpin(name)

    def pinned_objects(self) -> List[str]:
        """Currently pinned names."""
        with self._lock:
            return sorted(self._pinned)

    def promote(self, name: str) -> bool:
        """Ensure ``name`` is fast-tier resident; returns whether it moved.

        A resident object is just touched (LRU refresh).  Objects that
        cannot fit (larger than the tier, or squeezed out by pins) are left
        where they are (returns ``False``) rather than raising — placement
        is an optimization, not a contract.
        """
        with self._lock:
            if name in self._resident:
                self._touch(name, self._resident[name])
                return False
            data = self.slow.read(name)
            if not self._evict_until_fits(len(data)):
                return False
            self.fast.write(name, data)
            self._touch(name, len(data))
            self.stats.promotions += 1
            return True

    def resident_objects(self, prefix: str = "") -> List[str]:
        """Fast-tier resident names (LRU order, oldest first)."""
        with self._lock:
            return [n for n in self._resident if n.startswith(prefix)]

    def tier_for(self, name: str) -> "TieredBackend":
        return self

    # -- StorageBackend contract ------------------------------------------------------

    def write(self, name: str, data: bytes) -> None:
        if len(data) > self.fast_capacity_bytes:
            raise StorageError(
                f"object of {len(data)} bytes exceeds the fast tier capacity "
                f"({self.fast_capacity_bytes} bytes)"
            )
        token = None
        with self._lock:
            # Replacing: release the old residency before sizing the new one.
            previous = self._resident.pop(name, None)
            if self._evict_until_fits(len(data)):
                self.fast.write(name, data)
                self._touch(name, len(data))
                if self.policy == "write-back":
                    self._dirty.add(name)
                    return
                # Write-through: the slow write happens outside the lock,
                # so the object stays *dirty* until it lands — an eviction
                # in the window flushes the fast copy instead of deleting
                # the only one.
                self._dirty.add(name)
                token = self._pending_slow.get(name, 0) + 1
                self._pending_slow[name] = token
            else:
                # Pinned objects fill the tier: degrade to a slow-only
                # write instead of failing the save (write-back loses its
                # latency edge for this object but stays durable).  An
                # unflushed previous version is flushed *before* anything
                # is deleted, so a failing slow write below cannot lose the
                # only copy.
                if previous is not None:
                    if name in self._dirty:
                        self._flush_one(name)
                    self.fast.delete(name)
                self._dirty.discard(name)
                self._pinned.discard(name)
        self.slow.write(name, data)
        if token is not None:
            with self._lock:
                if self._pending_slow.get(name) == token:
                    del self._pending_slow[name]
                    self._dirty.discard(name)
                elif name in self._resident:
                    # A newer same-name write raced us and its slow copy
                    # may have landed *before* our older payload.  Keep the
                    # object dirty: the newest fast copy then flushes over
                    # whatever ordering the slow tier ended up with.
                    self._dirty.add(name)

    def read(self, name: str) -> bytes:
        with self._lock:
            if name in self._resident:
                self.stats.fast_hits += 1
                data = self.fast.read(name)
                self._touch(name, len(data))
                return data
            self.stats.fast_misses += 1
        # Slow fetch outside the lock: concurrent restore misses overlap
        # their transfers instead of serializing on the bookkeeping.
        data = self.slow.read(name)
        with self._lock:
            if name not in self._resident and self._evict_until_fits(
                len(data)
            ):
                self.fast.write(name, data)
                self._touch(name, len(data))
                self.stats.promotions += 1
        return data

    def exists(self, name: str) -> bool:
        with self._lock:
            if name in self._resident:
                return True
        return self.slow.exists(name)

    def delete(self, name: str) -> None:
        with self._lock:
            was_pinned = name in self._pinned
            if name in self._resident:
                self.fast.delete(name)
                self._resident.pop(name, None)
            self._dirty.discard(name)
            self._pinned.discard(name)
        self.slow.delete(name)
        if self.journal is not None:
            # A deleted object needs no placement; clear the durable pin so
            # reopened backends do not try to re-adopt a ghost.  Best-effort:
            # the delete itself succeeded, and advisory journal trouble must
            # not fail a gc pass.
            try:
                if was_pinned or self.journal.is_pinned(name):
                    self.journal.unpin(name)
            except StorageError:
                pass

    def list(self, prefix: str = "") -> List[str]:
        names = set(self.slow.list(prefix))
        with self._lock:
            names.update(n for n in self._resident if n.startswith(prefix))
        return sorted(names)

    def size(self, name: str) -> int:
        with self._lock:
            if name in self._resident:
                return self._resident[name]
        return self.slow.size(name)
