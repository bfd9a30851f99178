"""Cross-process tier placement journal: durable pins, shared leases.

:class:`~repro.storage.tiered.TieredBackend` keeps pin/promote
bookkeeping in per-process dicts, which has two failure modes the fleet
daemon cannot live with:

* **pins die with the process** — after a crash the reopened tier has an
  empty pin set, so pinned-aware eviction can evict a job's newest manifest
  (the object every restore, discovery and gc pass reads first);
* **two daemons sharing one store fight** — process A pins a manifest,
  process B (same slow tier, its own fast tier) knows nothing about it and
  happily evicts it.

:class:`PlacementJournal` fixes both by writing placement facts into the
*store itself* as an append-only log of single-object records.  Every record
is one backend object (backend writes are atomic), so two processes never
clobber each other — they interleave, and the deterministic fold order
``(seq, owner)`` makes every reader agree on the resulting state:

* ``pin`` / ``unpin`` — last operation per name wins.  Pins are durable: a
  reopened :class:`TieredBackend` re-adopts them before serving traffic.
* ``lease`` / ``release`` — advisory single-holder roles (``"compact"``,
  ``"scrub"``) with wall-clock expiry.  A claim only takes the slot when
  it is free, expired, or already held by the claimant; losers observe that
  they lost on the read-back.  This is what keeps two daemons from
  compacting the journal, or scrubbing the store, at the same time.
* ``snapshot`` — compaction: the folded state re-written as one record so
  the log stays bounded.  Compaction requires the ``compact`` lease and is
  meant for quiescent moments (daemon drain); records that land concurrently
  with a compaction may need their pins re-asserted, which the chunk store's
  pin-on-save path does anyway.

Record layout (``plj-<seq:08d>-<owner>.json``)::

    {"version": 1, "seq": 12, "owner": "daemon-a", "ts": 1750000000.0,
     "op": "pin", "name": "job-lr01-ckpt-000004.json"}

The journal is deliberately *advisory metadata*: losing it costs placement
quality (a manifest may be evicted to the slow tier), never data — every
object it names remains fully readable from the slow tier.

When a :class:`~repro.storage.metadb.MetaDB` index is attached, the folded
state is additionally persisted there after every advance: the records stay
the write-ahead log (written first, always), the index stores the fold up
to a ``(seq, owner)`` high-water mark so a reopening journal reads only the
log *suffix* instead of every record.  A record that lists at-or-below the
mark without being covered by it forces a full re-fold — the deterministic
file fold is the recovery oracle and always wins.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError, StorageError
from repro.faults.crashpoints import crash_point, register_crash_point
from repro.storage.backend import StorageBackend, validate_name
from repro.storage.metadb import (
    CP_JOURNAL_AFTER_APPLY,
    CP_JOURNAL_BEFORE_APPLY,
    CP_REBUILD_MID_FOLD,
    CP_VACUUM_MID_SWEEP,
    MetaDB,
    parse_record_name,
)

CP_RECORD_BEFORE_WRITE = register_crash_point(
    "placement.record.before-write",
    "die with a journal sequence number allocated but the record unwritten",
)
CP_RECORD_AFTER_WRITE = register_crash_point(
    "placement.record.after-write",
    "die after the journal record lands but before the local fold",
)
CP_COMPACT_AFTER_SNAPSHOT = register_crash_point(
    "placement.compact.after-snapshot",
    "die between the compaction snapshot record and the covered-record "
    "deletes (both snapshot and old records present)",
)
CP_COMPACT_MID_SWEEP = register_crash_point(
    "placement.compact.mid-sweep",
    "die after deleting the first covered record of a compaction sweep",
)

RECORD_PREFIX = "plj-"
JOURNAL_VERSION = 1

#: Lease role serializing journal compaction.
LEASE_COMPACT = "compact"


@dataclass(frozen=True)
class LeaseState:
    """One role's current holder, as folded from the journal."""

    role: str
    holder: str
    expires: float
    seq: int


def _record_sort_key(record: Dict) -> Tuple[int, str]:
    return int(record.get("seq", 0)), str(record.get("owner", ""))


class PlacementJournal:
    """Shared, append-only placement state over one storage backend.

    ``owner`` identifies this process in records and lease claims (use a
    stable daemon id, not a PID, if pins should survive the owner's own
    restarts — ownership of a *pin* does not matter for eviction, only the
    pinned name does).  ``refresh_seconds`` bounds how stale the cached fold
    may get before reads hit the backend again; ``0`` re-reads on every
    query (tests), the default keeps eviction decisions cheap.
    """

    def __init__(
        self,
        backend: StorageBackend,
        owner: str,
        lease_seconds: float = 30.0,
        refresh_seconds: float = 0.2,
        clock: Callable[[], float] = time.time,
        metadb: Optional[MetaDB] = None,
    ):
        if not owner:
            raise ConfigError("journal owner must be a non-empty string")
        # Probe the record name we will construct so bad owners fail fast.
        validate_name(f"{RECORD_PREFIX}00000001-{owner}.json")
        if lease_seconds <= 0:
            raise ConfigError(
                f"lease_seconds must be > 0, got {lease_seconds}"
            )
        if refresh_seconds < 0:
            raise ConfigError(
                f"refresh_seconds must be >= 0, got {refresh_seconds}"
            )
        self.backend = backend
        self.owner = str(owner)
        self.lease_seconds = float(lease_seconds)
        self.refresh_seconds = float(refresh_seconds)
        self._clock = clock
        self._lock = threading.RLock()
        # Parsed-record cache: object name -> record dict (None = unreadable,
        # kept so damaged records are not re-fetched every refresh).
        self._cache: Dict[str, Optional[Dict]] = {}
        self._pins: Set[str] = set()
        self._pin_owner: Dict[str, str] = {}
        self._leases: Dict[str, LeaseState] = {}
        self._next_seq = 1
        self._last_refresh = float("-inf")
        # Optional SQLite index: the fold up to ``_base_hwm`` lives as the
        # in-memory *base* state, with ``_folded`` the exact record-name
        # set the base covers.  Without an index the base stays empty and
        # every fold starts from zero (exactly the historical behavior).
        self._db = metadb
        self._base_pins: Set[str] = set()
        self._base_pin_owner: Dict[str, str] = {}
        self._base_leases: Dict[str, LeaseState] = {}
        self._base_hwm: Tuple[int, str] = (0, "")
        self._folded: Set[str] = set()
        if self._db is not None:
            self._load_base()
        self.refresh()

    def _load_base(self) -> None:
        """Adopt the index's persisted fold base (a broken index reads as
        empty — the full fold then repopulates it)."""
        try:
            state = self._db.placement_state()
        except StorageError:
            return
        self._base_hwm = state.hwm
        self._base_pins = set(state.pins)
        self._base_pin_owner = dict(state.pin_owner)
        self._base_leases = {
            role: LeaseState(
                role=role, holder=holder, expires=expires, seq=seq
            )
            for role, (holder, expires, seq) in state.leases.items()
        }
        self._folded = set(state.record_names)

    # -- reading ----------------------------------------------------------------

    def refresh(self) -> None:
        """Re-read the log and fold it into the cached state.

        With an index attached only the log *suffix* past the persisted
        high-water mark is read; a record that lists at-or-below the mark
        without being covered by the base forces a full re-fold.
        """
        with self._lock:
            names = self.backend.list(RECORD_PREFIX)
            listed = set(names)
            # Drop cache entries for compacted (deleted) records.
            for name in list(self._cache):
                if name not in listed:
                    del self._cache[name]
            # Base-covered records that were compacted away: their effect
            # lives on in the base until a snapshot record resets it.
            self._folded &= listed
            unseen = [
                n
                for n in names
                if n not in self._cache and n not in self._folded
            ]
            if self._db is not None and unseen:
                out_of_order = any(
                    key is not None and key <= self._base_hwm
                    for key in (parse_record_name(n) for n in unseen)
                )
                if out_of_order:
                    self._reset_base()
                    crash_point(CP_REBUILD_MID_FOLD)
                    unseen = [n for n in names if n not in self._cache]
                elif self._base_hwm == (0, "") and not self._folded:
                    # Bootstrap: a fresh or discarded index is rebuilt from
                    # the full fold of an existing journal.
                    crash_point(CP_REBUILD_MID_FOLD)
                else:
                    self._db.metrics.counter("metadb.catchup_records").inc(
                        len(unseen)
                    )
            for name in unseen:
                if name in self._cache:
                    continue
                try:
                    self._cache[name] = self._parse(self.backend.read(name))
                except StorageError:
                    # Deleted between list and read: a compaction races us,
                    # and the surviving snapshot record carries its effect.
                    continue
            self._fold()
            self._advance_base()
            self._last_refresh = self._clock()

    def _reset_base(self) -> None:
        """Discard the incremental base, in memory and in the index; the
        caller re-reads and re-folds the full log (caller holds lock)."""
        self._base_pins = set()
        self._base_pin_owner = {}
        self._base_leases = {}
        self._base_hwm = (0, "")
        self._folded = set()
        self._cache = {}
        try:
            self._db.clear_placement()
        except StorageError:
            pass
        self._db.metrics.counter("metadb.full_folds").inc()

    def _maybe_refresh(self) -> None:
        with self._lock:
            if self._clock() - self._last_refresh >= self.refresh_seconds:
                self.refresh()

    @staticmethod
    def _parse(data: bytes) -> Optional[Dict]:
        try:
            record = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None  # damaged record: placement is advisory, skip it
        if (
            not isinstance(record, dict)
            or record.get("version") != JOURNAL_VERSION
        ):
            return None
        return record

    def _fold(self) -> None:
        """Rebuild pins/leases from the cached records (caller holds lock)."""
        records = sorted(
            (r for r in self._cache.values() if r is not None),
            key=_record_sort_key,
        )
        pins: Set[str] = set(self._base_pins)
        pin_owner: Dict[str, str] = dict(self._base_pin_owner)
        leases: Dict[str, LeaseState] = dict(self._base_leases)
        top_seq = self._base_hwm[0]
        for record in records:
            seq = int(record.get("seq", 0))
            owner = str(record.get("owner", ""))
            ts = float(record.get("ts", 0.0))
            top_seq = max(top_seq, seq)
            op = record.get("op")
            if op == "pin":
                name = record.get("name")
                if isinstance(name, str):
                    pins.add(name)
                    pin_owner[name] = owner
            elif op == "unpin":
                name = record.get("name")
                if isinstance(name, str):
                    pins.discard(name)
                    pin_owner.pop(name, None)
            elif op == "lease":
                role = str(record.get("role", ""))
                expires = float(record.get("expires", 0.0))
                slot = leases.get(role)
                # A claim takes the slot when it is free, already the
                # claimant's, or expired *at the time the claim was made*.
                if (
                    slot is None
                    or slot.holder == owner
                    or slot.expires <= ts
                ):
                    leases[role] = LeaseState(
                        role=role, holder=owner, expires=expires, seq=seq
                    )
            elif op == "release":
                role = str(record.get("role", ""))
                slot = leases.get(role)
                if slot is not None and slot.holder == owner:
                    del leases[role]
            elif op == "snapshot":
                pins = {n for n in record.get("pins", []) if isinstance(n, str)}
                pin_owner = {
                    n: str(o)
                    for n, o in dict(record.get("pin_owners", {})).items()
                    if isinstance(n, str)
                }
                leases = {}
                for role, slot in dict(record.get("leases", {})).items():
                    leases[str(role)] = LeaseState(
                        role=str(role),
                        holder=str(slot.get("holder", "")),
                        expires=float(slot.get("expires", 0.0)),
                        seq=seq,
                    )
        self._pins = pins
        self._pin_owner = pin_owner
        self._leases = leases
        self._next_seq = top_seq + 1

    def _advance_base(self) -> None:
        """Persist the current fold into the index and adopt it as the new
        base (caller holds lock; journal records are already durable, so a
        crash anywhere in here leaves the index merely *behind*)."""
        if self._db is None:
            return
        live = {
            name: record
            for name, record in self._cache.items()
            if record is not None
        }
        if not live:
            return
        hwm = max(_record_sort_key(record) for record in live.values())
        if hwm <= self._base_hwm:
            return
        rows = []
        for name in self._folded:
            key = parse_record_name(name)
            if key is not None:
                rows.append((name, key[0], key[1]))
        for name, record in live.items():
            rows.append((name, *_record_sort_key(record)))
        crash_point(CP_JOURNAL_BEFORE_APPLY)
        try:
            self._db.replace_placement_state(
                hwm,
                self._pins,
                self._pin_owner,
                {
                    role: (slot.holder, slot.expires, slot.seq)
                    for role, slot in self._leases.items()
                },
                rows,
            )
        except StorageError:
            # The index is a cache; the files stay the truth. A reopening
            # journal re-folds past whatever the index last persisted.
            pass
        crash_point(CP_JOURNAL_AFTER_APPLY)
        self._base_pins = set(self._pins)
        self._base_pin_owner = dict(self._pin_owner)
        self._base_leases = dict(self._leases)
        self._base_hwm = hwm
        self._folded.update(live)
        for name in live:
            self._cache.pop(name, None)

    # -- writing ----------------------------------------------------------------

    def _append(self, op: Dict) -> Dict:
        """Write one record (atomic backend object) and fold it in locally."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            record = {
                "version": JOURNAL_VERSION,
                "seq": seq,
                "owner": self.owner,
                "ts": self._clock(),
                **op,
            }
            name = f"{RECORD_PREFIX}{seq:08d}-{self.owner}.json"
            crash_point(CP_RECORD_BEFORE_WRITE)
            self.backend.write(
                name, json.dumps(record, sort_keys=True).encode("utf-8")
            )
            crash_point(CP_RECORD_AFTER_WRITE)
            self._cache[name] = record
            self._fold()
            self._advance_base()
            return record

    # -- pins -------------------------------------------------------------------

    def pin(self, name: str) -> None:
        """Durably mark ``name`` as never-evict for every sharing process."""
        with self._lock:
            self._maybe_refresh()
            if name in self._pins:
                return
            self._append({"op": "pin", "name": name})

    def unpin(self, name: str) -> None:
        """Durably clear the pin on ``name`` (any process may clear it)."""
        with self._lock:
            self._maybe_refresh()
            if name not in self._pins:
                return
            self._append({"op": "unpin", "name": name})

    def pinned_names(self) -> Set[str]:
        """Names currently pinned according to the (possibly cached) fold."""
        with self._lock:
            self._maybe_refresh()
            return set(self._pins)

    def is_pinned(self, name: str) -> bool:
        """Whether ``name`` is pinned by any sharing process."""
        with self._lock:
            self._maybe_refresh()
            return name in self._pins

    # -- leases -----------------------------------------------------------------

    def acquire_lease(self, role: str, ttl: Optional[float] = None) -> bool:
        """Try to take ``role``; returns whether this owner now holds it.

        The protocol is claim-then-verify: write a claim record, re-read the
        log, and check which claim the deterministic fold awarded the slot
        to.  Two daemons claiming concurrently both observe the same winner.
        """
        ttl = self.lease_seconds if ttl is None else float(ttl)
        if ttl <= 0:
            raise ConfigError(f"lease ttl must be > 0, got {ttl}")
        with self._lock:
            self.refresh()
            now = self._clock()
            slot = self._leases.get(role)
            if slot is not None and slot.expires > now and slot.holder != self.owner:
                return False
            self._append(
                {
                    "op": "lease",
                    "role": role,
                    "expires": now + ttl,
                }
            )
            self.refresh()
            slot = self._leases.get(role)
            return (
                slot is not None
                and slot.holder == self.owner
                and slot.expires > now
            )

    def release_lease(self, role: str) -> None:
        """Give ``role`` back if this owner holds it (idempotent)."""
        with self._lock:
            self.refresh()
            slot = self._leases.get(role)
            if slot is not None and slot.holder == self.owner:
                self._append({"op": "release", "role": role})

    def lease_holder(self, role: str) -> Optional[str]:
        """Current unexpired holder of ``role``, or ``None``."""
        with self._lock:
            self._maybe_refresh()
            slot = self._leases.get(role)
            if slot is None or slot.expires <= self._clock():
                return None
            return slot.holder

    def holds_lease(self, role: str) -> bool:
        """Whether this owner currently holds ``role``."""
        return self.lease_holder(role) == self.owner

    # -- compaction -------------------------------------------------------------

    def records(self) -> List[str]:
        """Record object names currently in the log (diagnostics)."""
        with self._lock:
            self._maybe_refresh()
            return sorted(set(self._cache) | self._folded)

    def compact(self) -> int:
        """Fold the log into one snapshot record; returns records deleted.

        Requires the ``compact`` lease (taken and released here) so two
        daemons never compact concurrently.  Call this at quiescent moments
        — daemon drain — because a record appended *while* the snapshot is
        being written may be reset away; pin-on-save re-asserts such pins.
        """
        with self._lock:
            if not self.acquire_lease(LEASE_COMPACT):
                return 0
            try:
                covered = sorted(
                    self._folded
                    | {
                        name
                        for name, record in self._cache.items()
                        if record is not None
                    }
                )
                snapshot = {
                    "op": "snapshot",
                    "pins": sorted(self._pins),
                    "pin_owners": dict(self._pin_owner),
                    "leases": {
                        role: {"holder": s.holder, "expires": s.expires}
                        for role, s in self._leases.items()
                    },
                }
                kept = self._append(snapshot)
                kept_name = f"{RECORD_PREFIX}{kept['seq']:08d}-{self.owner}.json"
                crash_point(CP_COMPACT_AFTER_SNAPSHOT)
                deleted = 0
                for name in covered:
                    if name == kept_name:
                        continue
                    self.backend.delete(name)
                    self._cache.pop(name, None)
                    self._folded.discard(name)
                    deleted += 1
                    if deleted == 1:
                        crash_point(CP_COMPACT_MID_SWEEP)
                    if self._db is not None:
                        # Index-assisted vacuum: the state tables already
                        # hold the snapshot fold (persisted when the
                        # snapshot record was appended); only the covered
                        # record rows are swept here.
                        try:
                            self._db.prune_record(name)
                        except StorageError:
                            pass
                        if deleted == 1:
                            crash_point(CP_VACUUM_MID_SWEEP)
                self._fold()
                return deleted
            finally:
                self.release_lease(LEASE_COMPACT)
