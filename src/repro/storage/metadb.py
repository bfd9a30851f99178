"""Schema-versioned SQLite index over the store's append-only metadata.

Every bookkeeping path in the service layer — ``latest_valid`` discovery,
the placement-journal fold, gc's liveness set — is an O(everything) scan of JSON files.  :class:`MetaDB` puts that
metadata behind one SQLite file with typed tables, making each of those
paths O(query).  The design rule that keeps it safe:

**The index is a cache; the files are the truth.**  Placement journal
records (``plj-*.json``) and checkpoint manifests (``job-*-ckpt-*.json``)
stay append-only and are always written *first*; the index is updated
after.  A crash between the two leaves the index *behind*, never
wrong, and three recovery mechanisms close the gap:

* **High-water-mark catch-up** — the index stores the ``(seq, owner)`` key
  of the newest journal record folded into it plus the set of record names
  that fold covered.  A reopening :class:`~repro.storage.placement
  .PlacementJournal` reads only the journal *suffix* past that mark instead
  of re-folding the whole log.  A record that appears at-or-below the mark
  without being part of the covered set (a concurrent writer landed a
  record that sorts before the mark) invalidates the incremental state and
  forces a full re-fold — the deterministic file fold always wins.
* **Reconcile-on-open** — a :class:`~repro.service.chunkstore.ChunkStore`
  lists manifest *names* (cheap) and reads only manifests the index does
  not know, deleting rows whose files are gone.
* **Rebuild-from-scratch** — a missing, corrupt, or version-mismatched
  index file is deleted and recreated empty; the callers' full folds then
  repopulate it.  The index is never trusted blindly.

File placement: for a :class:`~repro.storage.local.LocalDirectoryBackend`
store the index lives in a dot-file (:data:`DB_FILENAME`) next to the
objects.  Backend object names may not start with a dot and directory
listings skip dot-files, so the sidecar is invisible to — and unreachable
through — the storage API; it is accessed by filesystem path only.
``path=None`` opens an in-memory index (tests, in-memory backends).

Every writer sharing a store must share its index file (SQLite WAL mode
handles the cross-process concurrency); a writer that bypasses the index
leaves it stale until the next reconcile.  All telemetry lands in the
``metadb.*`` series of the registry passed in (opens, rebuilds, applies,
catch-up/full-fold counts, query counter, transaction latency).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import StorageError
from repro.faults.crashpoints import register_crash_point
from repro.obs.metrics import MetricsRegistry

#: Bump on any schema change; a mismatched file is discarded and rebuilt.
SCHEMA_VERSION = 1

#: Sidecar filename for directory-backed stores.  The leading dot keeps it
#: out of backend listings and makes it un-addressable as a backend object.
DB_FILENAME = ".qckpt-meta.db"

# Crash barriers around the journal-append -> index-update ordering.  The
# chaos sweep (repro.faults.chaos, prefix "metadb.") kills at each and
# asserts a reopened index is oracle-equivalent to the file-journal fold.
CP_JOURNAL_BEFORE_APPLY = register_crash_point(
    "metadb.journal.before-apply",
    "die after a journal record is durable but before the index "
    "transaction (index high-water mark goes stale; reopen must catch "
    "up from the journal suffix)",
)
CP_JOURNAL_AFTER_APPLY = register_crash_point(
    "metadb.journal.after-apply",
    "die after the index transaction commits but before in-memory "
    "bookkeeping adopts the new base state",
)
CP_REBUILD_MID_FOLD = register_crash_point(
    "metadb.rebuild.mid-fold",
    "die mid-way through rebuilding the index from the full journal fold "
    "(index cleared or still empty, nothing re-persisted yet)",
)
CP_VACUUM_MID_SWEEP = register_crash_point(
    "metadb.vacuum.mid-sweep",
    "die after pruning the first covered record row of a compaction "
    "vacuum (index record table half-swept, state tables intact)",
)

_PLACEMENT_HWM_EMPTY: Tuple[int, str] = (0, "")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS pins (
    name  TEXT PRIMARY KEY,
    owner TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS leases (
    role    TEXT PRIMARY KEY,
    holder  TEXT NOT NULL,
    expires REAL NOT NULL,
    seq     INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS journal_records (
    name  TEXT PRIMARY KEY,
    seq   INTEGER NOT NULL,
    owner TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS manifests (
    object_name TEXT PRIMARY KEY,
    job         TEXT NOT NULL,
    seq         INTEGER NOT NULL,
    ckpt_id     TEXT NOT NULL,
    step        INTEGER,
    created     REAL,
    codec       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_manifests_job ON manifests (job, seq);
CREATE TABLE IF NOT EXISTS chunk_refs (
    object_name   TEXT NOT NULL,
    chunk         TEXT NOT NULL,
    stored_nbytes INTEGER NOT NULL,
    PRIMARY KEY (object_name, chunk)
);
CREATE INDEX IF NOT EXISTS idx_chunk_refs_chunk ON chunk_refs (chunk);
"""

_REQUIRED_TABLES = {
    "meta",
    "pins",
    "leases",
    "journal_records",
    "manifests",
    "chunk_refs",
}


class _SchemaMismatch(Exception):
    """Internal: stored schema version differs from :data:`SCHEMA_VERSION`."""


@dataclass
class PlacementBase:
    """The folded placement state persisted in the index.

    ``hwm`` is the ``(seq, owner)`` sort key of the newest journal record
    whose effect is included; ``record_names`` is exactly the set of
    journal record names that fold covered (the out-of-order detector).
    """

    hwm: Tuple[int, str] = _PLACEMENT_HWM_EMPTY
    pins: Set[str] = field(default_factory=set)
    pin_owner: Dict[str, str] = field(default_factory=dict)
    #: role -> (holder, expires, seq)
    leases: Dict[str, Tuple[str, float, int]] = field(default_factory=dict)
    record_names: Set[str] = field(default_factory=set)


def metadb_enabled(
    explicit: Optional[bool] = None, default: bool = False
) -> bool:
    """Resolve the index on/off switch: explicit arg > env > ``default``.

    ``QCKPT_METADB=0`` force-disables, ``QCKPT_METADB=1`` force-enables —
    the CI parity job runs the differential suite under both values.
    """
    if explicit is not None:
        return bool(explicit)
    env = os.environ.get("QCKPT_METADB")
    if env is not None:
        return env.strip().lower() not in ("0", "false", "no", "")
    return default


def metadb_for_dir(
    directory,
    metrics: Optional[MetricsRegistry] = None,
    enabled: Optional[bool] = None,
) -> Optional["MetaDB"]:
    """Sidecar index for a local store directory, or ``None`` if disabled."""
    if not metadb_enabled(enabled):
        return None
    return MetaDB(Path(directory) / DB_FILENAME, metrics=metrics)


class MetaDB:
    """One SQLite connection over the store's metadata index.

    Thread-safe (one internal lock; SQLite opened with
    ``check_same_thread=False``); cross-*process* sharing of a file-backed
    index goes through WAL mode plus ``BEGIN IMMEDIATE`` transactions with
    a high-water-mark guard, so two daemons never interleave half-applied
    placement state.  Every operation that fails inside SQLite surfaces as
    :class:`~repro.errors.StorageError` — callers treat the index as a
    cache and fall back to the file scan.
    """

    def __init__(
        self,
        path=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.path = None if path is None else str(path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        #: True when this open discarded a prior index file (corrupt or
        #: version-mismatched) — the caller's full fold repopulates it.
        self.discarded_previous = False
        self._open()

    # -- lifecycle --------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self.path is None:
            conn = sqlite3.connect(":memory:", check_same_thread=False)
        else:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            conn = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
            # WAL lets concurrent readers proceed under a writer and keeps
            # commits one fsync; NORMAL is safe with WAL (a power loss may
            # drop the newest transactions — the journal suffix catch-up
            # heals exactly that).
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=OFF")
        return conn

    def _open(self) -> None:
        with self._lock:
            try:
                self._conn = self._connect()
                self._validate_or_init()
            except (sqlite3.Error, _SchemaMismatch):
                # Corrupt or from another era: discard, never trust.
                self._discard_and_recreate()
            self.metrics.counter("metadb.opens").inc()

    def _validate_or_init(self) -> None:
        conn = self._conn
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        if not tables:
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            conn.commit()
            return
        if not _REQUIRED_TABLES <= tables:
            raise _SchemaMismatch(f"missing tables: {_REQUIRED_TABLES - tables}")
        row = conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        if row is None or row[0] != str(SCHEMA_VERSION):
            raise _SchemaMismatch(
                f"schema version {row[0] if row else None!r} != "
                f"{SCHEMA_VERSION}"
            )
        # Cheap corruption probe; a torn file fails here, not mid-query.
        status = conn.execute("PRAGMA quick_check(1)").fetchone()
        if status is None or status[0] != "ok":
            raise _SchemaMismatch(f"quick_check: {status}")

    def _discard_and_recreate(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        if self.path is not None:
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(self.path + suffix)
                except OSError:
                    pass
        self.discarded_previous = True
        self.metrics.counter("metadb.rebuilds").inc()
        self._conn = self._connect()
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) "
            "VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
        self._conn.commit()

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    def _execute(self, sql: str, params: Tuple = ()):
        """One auto-committed statement under the lock (cache semantics:
        any SQLite failure is a :class:`StorageError` the caller may
        absorb)."""
        with self._lock:
            if self._conn is None:
                raise StorageError("metadata index is closed")
            try:
                cursor = self._conn.execute(sql, params)
                self._conn.commit()
                return cursor
            except sqlite3.Error as exc:
                raise StorageError(f"metadata index: {exc}") from exc

    def _query(self, sql: str, params: Tuple = ()) -> List[Tuple]:
        with self._lock:
            if self._conn is None:
                raise StorageError("metadata index is closed")
            try:
                self.metrics.counter("metadb.queries").inc()
                return self._conn.execute(sql, params).fetchall()
            except sqlite3.Error as exc:
                raise StorageError(f"metadata index: {exc}") from exc

    # -- placement (journal fold base) ------------------------------------------

    def placement_state(self) -> PlacementBase:
        """The persisted fold base (empty base when never persisted)."""
        base = PlacementBase()
        rows = self._query(
            "SELECT key, value FROM meta WHERE key IN "
            "('placement_hwm_seq', 'placement_hwm_owner')"
        )
        meta = {key: value for key, value in rows}
        if "placement_hwm_seq" in meta:
            base.hwm = (
                int(meta["placement_hwm_seq"]),
                str(meta.get("placement_hwm_owner", "")),
            )
        base.pins = {
            name for (name, _) in self._query("SELECT name, owner FROM pins")
        }
        base.pin_owner = {
            name: owner
            for (name, owner) in self._query("SELECT name, owner FROM pins")
        }
        base.leases = {
            role: (holder, float(expires), int(seq))
            for (role, holder, expires, seq) in self._query(
                "SELECT role, holder, expires, seq FROM leases"
            )
        }
        base.record_names = {
            name for (name,) in self._query("SELECT name FROM journal_records")
        }
        return base

    def replace_placement_state(
        self,
        hwm: Tuple[int, str],
        pins: Iterable[str],
        pin_owner: Dict[str, str],
        leases: Dict[str, Tuple[str, float, int]],
        record_names: Iterable[Tuple[str, int, str]],
    ) -> bool:
        """Atomically replace the fold base, guarded by the high-water mark.

        Returns ``False`` (and writes nothing) when the stored mark is
        already at or past ``hwm`` — another process applied a newer fold;
        the journal files remain the tie-breaker.  ``record_names`` carries
        ``(name, seq, owner)`` triples of every record the new base covers.
        """
        started = time.perf_counter()
        with self._lock:
            if self._conn is None:
                raise StorageError("metadata index is closed")
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key='placement_hwm_seq'"
                ).fetchone()
                owner_row = self._conn.execute(
                    "SELECT value FROM meta WHERE key='placement_hwm_owner'"
                ).fetchone()
                stored = (
                    (int(row[0]), str(owner_row[0]) if owner_row else "")
                    if row is not None
                    else _PLACEMENT_HWM_EMPTY
                )
                if stored >= tuple(hwm):
                    self._conn.execute("ROLLBACK")
                    return False
                self._conn.execute("DELETE FROM pins")
                self._conn.execute("DELETE FROM leases")
                self._conn.execute("DELETE FROM journal_records")
                self._conn.executemany(
                    "INSERT INTO pins (name, owner) VALUES (?, ?)",
                    [(name, pin_owner.get(name, "")) for name in pins],
                )
                self._conn.executemany(
                    "INSERT INTO leases (role, holder, expires, seq) "
                    "VALUES (?, ?, ?, ?)",
                    [
                        (role, holder, float(expires), int(seq))
                        for role, (holder, expires, seq) in leases.items()
                    ],
                )
                self._conn.executemany(
                    "INSERT INTO journal_records (name, seq, owner) "
                    "VALUES (?, ?, ?)",
                    [
                        (name, int(seq), str(owner))
                        for name, seq, owner in record_names
                    ],
                )
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) "
                    "VALUES ('placement_hwm_seq', ?)",
                    (str(int(hwm[0])),),
                )
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) "
                    "VALUES ('placement_hwm_owner', ?)",
                    (str(hwm[1]),),
                )
                self._conn.commit()
            except sqlite3.Error as exc:
                try:
                    self._conn.rollback()
                except sqlite3.Error:
                    pass
                raise StorageError(f"metadata index: {exc}") from exc
            except BaseException:
                try:
                    self._conn.rollback()
                except sqlite3.Error:
                    pass
                raise
        self.metrics.counter("metadb.applies").inc()
        self.metrics.histogram("metadb.txn_seconds").observe(
            time.perf_counter() - started
        )
        return True

    def clear_placement(self) -> None:
        """Drop the fold base (the rebuild path resets to an empty mark)."""
        with self._lock:
            if self._conn is None:
                raise StorageError("metadata index is closed")
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                self._conn.execute("DELETE FROM pins")
                self._conn.execute("DELETE FROM leases")
                self._conn.execute("DELETE FROM journal_records")
                self._conn.execute(
                    "DELETE FROM meta WHERE key IN "
                    "('placement_hwm_seq', 'placement_hwm_owner')"
                )
                self._conn.commit()
            except sqlite3.Error as exc:
                try:
                    self._conn.rollback()
                except sqlite3.Error:
                    pass
                raise StorageError(f"metadata index: {exc}") from exc

    def prune_record(self, name: str) -> None:
        """Drop one covered record row (compaction vacuum, record deleted)."""
        self._execute("DELETE FROM journal_records WHERE name = ?", (name,))

    # -- chunk-manifest headers --------------------------------------------------

    def upsert_manifest(
        self,
        object_name: str,
        job: str,
        seq: int,
        ckpt_id: str,
        step: Optional[int],
        created: Optional[float],
        codec: str,
        refs: Iterable[Tuple[str, int]],
    ) -> None:
        """Insert/replace one manifest header row plus its chunk refs."""
        with self._lock:
            if self._conn is None:
                raise StorageError("metadata index is closed")
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                self._conn.execute(
                    "INSERT OR REPLACE INTO manifests "
                    "(object_name, job, seq, ckpt_id, step, created, codec) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        object_name,
                        job,
                        int(seq),
                        ckpt_id,
                        None if step is None else int(step),
                        None if created is None else float(created),
                        codec,
                    ),
                )
                self._conn.execute(
                    "DELETE FROM chunk_refs WHERE object_name = ?",
                    (object_name,),
                )
                self._conn.executemany(
                    "INSERT OR REPLACE INTO chunk_refs "
                    "(object_name, chunk, stored_nbytes) VALUES (?, ?, ?)",
                    [
                        (object_name, chunk, int(nbytes))
                        for chunk, nbytes in refs
                    ],
                )
                self._conn.commit()
            except sqlite3.Error as exc:
                try:
                    self._conn.rollback()
                except sqlite3.Error:
                    pass
                raise StorageError(f"metadata index: {exc}") from exc

    def delete_manifest(self, object_name: str) -> None:
        with self._lock:
            if self._conn is None:
                raise StorageError("metadata index is closed")
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                self._conn.execute(
                    "DELETE FROM manifests WHERE object_name = ?",
                    (object_name,),
                )
                self._conn.execute(
                    "DELETE FROM chunk_refs WHERE object_name = ?",
                    (object_name,),
                )
                self._conn.commit()
            except sqlite3.Error as exc:
                try:
                    self._conn.rollback()
                except sqlite3.Error:
                    pass
                raise StorageError(f"metadata index: {exc}") from exc

    def manifest_objects(self) -> Set[str]:
        """Every manifest object name the index knows."""
        return {
            name for (name,) in self._query("SELECT object_name FROM manifests")
        }

    def manifest_names(self, job: str) -> List[str]:
        """One job's manifest names in commit (sequence) order."""
        return [
            name
            for (name,) in self._query(
                "SELECT object_name FROM manifests WHERE job = ? "
                "ORDER BY seq",
                (job,),
            )
        ]

    def has_manifests(self, job: str) -> bool:
        rows = self._query(
            "SELECT 1 FROM manifests WHERE job = ? LIMIT 1", (job,)
        )
        return bool(rows)

    def jobs(self) -> List[str]:
        return [
            job
            for (job,) in self._query(
                "SELECT DISTINCT job FROM manifests ORDER BY job"
            )
        ]

    def live_chunks(self) -> Set[str]:
        """Chunk addresses referenced by at least one indexed manifest —
        gc's liveness set in one query instead of a manifest walk."""
        return {
            chunk
            for (chunk,) in self._query("SELECT DISTINCT chunk FROM chunk_refs")
        }

    def newest_manifests(self) -> Dict[str, Tuple[int, str]]:
        """``job -> (highest seq, its manifest object)`` in one query: what
        a reopening store needs to continue every job's sequence and pin
        its newest manifest.  (SQLite takes a bare column beside ``MAX``
        from the row that holds the maximum.)"""
        return {
            job: (int(seq), name)
            for (job, seq, name) in self._query(
                "SELECT job, MAX(seq), object_name FROM manifests GROUP BY job"
            )
        }

    def chunk_sizes(self, codec: str) -> Dict[str, int]:
        """``chunk -> stored_nbytes`` over manifests of one codec (the
        reopened store's dedup index, no manifest reads), one row per
        chunk however many manifests reference it."""
        return dict(
            self._query(
                "SELECT chunk, MAX(stored_nbytes) FROM chunk_refs "
                "WHERE object_name IN "
                "(SELECT object_name FROM manifests WHERE codec = ?) "
                "GROUP BY chunk",
                (codec,),
            )
        )

    def manifest_refs(self, object_name: str) -> Dict[str, int]:
        return {
            chunk: int(nbytes)
            for (chunk, nbytes) in self._query(
                "SELECT chunk, stored_nbytes FROM chunk_refs "
                "WHERE object_name = ?",
                (object_name,),
            )
        }


def manifest_index_row(object_name: str, manifest: Dict):
    """``(job, seq, ckpt_id, step, created, codec, refs)`` for one parsed
    manifest, or ``None`` when the name does not parse.  Shared by the
    chunk store's write-through/reconcile and the scrubber's repair path so
    both index the same shape."""
    # Local import: chunkstore imports this module for crash-point names.
    from repro.service.chunkstore import _parse_manifest_name

    job_id, seq = _parse_manifest_name(object_name)
    if job_id is None:
        return None
    refs: Dict[str, int] = {}
    for entry in manifest.get("tensors", []):
        for block in entry.get("blocks", []):
            chunk = block.get("chunk")
            if chunk:
                refs[chunk] = int(block.get("stored_nbytes", 0))
    return (
        job_id,
        seq,
        str(manifest.get("ckpt_id", f"ckpt-{seq:06d}")),
        manifest.get("step"),
        manifest.get("created"),
        str(manifest.get("codec", "")),
        sorted(refs.items()),
    )


def index_manifest(db: MetaDB, object_name: str, manifest: Dict) -> None:
    """Write-through one committed manifest into ``db`` (no-op on a name
    that does not parse as a manifest)."""
    row = manifest_index_row(object_name, manifest)
    if row is None:
        return
    job_id, seq, ckpt_id, step, created, codec, refs = row
    db.upsert_manifest(
        object_name, job_id, seq, ckpt_id, step, created, codec, refs
    )


def parse_record_name(name: str) -> Optional[Tuple[int, str]]:
    """``plj-<seq:08d>-<owner>.json`` -> its ``(seq, owner)`` sort key."""
    if not name.startswith("plj-") or not name.endswith(".json"):
        return None
    stem = name[len("plj-") : -len(".json")]
    sep = stem.find("-")
    if sep < 1 or not stem[:sep].isdigit():
        return None
    return int(stem[:sep]), stem[sep + 1 :]


__all__ = [
    "DB_FILENAME",
    "MetaDB",
    "PlacementBase",
    "SCHEMA_VERSION",
    "index_manifest",
    "manifest_index_row",
    "metadb_enabled",
    "metadb_for_dir",
    "parse_record_name",
]
