"""Crash-point chaos harness: kill at every barrier, reopen, assert.

For each name in :data:`repro.faults.crashpoints.REGISTRY` this module runs
a scenario that arms the point, drives the code path through it, catches the
simulated kill (:class:`CrashPointTriggered` — a ``BaseException``, so no
internal handler can swallow it), then *reopens* the affected store from its
backend exactly like a restarted process would and asserts the crash-
consistency invariants:

* the newest restorable checkpoint restores **bitwise** (``latest_valid``
  never returns a half-written snapshot),
* no orphan manifests: every committed manifest still verifies end to end
  (orphan *chunks* are permitted — chunks are written before the manifest
  that names them, so a crash between the two legitimately leaves
  unreferenced chunks for gc),
* the placement journal's fold converges: a fresh reader folds the
  (possibly half-compacted) log to the same pin/lease state,
* the daemon's control-directory lock is recoverable: a fresh daemon can
  claim the directory once the dead one's heartbeat goes stale,
* scrub's own quarantine/repair sequence is re-runnable: a scrub killed
  mid-repair finishes the repair on the next run.

Coverage is closed-loop: a crash point registered anywhere without a
scenario prefix here fails the sweep with "no chaos scenario covers ...",
so new barriers cannot silently escape testing.

Run it directly::

    PYTHONPATH=src python -m repro.faults.chaos          # full sweep
    PYTHONPATH=src python -m repro.faults.chaos --list   # show points
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.snapshot import TrainingSnapshot
from repro.core.store import CheckpointStore
from repro.faults.crashpoints import REGISTRY, CrashPointTriggered
from repro.service.chunkstore import ChunkStore
from repro.service.daemon import (
    DaemonAlreadyRunning,
    DaemonConfig,
    FleetDaemon,
    _read_control_meta,
)
from repro.service.pool import WriterPool
from repro.service.scrub import scrub_store
from repro.storage.memory import InMemoryBackend
from repro.storage.metadb import DB_FILENAME, MetaDB
from repro.storage.placement import PlacementJournal
from repro.storage.replicated import ReplicatedBackend


@dataclass
class CrashPointResult:
    """Outcome of one kill-reopen-assert scenario."""

    point: str
    triggered: bool
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.triggered and not self.violations


def _snapshot(step: int) -> TrainingSnapshot:
    """Deterministic snapshot whose tensors differ per ``step`` (distinct
    steps must produce distinct chunks, or an armed chunk write dedups
    instead of writing)."""
    rng = np.random.default_rng(step)
    return TrainingSnapshot(
        step=step,
        params=rng.normal(size=48),
        optimizer_state={"lr": 0.01, "beta": 0.9},
        rng_state={"seed": step},
        model_fingerprint="chaos-model",
    )


def _bitwise(a: TrainingSnapshot, b: TrainingSnapshot) -> bool:
    return a.step == b.step and a.params.tobytes() == b.params.tobytes()


def _trigger(point: str, action: Callable[[], object]) -> Optional[str]:
    """Arm ``point``, run ``action``, absorb the kill.

    Returns a violation string when the armed point never fired — the
    scenario does not actually exercise that barrier.
    """
    try:
        with REGISTRY.armed(point):
            action()
    except CrashPointTriggered:
        return None
    return "armed crash point never fired during its scenario"


# -- scenarios, one per point prefix -------------------------------------------


def _scenario_store(point: str, make_store, invariant=None) -> CrashPointResult:
    """Save, arm, save, reopen; what is committed restores bitwise; save
    again.  One experiment for both stores, through the job-scoped verbs
    they share; ``invariant(backend)`` yields a store's extra violations."""
    backend = InMemoryBackend()
    store = make_store(backend)
    snap1, snap2 = _snapshot(1), _snapshot(2)
    store.save_snapshot("chaos", snap1)
    miss = _trigger(point, lambda: store.save_snapshot("chaos", snap2))
    if miss:
        return CrashPointResult(point, False, [miss])

    reopened = make_store(backend)  # the process restart
    violations: List[str] = list(invariant(backend)) if invariant else []
    # Only a crash *after* the manifest barrier leaves the new checkpoint
    # committed; at every earlier point the store must fall back to snap1.
    expect = [snap1, snap2] if point.endswith("manifest.after-write") else [snap1]
    records = reopened.checkpoints("chaos")
    if len(records) != len(expect):
        violations.append(
            f"{len(records)} checkpoint(s) committed after crash, "
            f"expected {len(expect)}"
        )
    for record, want in zip(records, expect):
        ok, detail = reopened.verify("chaos", record.ckpt_id)
        if not ok:
            violations.append(
                f"committed checkpoint {record.ckpt_id} fails verify "
                f"after crash: {detail}"
            )
        elif not _bitwise(
            reopened.load_snapshot("chaos", record.ckpt_id), want
        ):
            violations.append(
                f"checkpoint {record.ckpt_id} no longer restores bitwise"
            )
    _, snapshot, _ = reopened.latest_valid("chaos")
    if snapshot is None:
        violations.append("no restorable checkpoint after crash")
    elif not _bitwise(snapshot, expect[-1]):
        violations.append(
            f"latest_valid restored step {snapshot.step}, expected "
            f"step {expect[-1].step} bitwise"
        )
    reopened.save_snapshot("chaos", _snapshot(3))
    _, after, _ = reopened.latest_valid("chaos")
    if after is None or not _bitwise(after, _snapshot(3)):
        violations.append("save after reopen does not restore bitwise")
    return CrashPointResult(point, True, violations)


def _chunk_fsck(backend) -> List[str]:
    """The chunk store's own invariant: a read-only scrub finds nothing but
    orphan chunks (written before the manifest that would have named them,
    so a crash between the two legitimately leaves some for gc)."""
    fsck = scrub_store(backend, repair=False)
    violations = [
        f"fsck after crash: [{finding.kind}] {finding.name}: {finding.detail}"
        for finding in fsck.findings
        if finding.kind != "orphan-chunk"
    ]
    if fsck.unrestorable:
        violations.append(
            f"manifests unrestorable after crash: {fsck.unrestorable}"
        )
    return violations


def _scenario_placement_record(point: str) -> CrashPointResult:
    backend = InMemoryBackend()
    journal = PlacementJournal(backend, owner="chaos-a")
    journal.pin("job-base")
    miss = _trigger(point, lambda: journal.pin("job-target"))
    if miss:
        return CrashPointResult(point, False, [miss])

    violations: List[str] = []
    reader = PlacementJournal(backend, owner="chaos-b")  # fresh fold
    try:
        pins = reader.pinned_names()
    except Exception as exc:  # noqa: BLE001 - any failure = fold diverged
        return CrashPointResult(
            point, True, [f"journal fold failed after crash: {exc!r}"]
        )
    if "job-base" not in pins:
        violations.append("pre-crash pin lost from the fold")
    durable = point.endswith("after-write")
    if durable and "job-target" not in pins:
        violations.append("record written before crash missing from fold")
    if not durable and "job-target" in pins:
        violations.append("crash before record write still produced a pin")
    reader.pin("job-target")  # the retried operation must converge
    if "job-target" not in reader.pinned_names():
        violations.append("re-issued pin did not converge")
    return CrashPointResult(point, True, violations)


def _scenario_placement_compact(point: str) -> CrashPointResult:
    backend = InMemoryBackend()
    journal = PlacementJournal(backend, owner="chaos-a")
    journal.pin("job-a")
    journal.pin("job-b")
    journal.acquire_lease("warm")
    journal.release_lease("warm")
    miss = _trigger(point, journal.compact)
    if miss:
        return CrashPointResult(point, False, [miss])

    violations: List[str] = []
    reader = PlacementJournal(backend, owner="chaos-b")
    try:
        pins = reader.pinned_names()
    except Exception as exc:  # noqa: BLE001
        return CrashPointResult(
            point, True, [f"journal fold failed after crash: {exc!r}"]
        )
    if pins != {"job-a", "job-b"}:
        violations.append(
            f"fold of half-compacted log diverged: pins {sorted(pins)}"
        )
    try:
        reader.compact()  # a later compaction must be able to finish the job
    except Exception as exc:  # noqa: BLE001
        violations.append(f"re-run compaction failed: {exc!r}")
    if reader.pinned_names() != {"job-a", "job-b"}:
        violations.append("pins changed across re-run compaction")
    return CrashPointResult(point, True, violations)


def _scenario_daemon(point: str) -> CrashPointResult:
    config = DaemonConfig(heartbeat_seconds=0.05, stale_after_seconds=0.2)
    pool = WriterPool(workers=1)
    with tempfile.TemporaryDirectory(prefix="qckpt-chaos-ctl-") as control:
        try:
            daemon = FleetDaemon(
                ChunkStore(InMemoryBackend()),
                pool,
                control,
                config=config,
                daemon_id="chaos-1",
            )
            daemon._claim_control()
            miss = _trigger(point, daemon._write_meta)
            if miss:
                return CrashPointResult(point, False, [miss])

            violations: List[str] = []
            meta = _read_control_meta(control)
            # Heartbeats atomically replace daemon.json: a kill mid-write
            # must leave the previous copy readable, never torn JSON.
            if meta is None or meta.get("daemon_id") != "chaos-1":
                violations.append(
                    "daemon.json unreadable (or wrong owner) after crash "
                    "mid-heartbeat"
                )
            rival = FleetDaemon(
                ChunkStore(InMemoryBackend()),
                pool,
                control,
                config=config,
                daemon_id="chaos-2",
            )
            try:
                rival._claim_control()
                violations.append(
                    "rival claimed the control directory while the dead "
                    "daemon's heartbeat was still fresh"
                )
            except DaemonAlreadyRunning:
                pass
            time.sleep(config.stale_after_seconds + 0.1)
            try:
                rival._claim_control()  # stale heartbeat: lock must recover
            except DaemonAlreadyRunning:
                violations.append(
                    "control lock never became claimable after the daemon "
                    "died"
                )
            return CrashPointResult(point, True, violations)
        finally:
            pool.close()


def _scenario_scrub(point: str) -> CrashPointResult:
    replica_a, replica_b = InMemoryBackend(), InMemoryBackend()
    backend = ReplicatedBackend([replica_a, replica_b], read_repair=False)
    store = ChunkStore(backend)
    snap = _snapshot(1)
    store.save_snapshot("chaos", snap)
    address = sorted(replica_a.list("ch-"))[0]
    replica_a.write(address, b"bit-rot")  # one replica survives
    miss = _trigger(point, lambda: scrub_store(backend, repair=True))
    if miss:
        return CrashPointResult(point, False, [miss])

    violations: List[str] = []
    finish = scrub_store(backend, repair=True)  # re-run completes the repair
    if finish.unrestorable:
        violations.append(
            f"re-run scrub left unrestorable manifests: {finish.unrestorable}"
        )
    if finish.unrepaired:
        violations.append(
            f"re-run scrub left {finish.unrepaired} finding(s) unrepaired"
        )
    fsck = scrub_store(backend, repair=False)
    if not fsck.clean:
        violations.append(
            f"store not clean after crashed-then-finished repair: "
            f"{fsck.summary()}"
        )
    _, restored, _ = ChunkStore(backend).latest_valid("chaos")
    if restored is None or not _bitwise(restored, snap):
        violations.append("checkpoint does not restore bitwise after repair")
    return CrashPointResult(point, True, violations)


def _scenario_metadb(point: str) -> CrashPointResult:
    """Kill around the journal-append → index-update barriers.

    Invariant: journal records are durable before the index is touched, so
    a reopened index — whatever half-state the kill left it in — must fold
    to exactly the state a fresh, index-less reader folds from the files
    (the recovery oracle).
    """
    backend = InMemoryBackend()
    with tempfile.TemporaryDirectory(prefix="qckpt-chaos-metadb-") as tmp:
        db_path = os.path.join(tmp, DB_FILENAME)
        journal = PlacementJournal(
            backend,
            owner="chaos-a",
            refresh_seconds=0.0,
            metadb=MetaDB(db_path),
        )
        journal.pin("job-base")
        reopen_path = db_path
        if point.startswith("metadb.journal."):
            action = lambda: journal.pin("job-target")  # noqa: E731
        elif point.startswith("metadb.rebuild."):
            journal.pin("job-target")
            # A reader bootstrapping a brand-new index file runs the
            # rebuild-from-scratch fold; killing it must leave that index
            # empty-or-absent, never half-trusted.
            reopen_path = os.path.join(tmp, "fresh-" + DB_FILENAME)
            action = lambda: PlacementJournal(  # noqa: E731
                backend,
                owner="chaos-b",
                refresh_seconds=0.0,
                metadb=MetaDB(reopen_path),
            )
        else:  # metadb.vacuum.*
            journal.pin("job-target")
            journal.acquire_lease("warm")
            journal.release_lease("warm")
            action = journal.compact
        miss = _trigger(point, action)
        if miss:
            return CrashPointResult(point, False, [miss])

        violations: List[str] = []
        oracle = PlacementJournal(
            backend, owner="chaos-oracle", refresh_seconds=0.0
        )
        try:
            reopened = PlacementJournal(
                backend,
                owner="chaos-r",
                refresh_seconds=0.0,
                metadb=MetaDB(reopen_path),
            )
        except Exception as exc:  # noqa: BLE001 - reopen must never fail
            return CrashPointResult(
                point, True, [f"indexed reopen failed after crash: {exc!r}"]
            )
        if reopened.pinned_names() != oracle.pinned_names():
            violations.append(
                f"indexed fold diverged from file-journal oracle: "
                f"{sorted(reopened.pinned_names())} != "
                f"{sorted(oracle.pinned_names())}"
            )
        for role in ("warm", "compact"):
            if reopened.lease_holder(role) != oracle.lease_holder(role):
                violations.append(
                    f"lease {role!r} holder diverged from oracle after crash"
                )
        reopened.pin("job-target")  # the retried operation must converge
        verify = PlacementJournal(
            backend, owner="chaos-v", refresh_seconds=0.0
        )
        if verify.pinned_names() != reopened.pinned_names():
            violations.append(
                "post-reopen pin not visible to an index-less reader"
            )
        return CrashPointResult(point, True, violations)


_SCENARIOS = [
    ("chunkstore.", lambda p: _scenario_store(p, ChunkStore, _chunk_fsck)),
    ("corestore.", lambda p: _scenario_store(p, CheckpointStore)),
    ("placement.record.", _scenario_placement_record),
    ("placement.compact.", _scenario_placement_compact),
    ("daemon.", _scenario_daemon),
    ("scrub.", _scenario_scrub),
    ("metadb.", _scenario_metadb),
]


def run_crash_point(point: str) -> CrashPointResult:
    """Kill at ``point``, reopen, assert; returns the scenario's verdict."""
    for prefix, scenario in _SCENARIOS:
        if point.startswith(prefix):
            try:
                return scenario(point)
            except CrashPointTriggered as exc:
                return CrashPointResult(
                    point, True, [f"simulated kill escaped the harness: {exc}"]
                )
    return CrashPointResult(
        point,
        False,
        [f"no chaos scenario covers {point!r}; add one to repro.faults.chaos"],
    )


def run_sweep(points: Optional[List[str]] = None) -> List[CrashPointResult]:
    """Run every (or the given) registered crash point's scenario."""
    return [run_crash_point(p) for p in (points or REGISTRY.names())]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.chaos",
        description="systematic crash-consistency sweep over every "
        "registered crash point",
    )
    parser.add_argument(
        "--points",
        nargs="+",
        metavar="NAME",
        help="sweep only these crash points (default: all registered)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered crash points and exit",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit results as JSON"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, description in sorted(REGISTRY.describe().items()):
            print(f"{name}: {description}")
        return 0

    results = run_sweep(args.points)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "point": r.point,
                        "triggered": r.triggered,
                        "violations": r.violations,
                    }
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for result in results:
            if result.ok:
                print(f"ok   {result.point}")
            else:
                print(f"FAIL {result.point}")
                if not result.triggered:
                    print("     - crash point never triggered")
                for violation in result.violations:
                    print(f"     - {violation}")
        failed = sum(1 for r in results if not r.ok)
        print(
            f"{len(results)} crash point(s) swept, "
            f"{len(results) - failed} ok, {failed} failed"
        )
    return 0 if all(r.ok for r in results) else 1


__all__ = [
    "CrashPointResult",
    "main",
    "run_crash_point",
    "run_sweep",
]


if __name__ == "__main__":
    raise SystemExit(main())
