"""``qckpt`` command-line tool: inspect and validate checkpoint stores.

Subcommands::

    qckpt ls <dir>                 list checkpoints in a store directory
    qckpt inspect <file|dir/id>    dump a checkpoint header (no tensor decode)
    qckpt verify <dir>             validate every checkpoint end to end
    qckpt gc <dir> --keep-last N   apply a retention policy
    qckpt diff <dir> <id_a> <id_b> compare two checkpoints tensor by tensor
    qckpt export <dir> <id> <out>  materialize a checkpoint as a standalone file
    qckpt peek <dir> <id> <t...>   read named tensors (a partial restore)
    qckpt restore <dir> [...]      restore through the unified pipeline
                                   (--tensors subset / --warm-start / --plan)
    qckpt stats <dir>              aggregate store statistics
    qckpt scrub <dir> [<dir>...]   verify chunk content; quarantine + repair
    qckpt fsck <dir> [<dir>...]    read-only health check (scrub, no repair)
    qckpt metrics [<dir>] [...]    one-shot telemetry dump (--json for raw);
                                   live from a daemon (--control/--connect)
                                   or the persisted <store>/obs/registry.json
    qckpt top [...]                live fleet dashboard: save/restore rates,
                                   dedup ratio, tier hits, breaker state
    qckpt fleet [--jobs N ...]     run a multi-job checkpoint-service scenario
    qckpt daemon start <dir>       run the long-running fleet daemon
                                   (--listen HOST:PORT serves TCP as well)
    qckpt daemon submit ...        submit a job to a running daemon
    qckpt daemon status ...        query daemon and per-job state
    qckpt daemon preempt ...       kill job incarnations (they reincarnate)
    qckpt daemon drain ...         finish running jobs, then stop the daemon
    qckpt daemon stop ...          stop now: flush queued saves, halt jobs

``<dir>`` is whatever a run left behind — a flat chunk store, a daemon root
with one or many shards, or a QCKPT store an earlier release wrote: every
verb opens it through :func:`repro.open_store` (a QCKPT store is read-only,
so ``gc`` refuses it; ``scrub``/``fsck`` read chunk objects, so they refuse
it too).

Every daemon client verb reaches its daemon through ``--control DIR``
(the Unix socket ``DIR/daemon.sock``, same host) or ``--connect HOST:PORT
[--token T]`` (TCP).

Every subcommand is documented with copy-pasteable examples in
``docs/OPERATIONS.md``.  The CLI never unpickles anything — it reads QCKPT
headers (JSON) and validates checksums, so it is safe to point at untrusted
files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.serialize import pack_snapshot, read_header
from repro.errors import ReproError
from repro.service import open_store
from repro.storage import layout


def _locate(store, ident=None, job=None):
    """``(job, checkpoint id or None)`` a verb acts on.

    ``ident`` is a checkpoint id, bare or qualified as ``JOB/ID``.  Without
    a job the store's only job is meant — or, for a bare id in a store of
    several, the only job that has it.
    """
    if ident is not None and "/" in ident:
        job, _, ident = ident.rpartition("/")
    if job is None:
        jobs = store.jobs()
        if ident is not None and len(jobs) > 1:
            jobs = [
                j
                for j in jobs
                if any(r.ckpt_id == ident for r in store.checkpoints(j))
            ]
        if len(jobs) != 1:
            raise ReproError(
                f"store holds jobs {store.jobs()}; pick one with --job "
                "(or qualify the checkpoint id as JOB/ID)"
            )
        job = jobs[0]
    return job, ident


def _human_bytes(n: int) -> str:
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{n} B"


def cmd_ls(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    print(f"{'JOB':<12} {'ID':<14} {'STEP':>8} {'SIZE':>12} DETAIL")
    jobs, count = store.jobs(), 0
    for job in jobs:
        for record in store.checkpoints(job):
            count += 1
            print(
                f"{job:<12} {record.ckpt_id:<14} {record.step:>8} "
                f"{_human_bytes(record.nbytes):>12} {record.detail}"
            )
    print(
        f"\n{count} checkpoint(s), "
        f"{_human_bytes(store.total_physical_bytes())} stored"
    )
    for job in jobs:
        print(f"latest of {job}: {store.latest(job)}")
    return 0


def _plan_header(plan, blocks: bool) -> dict:
    """A restore plan (a delta's older links nested under ``base``) as the
    header-like JSON ``inspect`` prints; block lists only when asked for."""
    header = link = dataclasses.asdict(plan)
    while link is not None and not blocks:
        for tensor in link["tensors"].values():
            tensor["blocks"] = len(tensor["blocks"])
        link = link["base"]
    return header


def cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.target)
    if path.is_file():
        header, _ = read_header(path.read_bytes())
        if not args.tensors:
            header = dict(header)
            header["tensors"] = [
                {
                    "name": t["name"],
                    "dtype": t["dtype"],
                    "shape": t["shape"],
                    "stored_nbytes": t["stored_nbytes"],
                    "transform": t.get("transform", "identity"),
                }
                for t in header.get("tensors", [])
            ]
    else:
        # <store>/<id> or <store>/<job>/<id>: no payload is read, the
        # store's own plan of the restore is the header.
        store_dir, _, ident = args.target.rpartition("/")
        job = None
        if not Path(store_dir or ".").is_dir():
            store_dir, _, job = store_dir.rpartition("/")
        store = open_store(store_dir or ".")
        job, ident = _locate(store, ident, job)
        header = _plan_header(store.plan_restore(job, ident), args.tensors)
    json.dump(header, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    total = bad = 0
    for job in store.jobs():
        for record in store.checkpoints(job):
            ok, detail = store.verify(job, record.ckpt_id)
            status = "OK " if ok else "BAD"
            print(
                f"{status} {job}/{record.ckpt_id}"
                + ("" if ok else f"  {detail}")
            )
            total += 1
            bad += 0 if ok else 1
    print(f"\n{total - bad}/{total} checkpoints valid")
    return 1 if bad else 0


def cmd_gc(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    deleted = store.gc(keep_last_per_job=args.keep_last)
    print(
        f"deleted {deleted['manifests']} checkpoint(s), "
        f"{deleted['chunks']} object(s), {_human_bytes(deleted['bytes'])}"
    )
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    snapshot_a, snapshot_b = (
        store.load_snapshot(*_locate(store, ident))
        for ident in (args.id_a, args.id_b)
    )
    tensors_a = snapshot_a.to_payload()[1]
    tensors_b = snapshot_b.to_payload()[1]
    print(
        f"{args.id_a} (step {snapshot_a.step}) vs "
        f"{args.id_b} (step {snapshot_b.step})"
    )
    names = sorted(set(tensors_a) | set(tensors_b))
    identical = 0
    print(f"{'TENSOR':<28} {'SHAPE':<14} {'STATUS':<10} MAX |DELTA|")
    for name in names:
        a, b = tensors_a.get(name), tensors_b.get(name)
        if a is None or b is None:
            status, delta = ("only-b" if a is None else "only-a"), ""
        elif a.shape != b.shape or a.dtype != b.dtype:
            status, delta = "reshaped", ""
        elif np.array_equal(a, b):
            status, delta = "identical", "0"
            identical += 1
        else:
            status = "changed"
            delta = f"{float(np.max(np.abs(a - b))):.3e}"
        shape = "x".join(str(d) for d in (a if a is not None else b).shape) or "-"
        print(f"{name:<28} {shape:<14} {status:<10} {delta}")
    print(f"\n{identical}/{len(names)} tensors identical")
    return 0


def _print_plan(plan) -> None:
    links = plan.links()
    fetched = plan.fetch_bytes
    total = sum(link.total_stored_bytes for link in links)
    what = (
        "full checkpoint"
        if plan.requested is None
        else "tensors " + ", ".join(plan.requested)
    )
    print(
        f"plan [{plan.kind}]: {what}: {plan.n_blocks} block(s) from "
        f"{sum(len(link.objects) for link in links)} object(s), "
        f"fetching {_human_bytes(fetched)}"
        + (
            f" of {_human_bytes(total)} stored"
            f" ({100.0 * fetched / total:.1f}%)"
            if total
            else ""
        )
    )


def _print_tensors(tensors: dict) -> None:
    for name, array in tensors.items():
        preview = np.array2string(
            array.reshape(-1)[:4], precision=6, separator=", "
        )
        norm = float(np.linalg.norm(array))
        print(
            f"  {name}: {array.dtype} "
            f"{'x'.join(str(d) for d in array.shape) or 'scalar'} "
            f"|x|={norm:.6g} head={preview}"
        )


def cmd_restore(args: argparse.Namespace) -> int:
    """Restore a checkpoint through the unified pipeline (also ``peek`` and
    ``export``, which pre-set ``--tensors`` / ``--out``).

    Works on whatever store the directory holds.  ``--tensors`` /
    ``--warm-start`` restrict the plan to a tensor subset; ``--plan`` prints
    what a restore would fetch instead of restoring.  An explicit id has no
    fallback: damage (a manifest naming a garbage-collected chunk, a
    bit-rotted object) surfaces as one clean error line.  Without one the
    store's own newest-first walk picks the checkpoint — the walk fleet
    recovery uses, so ``qckpt restore`` and reincarnation agree on what
    counts as restorable — and what it skipped is reported.
    """
    from repro.core.restore import WARM_START_TENSORS

    if args.warm_start and args.tensors:
        raise ReproError("--warm-start and --tensors are mutually exclusive")
    names = None
    if args.warm_start:
        names = list(WARM_START_TENSORS)
    elif args.tensors:
        names = list(args.tensors)
    if args.out and names is not None:
        raise ReproError(
            "--out requires a full restore (drop --tensors/--warm-start)"
        )
    store = open_store(args.store)
    job, ckpt_id = _locate(store, args.id, args.job)
    found = None
    if ckpt_id is None and not args.plan:
        if names is None:
            ckpt_id, found, skipped = store.latest_valid(job)
        else:
            ckpt_id, found, skipped = store.latest_valid_partial(job, names)
        for bad_id, reason in skipped:
            print(f"warning: skipped damaged checkpoint {bad_id}: {reason}")
        if found is None:
            raise ReproError(
                f"job {job!r} has no restorable checkpoint"
                + (f"; skipped: {[s[0] for s in skipped]}" if skipped else "")
            )
    plan = store.plan_restore(job, ckpt_id, names)
    _print_plan(plan)
    if args.plan:
        return 0
    if found is None and names is None:
        found = store.load_snapshot(job, ckpt_id)
    elif found is None:
        found = store.load_tensors(job, ckpt_id, names)[1]
    print(f"job {job} {plan.checkpoint_id} at step {plan.step}")
    _print_tensors(found if names is not None else found.to_payload()[1])
    if args.out:
        data = pack_snapshot(found, codec=args.codec)
        Path(args.out).write_bytes(data)
        print(f"wrote {_human_bytes(len(data))} to {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    print(f"{'JOB':<12} {'CKPTS':>6} {'SIZE':>12} {'STEPS':>14}  NEWEST")
    count = referenced = 0
    for job in store.jobs():
        records = store.checkpoints(job)
        steps = [record.step for record in records]
        nbytes = sum(record.nbytes for record in records)
        print(
            f"{job:<12} {len(records):>6} {_human_bytes(nbytes):>12} "
            f"{f'{min(steps)}..{max(steps)}':>14}  {records[-1].detail}"
        )
        count += len(records)
        referenced += nbytes
    print(
        f"\n{count} checkpoint(s) naming {_human_bytes(referenced)}; "
        f"total stored: {_human_bytes(store.total_physical_bytes())}"
    )
    return 0


def _chunk_backend(roots):
    """Storage stack over chunk-store root(s) for scrub/fsck, which read
    chunk objects directly and so refuse a QCKPT store."""
    backend = layout.store_backend(roots)
    if backend.exists(layout.MANIFEST_MARKER):
        raise ReproError(
            f"{roots[0]} is a monolithic checkpoint store; scrub/fsck work "
            "on chunk stores — use 'qckpt verify' there instead"
        )
    return backend


def cmd_scrub(args: argparse.Namespace) -> int:
    from repro.obs.export import ObsDir
    from repro.obs.metrics import MetricsRegistry
    from repro.service.scrub import scrub_store

    backend = _chunk_backend(args.store)
    journal = layout.placement_journal(args.store[0])
    # Scrub refreshes the persisted registry: it folds in the prior
    # snapshot (epoch-bumped) and writes back with this pass's scrub.*
    # series, so counters survive even daemons that never shut down clean.
    obs = ObsDir(layout.obs_dir(args.store[0]))
    registry = MetricsRegistry()
    obs.load_registry(registry)
    report = scrub_store(backend, repair=True, journal=journal, metrics=registry)
    obs.save_registry(registry)
    print(report.summary())
    if report.lease_holder is not None:
        return 1
    # Orphan chunks are gc's business, not damage — only unrepaired
    # corruption (or an unrestorable checkpoint) fails the scrub.
    damaged = report.unrestorable or any(
        not f.repaired and f.kind != "orphan-chunk" for f in report.findings
    )
    return 1 if damaged else 0


def cmd_fsck(args: argparse.Namespace) -> int:
    from repro.service.scrub import scrub_store

    backend = _chunk_backend(args.store)
    if args.index:
        return _fsck_index(args)
    # fsck observes without mutating — no registry write-back either.
    report = scrub_store(backend, repair=False)
    print(report.summary())
    return 0 if report.clean else 1


def _fsck_index(args: argparse.Namespace) -> int:
    """Verify the metadata index agrees with the files it caches.

    The index is caught up first (suffix fold, manifest reconcile — exactly
    what any indexed open does), then every row is compared against a full
    read of the files.  A disagreement that survives catch-up means the
    index code is wrong or the .db belongs to another store; the runbook
    fix is always the same — delete the .db, it rebuilds.
    """
    from repro.service.chunkstore import _parse_manifest_name
    from repro.storage.metadb import manifest_index_row

    root = args.store[0]
    db_path = layout.index_path(root)
    if not db_path.exists():
        print(
            f"index: no {db_path.name} under {root} — nothing to "
            "verify (an indexed open creates and populates it)"
        )
        return 0
    store = open_store(args.store)  # attaches the index: rows reconciled
    db, backend = store.metadb, store.backend
    mismatches = []
    if db.discarded_previous:
        mismatches.append(
            "index file was corrupt or version-mismatched; it has been "
            "discarded and recreated empty"
        )
    manifests = 0
    listed = set()
    for object_name in backend.list("job-"):
        job_id, _ = _parse_manifest_name(object_name)
        if job_id is None:
            continue
        listed.add(object_name)
        try:
            manifest = store._read_manifest(object_name)
        except ReproError:
            continue  # damaged manifests are fsck's (not --index's) business
        manifests += 1
        row = manifest_index_row(object_name, manifest)
        if object_name not in db.manifest_objects():
            mismatches.append(f"manifest {object_name} missing from index")
        elif row is not None and db.manifest_refs(object_name) != dict(row[6]):
            mismatches.append(
                f"chunk refs of {object_name} diverge between index and file"
            )
    for object_name in sorted(db.manifest_objects() - listed):
        mismatches.append(f"index row for deleted manifest {object_name}")
    records = 0
    oracle = layout.placement_journal(root)
    if oracle is not None:
        indexed = layout.placement_journal(root, metadb=db)
        records = len(oracle.records())
        if indexed.pinned_names() != oracle.pinned_names():
            mismatches.append(
                f"indexed pin fold {sorted(indexed.pinned_names())} != "
                f"file-journal fold {sorted(oracle.pinned_names())}"
            )
        for role in sorted(set(oracle._leases) | set(indexed._leases)):
            if indexed.lease_holder(role) != oracle.lease_holder(role):
                mismatches.append(
                    f"lease {role!r}: index holder "
                    f"{indexed.lease_holder(role)!r} != file fold "
                    f"{oracle.lease_holder(role)!r}"
                )
    for line in mismatches:
        print(f"index MISMATCH: {line}")
    verdict = "FAILED" if mismatches else "OK"
    print(
        f"index {verdict}: {manifests} manifest(s), {records} journal "
        f"record(s) verified against {db_path}"
    )
    if mismatches:
        print("recovery: delete the .db file; it rebuilds on the next open")
    return 1 if mismatches else 0


def _hist_quantile(record: dict, q: float) -> float:
    """Quantile estimate from a snapshot histogram record (upper bound)."""
    count = record.get("count", 0)
    buckets = record.get("buckets", [])
    counts = record.get("counts", [])
    if not count or not buckets:
        return 0.0
    target = q * count
    seen = 0
    for index, bucket_count in enumerate(counts):
        seen += bucket_count
        if seen >= target:
            return buckets[min(index, len(buckets) - 1)]
    return buckets[-1]


def _series_value(snapshot: dict, name: str, **labels) -> float:
    """Value of one counter/gauge series in a snapshot (0.0 if absent)."""
    want = {str(k): str(v) for k, v in labels.items()}
    for record in snapshot.get("series", []):
        if record.get("name") == name and record.get("labels", {}) == want:
            return float(record.get("value", 0.0))
    return 0.0


def _job_histograms(snapshot: dict, name: str) -> dict:
    """``job label -> histogram record`` for every ``name`` series."""
    out = {}
    for record in snapshot.get("series", []):
        if record.get("name") == name and record.get("type") == "histogram":
            out[record.get("labels", {}).get("job", "")] = record
    return out


def _persisted_registry(args: argparse.Namespace):
    """``(snapshot, path)`` of the store's persisted ``obs/registry.json``."""
    from repro.obs.export import REGISTRY_FILENAME

    store = getattr(args, "store", None)
    if not store:
        raise ReproError(
            "pick a source: a store directory (reads its persisted "
            "obs/ directory) or --control/--connect (live daemon)"
        )
    registry_path = layout.obs_dir(store) / REGISTRY_FILENAME
    try:
        snapshot = json.loads(registry_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ReproError(
            f"no persisted metrics at {registry_path} — a daemon writes it "
            "at clean shutdown and scrub refreshes it; query a live daemon "
            "with --control/--connect instead"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read {registry_path}: {exc}") from exc
    return snapshot, registry_path


def _metrics_response(args: argparse.Namespace) -> dict:
    """Fetch telemetry: live daemon round trip, or the persisted registry."""
    if args.control is not None or args.connect is not None:
        client = _daemon_client(args)
        response = client.request("metrics")
        if not response.get("ok"):
            raise ReproError(f"metrics failed: {response.get('error')}")
        return response
    snapshot, registry_path = _persisted_registry(args)
    logical = _series_value(snapshot, "store.logical_bytes")
    physical = _series_value(snapshot, "store.physical_bytes")
    return {
        "ok": True,
        "source": str(registry_path),
        "epoch": snapshot.get("epoch"),
        "metrics": snapshot,
        "dedup_ratio": logical / physical if physical else 0.0,
    }


def _engine_line(snapshot: dict) -> str:
    """One-line engine/shard summary from ``engine.*`` / ``shard.*`` series.

    Empty string when the process never selected an engine (e.g. a metrics
    file persisted by a storage-only run).
    """
    tiers = [
        record.get("labels", {}).get("tier", "?")
        for record in snapshot.get("series", [])
        if record.get("name") == "engine.selected" and record.get("value")
    ]
    if not tiers:
        return ""
    text = f"engine: {'/'.join(sorted(set(tiers)))}"
    kept = _series_value(snapshot, "engine.kernel_calls", gil="kept")
    released = _series_value(snapshot, "engine.kernel_calls", gil="released")
    if kept or released:
        text += (
            f"  kernel calls {kept:.0f} lock-kept / "
            f"{released:.0f} lock-released"
        )
    workers = _series_value(snapshot, "shard.workers")
    shifts = _series_value(snapshot, "shard.shifts")
    if workers or shifts:
        text += (
            f"  shard workers {workers:.0f}  "
            f"sharded shifts {shifts:.0f}"
        )
        crashes = _series_value(snapshot, "shard.worker_crashes")
        if crashes:
            text += f"  worker crashes {crashes:.0f}"
    return text


def _encode_line(snapshot: dict) -> str:
    """How new blocks were encoded, from the ``save.encode.*`` series: a
    store of dense amplitude data is all stored blocks (ratio ~1.0)."""
    stored = _series_value(snapshot, "save.encode.stored_blocks")
    deflated = _series_value(snapshot, "save.encode.deflated_blocks")
    if not stored and not deflated:
        return ""
    stored_mib = _series_value(snapshot, "save.encode.stored_bytes") / (1 << 20)
    return (
        f"encode: {stored:.0f} blocks stored as-is ({stored_mib:.2f} MiB), "
        f"{deflated:.0f} deflated"
    )


def _print_metrics(response: dict) -> None:
    snapshot = response.get("metrics", {})
    if "daemon_id" in response:
        print(
            f"daemon {response['daemon_id']}: {response.get('state')} at "
            f"tick {response.get('tick')} (metrics epoch "
            f"{response.get('epoch')})"
        )
    else:
        print(
            f"source: {response.get('source')} (metrics epoch "
            f"{response.get('epoch')})"
        )
    print(f"dedup ratio: {response.get('dedup_ratio', 0.0):.2f}x")
    for line in (_encode_line(snapshot), _engine_line(snapshot)):
        if line:
            print(line)
    fast_hits = _series_value(snapshot, "tier.fast_hits", tier="fast")
    fast_misses = _series_value(snapshot, "tier.fast_misses", tier="fast")
    if fast_hits or fast_misses:
        total = fast_hits + fast_misses
        print(
            f"fast tier: {fast_hits:.0f}/{total:.0f} hits "
            f"({fast_hits / total:.0%})"
        )
    reliability = response.get("reliability")
    if reliability is not None:
        breaker = reliability.get("breaker_state", "-")
        print(
            f"reliability: {reliability.get('retries', 0)} retries, "
            f"{reliability.get('recovered_ops', 0)} recovered, "
            f"{reliability.get('exhausted_ops', 0)} exhausted, "
            f"breaker {breaker}"
        )
    queues = response.get("queues")
    if queues:
        depths = ", ".join(f"{j}={d}" for j, d in sorted(queues.items()))
        print(f"queues: {depths}")
    saves = _job_histograms(snapshot, "save.seconds")
    restores = _job_histograms(snapshot, "restore.seconds")
    if saves or restores:
        print(
            f"\n{'JOB':<12} {'SAVES':>6} {'MEAN(ms)':>9} {'P50(ms)':>8} "
            f"{'P99(ms)':>8} {'RESTORES':>9} {'RST-P99(ms)':>12}"
        )
        for job in sorted(set(saves) | set(restores)):
            save = saves.get(job)
            restore = restores.get(job)
            s_count = save.get("count", 0) if save else 0
            s_mean = (
                save["sum"] / s_count * 1000 if save and s_count else 0.0
            )
            print(
                f"{job or '-':<12} {s_count:>6} {s_mean:>9.2f} "
                f"{_hist_quantile(save or {}, 0.5) * 1000:>8.2f} "
                f"{_hist_quantile(save or {}, 0.99) * 1000:>8.2f} "
                f"{restore.get('count', 0) if restore else 0:>9} "
                f"{_hist_quantile(restore or {}, 0.99) * 1000:>12.2f}"
            )
    counters = [
        record
        for record in snapshot.get("series", [])
        if record.get("type") in ("counter", "gauge")
        and record.get("value")
    ]
    if counters:
        print("\nSERIES")
        for record in counters:
            labels = record.get("labels", {})
            label_text = (
                "{"
                + ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                + "}"
                if labels
                else ""
            )
            print(
                f"  {record['name']}{label_text} = {record['value']:g}"
            )


def cmd_metrics(args: argparse.Namespace) -> int:
    """One-shot telemetry dump from a live daemon or a persisted registry."""
    response = _metrics_response(args)
    if args.prom:
        from repro.obs.export import prometheus_text

        print(prometheus_text(response.get("metrics", {})), end="")
        return 0
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    _print_metrics(response)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live fleet dashboard: poll the daemon's ``metrics`` op and render.

    Rates are deltas between consecutive polls; a poll that crosses a
    metrics-epoch boundary (daemon restarted between polls) skips the
    rate column instead of reporting a bogus negative rate.
    """
    import time as _time

    if args.control is None and args.connect is None:
        raise ReproError(
            "qckpt top needs a live daemon: --control DIR or "
            "--connect HOST:PORT"
        )
    if args.interval <= 0:
        raise ReproError(f"--interval must be > 0, got {args.interval}")
    previous = None
    shown = 0
    try:
        while True:
            response = _metrics_response(args)
            history = _top_history(args)
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            _print_top(response, previous, args.interval, history)
            previous = response
            shown += 1
            if args.iterations and shown >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _top_history(args: argparse.Namespace):
    """Sampled ``save.seconds`` history from the daemon's ``series`` op.

    ``None`` when the daemon predates the op or runs without a timeseries
    store — top silently falls back to two-frame deltas.
    """
    try:
        client = _daemon_client(args)
        response = client.request(
            "series", name="save.seconds", window=120.0, limit=32
        )
    except ReproError:
        return None
    return response if response.get("ok") else None


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(points, width: int = 16) -> str:
    """Per-gap delta sparkline over ``series`` op points.

    Points are ``[ts, epoch, cumulative]`` triples, oldest first.  A gap
    that crosses a metrics-epoch boundary (daemon restarted between
    samples) renders as ``·`` instead of a bogus negative bar.
    """
    deltas = []
    for prev, cur in zip(points, points[1:]):
        if cur[1] != prev[1] or cur[2] < prev[2]:
            deltas.append(None)
        else:
            deltas.append(cur[2] - prev[2])
    deltas = deltas[-width:]
    if not deltas:
        return ""
    peak = max((d for d in deltas if d is not None), default=0.0)
    out = []
    for delta in deltas:
        if delta is None:
            out.append("·")
        elif not peak:
            out.append(_SPARK_CHARS[0])
        else:
            index = int(delta / peak * (len(_SPARK_CHARS) - 1) + 0.5)
            out.append(_SPARK_CHARS[min(index, len(_SPARK_CHARS) - 1)])
    return "".join(out)


def _print_top(response: dict, previous, interval: float, history=None) -> None:
    snapshot = response.get("metrics", {})
    prev_snapshot = (previous or {}).get("metrics", {})
    same_epoch = (
        previous is not None
        and previous.get("epoch") == response.get("epoch")
    )
    print(
        f"daemon {response.get('daemon_id')}: {response.get('state')} "
        f"tick {response.get('tick')}  active {response.get('active_jobs')}"
        + ("" if same_epoch or previous is None else "  (restarted)")
    )
    fast_hits = _series_value(snapshot, "tier.fast_hits", tier="fast")
    fast_misses = _series_value(snapshot, "tier.fast_misses", tier="fast")
    hit_rate = (
        f"{fast_hits / (fast_hits + fast_misses):.0%}"
        if fast_hits + fast_misses
        else "-"
    )
    reliability = response.get("reliability") or {}
    print(
        f"dedup {response.get('dedup_ratio', 0.0):.2f}x  "
        f"fast-tier hits {hit_rate}  "
        f"retries {reliability.get('retries', '-')}  "
        f"breaker {reliability.get('breaker_state', '-')}"
    )
    engine_line = _engine_line(snapshot)
    if engine_line:
        print(engine_line)
    queues = response.get("queues") or {}
    saves = _job_histograms(snapshot, "save.seconds")
    prev_saves = _job_histograms(prev_snapshot, "save.seconds")
    restores = _job_histograms(snapshot, "restore.seconds")
    hist_map = {}
    for entry in (history or {}).get("series", []):
        hist_map[entry.get("labels", {}).get("job", "")] = entry
    jobs = sorted(set(saves) | set(restores) | set(queues))
    if not jobs:
        print("(no per-job series yet)")
        return
    print(
        f"{'JOB':<12} {'SAVES':>6} {'SAVE/S':>7} {'P99(ms)':>8} "
        f"{'RESTORES':>9} {'QUEUE':>6}  TREND"
    )
    for job in jobs:
        save = saves.get(job, {})
        entry = hist_map.get(job)
        rate = "-"
        if entry is not None and entry.get("rate") is not None:
            # windowed, epoch-aware rate from the daemon's sampled history
            rate = f"{entry['rate']:.2f}"
        elif same_epoch:
            prev = prev_saves.get(job, {})
            delta = save.get("count", 0) - prev.get("count", 0)
            rate = f"{delta / interval:.2f}"
        trend = _sparkline(entry.get("points", [])) if entry else ""
        restore = restores.get(job, {})
        print(
            f"{job or '-':<12} {save.get('count', 0):>6} {rate:>7} "
            f"{_hist_quantile(save, 0.99) * 1000:>8.2f} "
            f"{restore.get('count', 0):>9} {queues.get(job, 0):>6}  {trend}"
        )


def cmd_health(args: argparse.Namespace) -> int:
    """Evaluate health rules against a daemon (live) or a store (offline).

    The exit code encodes the verdict — 0 ok, 1 warn, 2 critical — so
    scripts and probes can alert without parsing the output.
    """
    if args.control is not None or args.connect is not None:
        client = _daemon_client(args)
        response = client.request("health")
        if not response.get("ok"):
            raise ReproError(f"health failed: {response.get('error')}")
        report = response.get("health") or {}
        source = (
            f"daemon {response.get('daemon_id')}, {response.get('state')} "
            f"at tick {response.get('tick')}"
        )
    else:
        report, source = _offline_health(args)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_health(report, source)
    return {"ok": 0, "warn": 1, "critical": 2}.get(report.get("verdict"), 2)


def _offline_health(args: argparse.Namespace):
    """(report dict, source text) from a store's persisted observability.

    Staleness rules are skipped offline: the registry file is *expected*
    to be old, that is not an incident.
    """
    from repro.obs.health import HealthEngine
    from repro.obs.timeseries import DB_FILENAME, TimeSeriesDB

    snapshot, registry_path = _persisted_registry(args)
    timeseries = None
    db_path = registry_path.with_name(DB_FILENAME)
    if db_path.exists():
        timeseries = TimeSeriesDB(db_path)
    try:
        report = HealthEngine().evaluate(
            snapshot, timeseries, include_staleness=False
        )
    finally:
        if timeseries is not None:
            timeseries.close()
    return report.to_dict(), str(registry_path)


def _print_health(report: dict, source: str) -> None:
    verdict = str(report.get("verdict", "unknown"))
    findings = report.get("findings", [])
    firing = [f for f in findings if f.get("firing")]
    print(
        f"health {verdict.upper()}  ({len(findings)} rule(s) checked; "
        f"{source})"
    )
    for finding in firing:
        print(
            f"  [{finding.get('severity')}] {finding.get('rule')}: "
            f"{finding.get('reason')}"
        )
    if not firing:
        print("  all rules passing")


def cmd_profile(args: argparse.Namespace) -> int:
    """Span profiler over ``<store>/obs/trace.jsonl``: per-op aggregates,
    per-trace trees, critical paths, folded stacks."""
    from repro.obs import profile as obs_profile
    from repro.obs.export import TRACE_FILENAME

    trace_path = layout.obs_dir(args.store) / TRACE_FILENAME
    trees = obs_profile.load_trees(trace_path)
    if not trees:
        raise ReproError(
            f"no spans in {trace_path} — run a traced workload (daemon, "
            "fleet, save/restore) against this store first"
        )
    if args.folded:
        for line in obs_profile.folded_stacks(trees):
            print(line)
        return 0
    if args.trace:
        if args.trace not in trees:
            raise ReproError(
                f"unknown trace {args.trace!r} ({len(trees)} trace(s) in "
                f"{trace_path})"
            )
        selected = args.trace
    elif args.last_save or args.last_restore:
        wanted = "store.save" if args.last_save else "store.restore"
        selected = obs_profile.newest_trace(trees, containing=wanted)
        if selected is None:
            raise ReproError(f"no trace containing {wanted} in {trace_path}")
    else:
        selected = None
    if args.json:
        print(
            json.dumps(
                _profile_json(trees, selected, obs_profile),
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if selected is not None:
        _print_profile_trace(selected, trees[selected], obs_profile)
        return 0
    _print_profile_overview(trees, trace_path, obs_profile)
    return 0


def _profile_json(trees, selected, obs_profile) -> dict:
    def node_dict(node):
        return {
            "name": node.name,
            "duration_ms": round(node.duration_ms, 3),
            "self_ms": round(node.self_ms, 3),
            "status": node.status,
            "synthetic": node.synthetic,
            "bytes": node.bytes,
            "encode": node.attrs.get("encode"),
            "children": [node_dict(child) for child in node.children],
        }

    out = {
        "traces": len(trees),
        "aggregate": [
            {
                "name": agg.name,
                "count": agg.count,
                "total_ms": round(agg.total_ms, 3),
                "self_ms": round(agg.self_ms, 3),
                "mean_ms": round(agg.mean_ms, 3),
                "bytes": agg.bytes,
                "errors": agg.errors,
                "throughput_mb_s": (
                    None
                    if agg.throughput_mb_s is None
                    else round(agg.throughput_mb_s, 3)
                ),
            }
            for agg in obs_profile.aggregate(trees)
        ],
    }
    if selected is not None:
        roots = trees[selected]
        out["trace"] = selected
        out["spans"] = [node_dict(root) for root in roots]
        heaviest = max(roots, key=lambda root: root.duration_ms)
        out["critical_path"] = [
            {"name": node.name, "duration_ms": round(node.duration_ms, 3)}
            for node in obs_profile.critical_path(heaviest)
        ]
    return out


def _print_profile_node(node, root_ms: float, depth: int = 0) -> None:
    pct = node.duration_ms / root_ms * 100 if root_ms else 0.0
    label = ("  " * depth) + node.name
    extra = ""
    if node.bytes:
        extra = f"  {node.bytes / (1 << 20):.2f} MiB"
    encode = node.attrs.get("encode")
    if isinstance(encode, dict):
        extra += (
            f"  new blocks: {encode.get('stored_blocks', 0)} stored, "
            f"{encode.get('deflated_blocks', 0)} deflated"
        )
    if node.status != "ok":
        extra += f"  [{node.status}]"
    print(
        f"  {label:<34} {node.duration_ms:>9.2f}ms "
        f"self {node.self_ms:>8.2f}ms {pct:>5.1f}%{extra}"
    )
    for child in node.children:
        _print_profile_node(child, root_ms, depth + 1)


def _print_critical_path(root, obs_profile) -> None:
    path = obs_profile.critical_path(root)
    chain = " -> ".join(
        f"{node.name} ({node.duration_ms:.2f}ms)" for node in path
    )
    print(f"critical path: {chain}")
    target = path[-1]
    if target.synthetic and len(path) > 1:
        target = path[-2]
    coverage = obs_profile.stage_coverage(target)
    if coverage is not None and target.children:
        print(
            f"stage coverage: {coverage:.1%} of {target.name} wall time "
            "attributed to named child stages"
        )


def _print_profile_trace(trace_id: str, roots, obs_profile) -> None:
    print(f"trace {trace_id} ({len(roots)} root span(s))")
    heaviest = max(roots, key=lambda root: root.duration_ms)
    for root in roots:
        _print_profile_node(root, heaviest.duration_ms or 1.0)
    print()
    _print_critical_path(heaviest, obs_profile)


def _print_profile_overview(trees, trace_path, obs_profile) -> None:
    aggregates = obs_profile.aggregate(trees)
    print(f"{len(trees)} trace(s) in {trace_path}")
    print(
        f"\n{'OP':<26} {'COUNT':>6} {'TOTAL(ms)':>10} {'SELF(ms)':>9} "
        f"{'MEAN(ms)':>9} {'MB/s':>7} {'ERR':>4}"
    )
    for agg in aggregates:
        mbs = "-" if agg.throughput_mb_s is None else f"{agg.throughput_mb_s:.1f}"
        print(
            f"{agg.name:<26} {agg.count:>6} {agg.total_ms:>10.2f} "
            f"{agg.self_ms:>9.2f} {agg.mean_ms:>9.2f} {mbs:>7} "
            f"{agg.errors:>4}"
        )
    for wanted in ("store.save", "store.restore"):
        trace_id = obs_profile.newest_trace(trees, containing=wanted)
        if trace_id is None:
            continue
        span = obs_profile.find_span(trees[trace_id], wanted)
        if span is None:
            continue
        print(f"\nnewest {wanted} (trace {trace_id}):")
        _print_critical_path(span, obs_profile)


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run an N-job sweep through the checkpoint service and report."""
    from repro.faults.injector import Brownout, PreemptionStorm
    from repro.service import (
        FleetHarness,
        FleetJobSpec,
        ThrottledBackend,
        WriterPool,
    )
    from repro.ml.catalogue import BUILTIN_WORKLOADS

    classifier = BUILTIN_WORKLOADS["classifier"]
    params = {
        "qubits": args.qubits,
        "layers": args.layers,
        "samples": args.samples,
        "seed": args.seed,
    }

    # No --store: the same shards, in memory.
    store = open_store(
        args.store,
        shards=args.shards,
        wrap=ThrottledBackend,
        codec=args.codec,
        block_bytes=args.block_bytes,
    )
    pool = WriterPool(workers=args.workers)
    specs = [
        FleetJobSpec(
            job_id=f"job{i:02d}",
            trainer_factory=classifier(dict(params, lr=0.01 * (1 + i))),
            target_steps=args.steps,
            checkpoint_every=args.every,
            cadence_offset=i if args.staggered else 0,
            backpressure=args.backpressure,
        )
        for i in range(args.jobs)
    ]
    events = []
    if args.scenario == "storm":
        events.append(PreemptionStorm(at_tick=args.storm_tick))
    elif args.scenario == "brownout":
        events.append(
            Brownout(
                start_tick=args.storm_tick,
                end_tick=args.storm_tick + 2,
                write_delay_seconds=args.brownout_delay,
            )
        )
    harness = FleetHarness(
        store, pool, specs, events=events, throttle=store.backend
    )
    try:
        result = harness.run()
    finally:
        pool.close()

    print(
        f"{'JOB':<8} {'FINAL':>6} {'EXEC':>6} {'LOST':>6} {'RESTORES':>9} "
        f"{'DROPPED':>8} {'DEGRADED':>9}"
    )
    for job_id in sorted(result.jobs):
        job = result.jobs[job_id]
        print(
            f"{job_id:<8} {job.final_step:>6} {job.steps_executed:>6} "
            f"{job.lost_steps:>6} {job.restores:>9} {job.dropped_saves:>8} "
            f"{job.degraded_saves:>9}"
        )
    print(
        f"\nfleet: {result.makespan_ticks} ticks, "
        f"{result.wall_seconds:.2f}s wall, "
        f"recovered-work ratio {result.recovered_work_ratio:.3f}"
    )
    print(
        f"store: {_human_bytes(result.physical_bytes)} written for "
        f"{_human_bytes(result.logical_bytes)} logical "
        f"(dedup {result.dedup_ratio:.2f}x), "
        f"{_human_bytes(result.manifest_bytes)} manifests"
    )
    if args.scenario != "sweep":
        print(f"events: {', '.join(result.events_fired) or '(none fired)'}")
    return 0


def cmd_daemon_start(args: argparse.Namespace) -> int:
    """Build the storage stack and run the fleet daemon loop (foreground)."""
    from repro.obs.metrics import MetricsRegistry
    from repro.service import DaemonConfig, FleetDaemon, WriterPool

    import uuid

    # ONE registry threaded through the whole stack: backend tiers, chunk
    # store, writer pool, and daemon all count into the same labeled
    # series, which is what `qckpt metrics`/`qckpt top` read back.
    registry = MetricsRegistry()
    control = args.control or str(layout.control_dir(args.store))
    # One identity for heartbeats AND journal records: without --daemon-id
    # it must be unique per process, never derived from paths — two daemons
    # sharing a store would otherwise collide journal record names and both
    # "hold" the rebalance lease.
    daemon_id = args.daemon_id or f"daemon-{uuid.uuid4().hex[:8]}"
    # Shards, optional fast tier + placement journal (--fast-bytes), retry
    # layer (--retries) and metadata index (--index or QCKPT_METADB=1; one
    # SQLite file at the root shared by the journal fold and manifest
    # discovery — files stay the truth).
    store = open_store(
        args.store,
        shards=args.shards,
        fast_bytes=args.fast_bytes,
        retries=args.retries,
        index=True if args.index else None,
        owner=daemon_id,
        metrics=registry,
        codec=args.codec,
        block_bytes=args.block_bytes,
    )
    pool = WriterPool(workers=args.workers, metrics=registry)
    config = DaemonConfig(
        tick_seconds=args.tick_seconds,
        rebalance_every_ticks=args.rebalance_every,
        restart_delay_ticks=args.restart_delay,
        max_ticks=args.max_ticks if args.max_ticks > 0 else None,
        compact_journal_records=args.compact_journal_records,
        obs_sample_seconds=args.obs_sample_seconds,
    )
    daemon = FleetDaemon(
        store,
        pool,
        control,
        config=config,
        daemon_id=daemon_id,
        listen=args.listen,
        auth_token=args.token,
        metrics=registry,
        obs_dir=layout.obs_dir(args.store),
    )
    print(
        f"daemon {daemon.daemon_id} serving {args.store} "
        f"(control plane: {control}"
        + (f", listening on {args.listen}" if args.listen else "")
        + f"); drain with: qckpt daemon drain --control {control}"
    )
    try:
        daemon.serve()
    finally:
        pool.close()
    print(
        f"daemon {daemon.daemon_id} stopped after {daemon.tick} tick(s), "
        f"{daemon.requests_served} request(s) served"
    )
    return 0


def _daemon_client(args: argparse.Namespace):
    """Build a client from --control (Unix socket) or --connect (TCP)."""
    from repro.service import DaemonClient

    if args.control is None and args.connect is None:
        raise ReproError(
            "pick a control plane: --control DIR (same host) "
            "or --connect HOST:PORT (TCP)"
        )
    return DaemonClient(
        args.control,
        timeout=args.timeout,
        connect=args.connect,
        token=args.token,
    )


def cmd_daemon_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running daemon over its control plane.

    The wire dict carries the submission keys and workload parameters the
    flags gave (a parameter not given takes its workload's default)."""
    from repro.ml.catalogue import parameters
    from repro.service.scheduler import WIRE_KEYS

    given = vars(args)
    wire = {key: given[key] for key in WIRE_KEYS if key in given}
    wire["params"] = {key: given[key] for key in parameters() if key in given}
    response = _daemon_client(args).submit(wire)
    if not response.get("ok"):
        raise ReproError(f"submit refused: {response.get('error')}")
    resumed = response.get("resumed_from_step", 0)
    print(
        f"submitted {response.get('job')} ({args.workload})"
        + (f", resumed from step {resumed}" if resumed else "")
    )
    return 0


def cmd_daemon_status(args: argparse.Namespace) -> int:
    """Print daemon state and a per-job table (or one job with --job)."""
    client = _daemon_client(args)
    if not client.is_alive():
        meta = client.daemon_meta()
        state = (meta or {}).get("state", "absent")
        print(f"daemon: not running (control meta: {state})")
        return 1
    response = client.status(args.job)
    if not response.get("ok"):
        raise ReproError(f"status failed: {response.get('error')}")
    print(
        f"daemon: {response['state']} at tick {response['tick']}"
        + (
            f" ({response.get('requests_served')} requests served)"
            if "requests_served" in response
            else ""
        )
    )
    jobs = response.get("jobs", {})
    if not jobs:
        print("(no jobs submitted)")
        return 0
    print(
        f"{'JOB':<12} {'STATE':<9} {'STEP':>6} {'TARGET':>7} {'PRI':>4} "
        f"{'SHARE':>6} {'PREEMPT':>8} {'RESTORES':>9} {'LOST':>5}"
    )
    for job_id in sorted(jobs):
        job = jobs[job_id]
        step = job["step"] if job["step"] is not None else job["final_step"]
        share = job.get("sched_share", 0.0)
        print(
            f"{job_id:<12} {job['state']:<9} {step:>6} "
            f"{job['target_steps']:>7} {job.get('priority', 1):>4} "
            f"{share:>6.2f} {job['preemptions']:>8} "
            f"{job['restores']:>9} {job['lost_steps']:>5}"
        )
    return 0


def cmd_daemon_preempt(args: argparse.Namespace) -> int:
    """Kill one job's incarnation (or every running job's without --job)."""
    client = _daemon_client(args)
    response = client.preempt(
        args.job, restart_delay_ticks=args.restart_delay
    )
    if not response.get("ok"):
        raise ReproError(f"preempt refused: {response.get('error')}")
    preempted = response.get("preempted", [])
    print(
        f"preempted {len(preempted)} job(s): {', '.join(preempted) or '-'} "
        f"(restart delay {response.get('restart_delay_ticks')} tick(s))"
    )
    return 0


def cmd_daemon_drain(args: argparse.Namespace) -> int:
    """Stop accepting jobs, let running jobs finish, then stop the daemon."""
    client = _daemon_client(args)
    response = client.drain(wait=not args.no_wait)
    print(f"daemon: {response.get('state', 'draining')}")
    return 0


def cmd_daemon_stop(args: argparse.Namespace) -> int:
    """Stop the daemon now: queued saves flush, running jobs halt."""
    client = _daemon_client(args)
    response = client.stop()
    if not response.get("ok"):
        raise ReproError(f"stop refused: {response.get('error')}")
    print(f"daemon: stopping (was {response.get('state', '?')})")
    return 0


def _add_daemon_client_flags(parser, timeout_default: float = 30.0) -> None:
    """The shared way every client verb reaches its daemon."""
    parser.add_argument(
        "--control",
        default=None,
        help="the daemon's control directory (its Unix socket "
        "daemon.sock; same host, no token)",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="the daemon's TCP address (needs a daemon started "
        "with --listen)",
    )
    parser.add_argument(
        "--token",
        default=None,
        help="shared-secret auth token for --connect (--control "
        "needs none)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=timeout_default,
        help="seconds to wait for the daemon's answer",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.ml.catalogue import BUILTIN_WORKLOADS, parameters
    from repro.service.scheduler import BACKPRESSURE_POLICIES, RESTORE_MODES

    parser = argparse.ArgumentParser(
        prog="qckpt", description="Inspect and validate QCkpt checkpoint stores."
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="structured debug logging to stderr (same as QCKPT_LOG=debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ls = sub.add_parser("ls", help="list checkpoints in a store")
    p_ls.add_argument("store", help="store directory")
    p_ls.set_defaults(func=cmd_ls)

    p_inspect = sub.add_parser("inspect", help="dump a checkpoint header")
    p_inspect.add_argument(
        "target", help="a .qckpt file, <store>/<ckpt-id> or <store>/<job>/<ckpt-id>"
    )
    p_inspect.add_argument(
        "--tensors", action="store_true", help="include full tensor directory"
    )
    p_inspect.set_defaults(func=cmd_inspect)

    p_verify = sub.add_parser("verify", help="validate all checkpoints")
    p_verify.add_argument("store", help="store directory")
    p_verify.set_defaults(func=cmd_verify)

    p_gc = sub.add_parser("gc", help="apply a retention policy")
    p_gc.add_argument("store", help="store directory")
    p_gc.add_argument(
        "--keep-last",
        type=int,
        default=None,
        help="retain each job's N newest checkpoints",
    )
    p_gc.set_defaults(func=cmd_gc)

    p_diff = sub.add_parser("diff", help="compare two checkpoints")
    p_diff.add_argument("store", help="store directory")
    p_diff.add_argument("id_a", help="first checkpoint id (bare or JOB/ID)")
    p_diff.add_argument("id_b", help="second checkpoint id")
    p_diff.set_defaults(func=cmd_diff)

    p_export = sub.add_parser(
        "export", help="materialize a checkpoint as a standalone .qckpt file"
    )
    p_export.add_argument("store", help="store directory")
    p_export.add_argument("id", help="checkpoint id (delta chains are resolved)")
    p_export.add_argument("out", help="output file path")
    p_export.add_argument(
        "--codec", default="zlib-6", help="byte codec for the exported file"
    )
    # export is `restore --id ID --out OUT`; peek is `restore --id ID --tensors ...`
    p_export.set_defaults(
        func=cmd_restore, job=None, tensors=None, warm_start=False, plan=False
    )

    p_peek = sub.add_parser(
        "peek", help="read named tensors (a partial restore)"
    )
    p_peek.add_argument("store", help="store directory")
    p_peek.add_argument("id", help="checkpoint id")
    p_peek.add_argument(
        "tensors", nargs="+", help="tensor names (e.g. params loss_history)"
    )
    p_peek.set_defaults(
        func=cmd_restore, job=None, warm_start=False, plan=False, out=None
    )

    p_restore = sub.add_parser(
        "restore",
        help="restore a checkpoint through the unified pipeline",
    )
    p_restore.add_argument("store", help="store directory")
    p_restore.add_argument(
        "--id",
        default=None,
        help="checkpoint id, bare or JOB/ID (default: newest valid)",
    )
    p_restore.add_argument(
        "--job",
        default=None,
        help="job id (default: the store's only job)",
    )
    p_restore.add_argument(
        "--tensors",
        nargs="+",
        default=None,
        help="restore only these tensors (fetches the objects they live in)",
    )
    p_restore.add_argument(
        "--warm-start",
        action="store_true",
        help="restore the parameters-only warm-start subset",
    )
    p_restore.add_argument(
        "--plan",
        action="store_true",
        help="print the fetch plan instead of restoring",
    )
    p_restore.add_argument(
        "--out", default=None, help="write a standalone .qckpt file here"
    )
    p_restore.add_argument(
        "--codec", default="zlib-6", help="byte codec for --out"
    )
    p_restore.set_defaults(func=cmd_restore)

    p_scrub = sub.add_parser(
        "scrub",
        help="verify chunk content addresses; quarantine and repair damage",
    )
    p_scrub.add_argument(
        "store",
        nargs="+",
        help="chunk-store directory; pass several replicas of one store to "
        "repair each from the others",
    )
    p_scrub.set_defaults(func=cmd_scrub)

    p_fsck = sub.add_parser(
        "fsck", help="read-only store health check (scrub without repair)"
    )
    p_fsck.add_argument(
        "store", nargs="+", help="chunk-store directory (or its replicas)"
    )
    p_fsck.add_argument(
        "--index",
        action="store_true",
        help="verify the metadata index (.qckpt-meta.db) agrees with the "
        "journal/manifest files instead of checking content copies",
    )
    p_fsck.set_defaults(func=cmd_fsck)

    p_stats = sub.add_parser("stats", help="aggregate store statistics")
    p_stats.add_argument("store", help="store directory")
    p_stats.set_defaults(func=cmd_stats)

    p_metrics = sub.add_parser(
        "metrics",
        help="one-shot telemetry: live from a daemon, or the persisted "
        "<store>/obs/registry.json",
    )
    p_metrics.add_argument(
        "store",
        nargs="?",
        default=None,
        help="store directory (reads its persisted obs/registry.json; "
        "omit when querying a live daemon)",
    )
    _add_daemon_client_flags(p_metrics)
    p_metrics.add_argument(
        "--json",
        action="store_true",
        help="print the full response as JSON instead of the summary",
    )
    p_metrics.add_argument(
        "--prom",
        action="store_true",
        help="print Prometheus text exposition instead of the summary "
        "(scrape-ready)",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_health = sub.add_parser(
        "health",
        help="health verdict from the rule engine: ok/warn/critical "
        "(exit code 0/1/2)",
    )
    p_health.add_argument(
        "store",
        nargs="?",
        default=None,
        help="store directory (offline: evaluates the persisted "
        "obs/registry.json + obs/timeseries.db; staleness rules skipped)",
    )
    _add_daemon_client_flags(p_health)
    p_health.add_argument(
        "--json",
        action="store_true",
        help="print the full report (every finding) as JSON",
    )
    p_health.set_defaults(func=cmd_health)

    p_profile = sub.add_parser(
        "profile",
        help="span profiler over <store>/obs/trace.jsonl: aggregates, "
        "critical paths, flamegraph export",
    )
    p_profile.add_argument("store", help="store directory (reads its obs/)")
    p_profile.add_argument(
        "--trace",
        default=None,
        metavar="ID",
        help="print one trace's span tree and critical path",
    )
    p_profile.add_argument(
        "--last-save",
        action="store_true",
        help="profile the newest trace containing a store.save span",
    )
    p_profile.add_argument(
        "--last-restore",
        action="store_true",
        help="profile the newest trace containing a store.restore span",
    )
    p_profile.add_argument(
        "--folded",
        action="store_true",
        help="emit folded stacks (name;name <self-us>) for flamegraph tools",
    )
    p_profile.add_argument(
        "--json",
        action="store_true",
        help="print aggregates (and the selected trace) as JSON",
    )
    p_profile.set_defaults(func=cmd_profile)

    p_top = sub.add_parser(
        "top",
        help="live fleet dashboard over a running daemon (Ctrl-C to exit)",
    )
    _add_daemon_client_flags(p_top)
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (rates are per-interval deltas)",
    )
    p_top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="exit after N refreshes (0 = run until Ctrl-C)",
    )
    p_top.add_argument(
        "--no-clear",
        action="store_true",
        help="append refreshes instead of clearing the screen (for logs)",
    )
    p_top.set_defaults(func=cmd_top)

    p_fleet = sub.add_parser(
        "fleet", help="run a multi-job checkpoint-service scenario"
    )
    p_fleet.add_argument("--jobs", type=int, default=4, help="number of jobs")
    p_fleet.add_argument(
        "--steps", type=int, default=4, help="training steps per job"
    )
    p_fleet.add_argument("--every", type=int, default=1, help="checkpoint cadence")
    p_fleet.add_argument("--workers", type=int, default=2, help="writer pool size")
    p_fleet.add_argument("--shards", type=int, default=2, help="storage shards")
    p_fleet.add_argument(
        "--scenario",
        choices=["sweep", "storm", "brownout"],
        default="storm",
        help="fault scenario to inject (sweep = none)",
    )
    p_fleet.add_argument(
        "--storm-tick", type=int, default=2, help="event tick (storm/brownout)"
    )
    p_fleet.add_argument(
        "--brownout-delay",
        type=float,
        default=0.02,
        help="per-write delay during a brownout (seconds)",
    )
    p_fleet.add_argument(
        "--backpressure",
        choices=BACKPRESSURE_POLICIES,
        default="block",
        help="per-job channel policy when its save queue is full",
    )
    p_fleet.add_argument(
        "--staggered",
        action="store_true",
        help="offset each job's start tick so checkpoints desynchronize",
    )
    p_fleet.add_argument(
        "--store",
        default=None,
        help="persist to this directory (default: in-memory)",
    )
    p_fleet.add_argument(
        "--block-bytes",
        type=int,
        default=1 << 12,
        help="chunk-store block size in bytes",
    )
    p_fleet.add_argument("--codec", default="zlib-6", help="chunk byte codec")
    p_fleet.add_argument(
        "--qubits", type=int, default=4, help="circuit width per job"
    )
    p_fleet.add_argument(
        "--layers", type=int, default=2, help="ansatz layers per job"
    )
    p_fleet.add_argument(
        "--samples", type=int, default=128, help="training set size"
    )
    p_fleet.add_argument("--seed", type=int, default=11, help="RNG seed")
    p_fleet.set_defaults(func=cmd_fleet)

    p_daemon = sub.add_parser(
        "daemon",
        help="run and control the long-running fleet daemon",
    )
    dsub = p_daemon.add_subparsers(dest="daemon_command", required=True)

    d_start = dsub.add_parser(
        "start",
        help="run the daemon loop in the foreground (Ctrl-C or drain to stop)",
    )
    d_start.add_argument("store", help="store directory (shards live inside)")
    d_start.add_argument(
        "--control",
        default=None,
        help="control-plane directory: daemon.json and the Unix socket "
        "daemon.sock (default: <store>/control)",
    )
    d_start.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="additionally serve the control plane over TCP on this "
        "address (port 0 picks a free port, printed in daemon.json)",
    )
    d_start.add_argument(
        "--token",
        default=None,
        help="shared-secret auth token required from --connect clients "
        "(guards only the --listen socket)",
    )
    d_start.add_argument(
        "--workers", type=int, default=2, help="writer pool size"
    )
    d_start.add_argument(
        "--shards", type=int, default=2, help="storage shards under the store"
    )
    d_start.add_argument(
        "--block-bytes",
        type=int,
        default=1 << 12,
        help="chunk-store block size in bytes",
    )
    d_start.add_argument("--codec", default="zlib-6", help="chunk byte codec")
    d_start.add_argument(
        "--fast-bytes",
        type=int,
        default=0,
        help="fast-tier capacity in bytes; > 0 enables tiering with a "
        "durable placement journal at <store>/placement",
    )
    d_start.add_argument(
        "--tick-seconds",
        type=float,
        default=0.02,
        help="idle sleep between scheduler passes",
    )
    d_start.add_argument(
        "--rebalance-every",
        type=int,
        default=0,
        help="run a lease-gated tier rebalance every N ticks (0 = never)",
    )
    d_start.add_argument(
        "--compact-journal-records",
        type=int,
        default=512,
        help="compact the placement journal when it exceeds N records "
        "(0 = only at drain)",
    )
    d_start.add_argument(
        "--restart-delay",
        type=int,
        default=1,
        help="default reincarnation delay (ticks) after a preemption",
    )
    d_start.add_argument(
        "--max-ticks",
        type=int,
        default=0,
        help="stop after N scheduler ticks (0 = run until drained)",
    )
    d_start.add_argument(
        "--daemon-id",
        default=None,
        help="stable identity for heartbeats and placement-journal leases",
    )
    d_start.add_argument(
        "--index",
        action="store_true",
        help="keep a SQLite metadata index (.qckpt-meta.db) at the store "
        "root so discovery, journal folds and job status are point "
        "queries (also enabled by QCKPT_METADB=1; files stay the truth)",
    )
    d_start.add_argument(
        "--retries",
        type=int,
        default=0,
        help="wrap the storage stack in a retry/circuit-breaker layer "
        "allowing N retries per op (0 = no reliability wrapper)",
    )
    d_start.add_argument(
        "--obs-sample-seconds",
        type=float,
        default=None,
        help="sample the registry into <store>/obs/timeseries.db and "
        "evaluate health rules every N seconds (default: the heartbeat "
        "cadence; 0 disables history and in-loop health)",
    )
    d_start.set_defaults(func=cmd_daemon_start)

    d_submit = dsub.add_parser(
        "submit", help="submit one job to a running daemon"
    )
    _add_daemon_client_flags(d_submit)
    # Flags with a submission key as dest: cmd_daemon_submit sends every
    # one; a key without a flag (save_on_start) takes the spec's default.
    d_submit.add_argument(
        "--job", dest="job_id", required=True, help="job id (unique)"
    )
    d_submit.add_argument(
        "--workload",
        default="classifier",
        help="catalogue recipe the job is built from: "
        + ", ".join(sorted(BUILTIN_WORKLOADS)),
    )
    d_submit.add_argument(
        "--steps",
        dest="target_steps",
        metavar="N",
        type=int,
        default=4,
        help="training steps to run",
    )
    d_submit.add_argument(
        "--every",
        dest="checkpoint_every",
        metavar="N",
        type=int,
        default=1,
        help="checkpoint cadence (steps)",
    )
    d_submit.add_argument(
        "--priority",
        type=int,
        default=1,
        help="scheduling weight: a priority-2 job gets ~2x the training "
        "ticks of a priority-1 job",
    )
    d_submit.add_argument(
        "--shard-workers",
        type=int,
        default=0,
        help="fan this job's gradient batches out across N shard worker "
        "processes (0 = in-process; results are bitwise identical)",
    )
    d_submit.add_argument(
        "--max-pending",
        type=int,
        default=2,
        help="bounded save-queue depth before backpressure",
    )
    d_submit.add_argument(
        "--backpressure",
        choices=BACKPRESSURE_POLICIES,
        default="block",
        help="policy when the job's save queue is full",
    )
    d_submit.add_argument(
        "--restore-mode",
        choices=RESTORE_MODES,
        default="exact",
        help="how a preempted incarnation reincarnates",
    )
    # One flag per catalogue parameter, sent only when given.
    for key, defaults in parameters().items():
        d_submit.add_argument(
            "--" + key.replace("_", "-"),
            type=type(next(iter(defaults.values()))),
            default=argparse.SUPPRESS,
            help="workload parameter (default: "
            + ", ".join(f"{name} {value}" for name, value in defaults.items())
            + ")",
        )
    d_submit.set_defaults(func=cmd_daemon_submit)

    d_status = dsub.add_parser(
        "status", help="query daemon liveness and per-job progress"
    )
    _add_daemon_client_flags(d_status)
    d_status.add_argument(
        "--job", default=None, help="report only this job id"
    )
    d_status.set_defaults(func=cmd_daemon_status)

    d_preempt = dsub.add_parser(
        "preempt",
        help="kill job incarnations; each reincarnates from the store "
        "after its restart delay",
    )
    _add_daemon_client_flags(d_preempt)
    d_preempt.add_argument(
        "--job",
        default=None,
        help="preempt only this job (default: every running job)",
    )
    d_preempt.add_argument(
        "--restart-delay",
        type=int,
        default=None,
        help="reincarnation delay in ticks (default: the daemon's)",
    )
    d_preempt.set_defaults(func=cmd_daemon_preempt)

    d_drain = dsub.add_parser(
        "drain",
        help="refuse new jobs, finish running ones, then stop the daemon",
    )
    _add_daemon_client_flags(d_drain, timeout_default=60.0)
    d_drain.add_argument(
        "--no-wait",
        action="store_true",
        help="return after the drain is acknowledged instead of waiting "
        "for the daemon to stop",
    )
    d_drain.set_defaults(func=cmd_daemon_drain)

    d_stop = dsub.add_parser(
        "stop",
        help="stop the daemon immediately: queued saves flush, running "
        "jobs halt where they are",
    )
    _add_daemon_client_flags(d_stop)
    d_stop.set_defaults(func=cmd_daemon_stop)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        from repro.obs.log import configure

        configure("debug")
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
