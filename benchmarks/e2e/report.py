"""From a run's samples to the metrics declared in ``BENCHMARK.json``.

``end_to_end`` holds what a user of the system sees, measured with tracing
off; ``per_layer`` holds what single modules did, from the traced run.  A
layer a workload does not exercise reports 0 (no work, no time).  Both
functions return plain ``{name: value}``; units live in ``BENCHMARK.json``
only, so they cannot drift apart.
"""

from __future__ import annotations

import resource
from typing import Dict, List

from probes import RESTORE_SAMPLES, Recorder, percentile, supported_percentile

SAVE_STAGES = {
    "serialize": "core.serialize.serialize_ms",
    "hash": "core.hashing.hash_ms",
    "encode": "core.codecs.encode_ms",
    "write": "storage.write_ms",
    "manifest": "service.chunkstore.manifest_ms",
}
#: What a recovery is made of, unless the workload says otherwise.
RECOVER_PARTS = (
    "service.chunkstore.reopen",
    "service.chunkstore.latest_valid",
    "ml.trainer.restore",
)
RESTORE_STAGES = {
    "plan": "core.restore.plan_ms",
    "fetch": "core.restore.fetch_ms",
    "verify": "core.restore.verify_ms",
    "assemble": "core.restore.assemble_ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rec: Recorder, res: Dict, setup_s: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "goodput_ops_per_s": _ratio(res["ops"], res["loop_seconds"]),
        "ckpt_overhead_ratio": _ratio(res["foreground_op_s"], res["bare_op_s"]),
        "request_p50_ms": 1e3 * res["request_s"],
        "bytes_stored_per_logical": _ratio(
            res["stored_bytes"], rec.counts["logical_bytes"]
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def _stage_means(records: List[dict], span: str, stages: Dict[str, str]):
    """Mean per-operation stage time (ms) from the program's own ``stages``
    attribute, and the summed stage seconds.  Means, not medians: a stage
    most operations skip (no new block to encode or write) would read 0 as a
    median, and means add up to the operation's mean."""
    sums = {stage: 0.0 for stage in stages}
    operations = 0
    for record in records:
        # Only operations the benchmark timed: their program span hangs
        # under a benchmark span (the reference ops' spans are roots).
        if record.get("name") != span or record.get("parent") is None:
            continue
        operations += 1
        stamped = record.get("attrs", {}).get("stages") or {}
        for stage in stages:
            sums[stage] += float(stamped.get(stage, 0.0))
    means = {
        stages[stage]: 1e3 * _ratio(seconds, operations)
        for stage, seconds in sums.items()
    }
    return means, sum(sums.values())


def _charged(rec: Recorder, layer: str, methods, kind: str, what: str) -> float:
    """Sum of a proxy's per-call counters over ``methods`` (None = all)."""
    total = 0.0
    suffix = f".{kind}.{what}"
    for key, value in rec.counts.items():
        if not key.startswith(layer + ".") or not key.endswith(suffix):
            continue
        method = key[len(layer) + 1 : -len(suffix)]
        if methods is None or method in methods:
            total += value
    return total


def per_layer(rec: Recorder, res: Dict, untraced_goodput: float) -> Dict[str, float]:
    """Every per-layer metric, from the traced run's recorder."""
    records = rec.span_records()
    med = rec.median_ms
    saves = rec.n("service.chunkstore.save")
    restores = sum(rec.n(name) for name in RESTORE_SAMPLES)
    restore_wall = sum(rec.total(name) for name in RESTORE_SAMPLES)
    save_stages, save_stage_s = _stage_means(records, "store.save", SAVE_STAGES)
    restore_stages, restore_stage_s = _stage_means(
        records, "store.restore", RESTORE_STAGES
    )
    reads = ("read", "read_range")
    speculated = rec.registry.find("save.pipeline.speculated")
    wasted = rec.registry.find("save.pipeline.wasted")
    traced_goodput = _ratio(res["ops"], res["loop_seconds"])
    layers = res["layers"]
    predicted = layers.get("core.policy.yd_interval_pred_s", 0.0)
    observed = layers.get("core.policy.yd_interval_obs_s", 0.0)
    threads = res.get("threads_wall")

    out = {
        "autodiff.loss_and_grad_ms": med("autodiff.loss_and_grad"),
        "quantum.sim_forward_ms": med("quantum.sim_forward"),
        "quantum.kernel_cache_hit_ratio": res["kernel_cache_hit_ratio"],
        "ml.optimizer_step_ms": med("ml.optimizer_step"),
        "ml.step_busy_frac": layers.get("ml.step_busy_frac", 0.0),
        "ml.trainer.restore_ms": med("ml.trainer.restore"),
        "core.snapshot.capture_ms": med("core.snapshot.capture"),
        "service.manager.hook_stall_ms": med("service.manager.hook_stall"),
        "service.pool.backpressure_stall_ms": med("service.pool.backpressure_stall"),
        "service.pool.queue_wait_ms": med("service.pool.queue_wait"),
        "service.pool.busy_frac": _ratio(
            rec.total("service.pool.task"), res["loop_wall"] * res["pool_workers"]
        ),
        "service.pool.save_commit_p50_ms": med("save_commit"),
        "service.pool.save_commit_p90_ms": rec.percentile_ms("save_commit", 90.0),
        "service.chunkstore.save_ms": med("service.chunkstore.save"),
        **save_stages,
        "service.chunkstore.dedup_hit_ratio": (
            1.0 - _ratio(rec.counts["new_blocks"], rec.counts["blocks"])
            if rec.counts["blocks"]
            else 0.0
        ),
        "service.chunkstore.speculation_waste_ratio": _ratio(
            wasted.value if wasted else 0.0,
            speculated.value if speculated else 0.0,
        ),
        "storage.backend.write_calls_per_save": _ratio(
            _charged(rec, "storage.backend", ("write",), "save", "calls"), saves
        ),
        "storage.backend.write_bytes_per_save": _ratio(
            _charged(rec, "storage.backend", ("write",), "save", "bytes"), saves
        ),
        "storage.backend.write_ms_per_save": 1e3 * _ratio(
            _charged(rec, "storage.backend", ("write",), "save", "seconds"), saves
        ),
        "storage.metadb.busy_ms_per_save": 1e3 * _ratio(
            _charged(rec, "storage.metadb", None, "save", "seconds"), saves
        ),
        "storage.metadb.busy_ms_per_restore": 1e3 * _ratio(
            _charged(rec, "storage.metadb", None, "restore", "seconds"), restores
        ),
        "storage.metadb.calls_per_restore": _ratio(
            _charged(rec, "storage.metadb", None, "restore", "calls"), restores
        ),
        "service.manager.recover_p50_ms": med("recover"),
        "service.chunkstore.reopen_ms": med("service.chunkstore.reopen"),
        "service.chunkstore.latest_valid_ms": med("service.chunkstore.latest_valid"),
        "service.chunkstore.restore_full_p90_ms": rec.percentile_ms(
            "service.chunkstore.latest_valid", 90.0
        ),
        "service.chunkstore.restore_params_p50_ms": med(
            "service.chunkstore.restore_params"
        ),
        **restore_stages,
        "core.restore.params_fetch_bytes_frac": layers.get(
            "core.restore.params_fetch_bytes_frac", 0.0
        ),
        "storage.backend.read_calls_per_restore": _ratio(
            _charged(rec, "storage.backend", reads, "restore", "calls"), restores
        ),
        "storage.backend.read_bytes_per_restore": _ratio(
            _charged(rec, "storage.backend", reads, "restore", "bytes"), restores
        ),
        "storage.backend.list_calls_per_restore": _ratio(
            _charged(rec, "storage.backend", ("list",), "restore", "calls"), restores
        ),
        "storage.backend.read_ms_per_restore": 1e3 * _ratio(
            _charged(rec, "storage.backend", reads, "restore", "seconds"), restores
        ),
        "core.policy.yd_interval_pred_s": predicted,
        "core.policy.yd_interval_obs_s": observed,
        "core.policy.interval_obs_over_pred": _ratio(observed, predicted),
        "core.policy.saves_per_100_steps": layers.get(
            "core.policy.saves_per_100_steps", 0.0
        ),
        "core.policy.lost_steps_per_crash": layers.get(
            "core.policy.lost_steps_per_crash", 0.0
        ),
        "service.daemon.submit_to_first_step_ms": med(
            "service.daemon.submit_to_first_step"
        ),
        "service.daemon.preempt_to_resumed_ms": med(
            "service.daemon.preempt_to_resumed"
        ),
        "service.daemon.drain_s": layers.get("service.daemon.drain_s", 0.0),
        "service.daemon.sched_share_skew": layers.get(
            "service.daemon.sched_share_skew", 0.0
        ),
        "service.daemon.handle_ms": layers.get("service.daemon.handle_ms", 0.0),
        "service.transport.ping_rtt_ms": med("service.transport.ping_rtt"),
        "service.transport.ctl_rtt_p50_ms": med("ctl_rtt"),
        "service.transport.ctl_rtt_p90_ms": rec.percentile_ms("ctl_rtt", 90.0),
        "service.pool.task_errors": rec.counts["service.pool.task_errors"],
        "core.restore.refetches": rec.counts["core.restore.refetches"],
        "storage.backend.errors": rec.counts["storage.backend.errors"],
        "obs.save_stage_coverage": _ratio(
            save_stage_s, rec.total("service.chunkstore.save")
        ),
        "obs.restore_stage_coverage": _ratio(restore_stage_s, restore_wall),
        "obs.recover_accounted_frac": _ratio(
            sum(med(part) for part in res.get("recover_parts", RECOVER_PARTS)),
            med("recover"),
        ),
        "obs.named_span_coverage": (
            _ratio(threads["named"], threads["train"]) if threads else 0.0
        ),
        "obs.trace_overhead_ratio": _ratio(traced_goodput, untraced_goodput),
    }
    return out


def timing_table(rec: Recorder) -> Dict[str, Dict[str, float]]:
    """Every timing as median plus the highest percentile with at least ten
    samples beyond it, with the sample count, on the yardstick clock.  The
    wall-clock median goes into the result file only (never printed), so
    that what the yardstick does to the spreads can be checked on any set."""
    table = {}
    for name in sorted(rec.samples):
        seconds = rec.calibrated(name)
        if not seconds:
            continue
        q = supported_percentile(len(seconds))
        table[name] = {
            "n": len(seconds),
            "p50_ms": 1e3 * percentile(seconds, 50.0),
            "tail_percentile": q,
            "tail_ms": 1e3 * percentile(seconds, q),
            "wall_p50_ms": 1e3 * percentile(rec.raw(name), 50.0),
        }
    return table
