"""Performance observatory: timeseries history, profiler, health engine.

Covers the three `repro.obs` observatory modules plus the satellite
regressions that ride with them: SQLite sample history with metadb-style
discard-and-rebuild and bounded retention; the epoch-aware rate
discipline (a two-incarnation restart must never produce a negative or
restart-spanning rate anywhere — timeseries queries, sparklines, health
rules, or the daemon `series` op); span-tree profiling with stage
attribution and critical-path extraction; the declarative health rule
engine; Prometheus text exposition; the JSONL rotation/torn-line
hardening; and the FileTransport idle-poll elision.
"""

from __future__ import annotations

import contextlib
import io
import json
import sqlite3
import threading
import time

import pytest

from repro.cli import _sparkline, main
from repro.errors import ConfigError, StorageError
from repro.obs import profile as obs_profile
from repro.obs.export import (
    BoundedJsonlWriter,
    ObsDir,
    TRACE_FILENAME,
    prometheus_text,
    read_jsonl_records,
)
from repro.obs.health import (
    DEFAULT_RULES,
    HealthEngine,
    HealthRule,
    rules_from_records,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    DB_FILENAME,
    SCHEMA_VERSION,
    Sample,
    TimeSeriesDB,
    TimeSeriesSampler,
    group_by_labels,
    rate_from_samples,
)
from repro.service import (
    ChunkStore,
    DaemonClient,
    DaemonConfig,
    DaemonUnavailable,
    FleetDaemon,
    WriterPool,
)
from repro.service.transport import FileTransport, REQUEST_PREFIX
from repro.storage.layout import obs_dir
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend


def _counter_snapshot(value, epoch=1, name="reliability.retries"):
    """Minimal registry-snapshot dict with one counter series."""
    return {
        "version": 1,
        "epoch": epoch,
        "series": [
            {
                "name": name,
                "type": "counter",
                "labels": {},
                "value": float(value),
                "epoch": epoch,
            }
        ],
    }


def _sample(ts, epoch, value, name="reliability.retries"):
    return Sample(
        ts=float(ts), epoch=int(epoch), name=name, labels={}, kind="counter",
        value=float(value),
    )


# ---------------------------------------------------------------------------
# TimeSeriesDB: schema discipline, retention, queries
# ---------------------------------------------------------------------------


class TestTimeSeriesDB:
    def test_roundtrip_counter_and_histogram(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.counter("saves").inc(3)
        registry.histogram("save.seconds").observe(0.25)
        db = TimeSeriesDB(tmp_path / DB_FILENAME, prune_interval_seconds=0)
        try:
            written = db.record_snapshot(registry.snapshot(), ts=100.0)
            assert written == 2
            counter = db.query("saves")
            assert len(counter) == 1
            assert counter[0].cumulative == 3.0
            assert counter[0].epoch == 1
            hist = db.latest("save.seconds")
            assert hist.kind == "histogram"
            assert hist.count == 1
            assert hist.cumulative == 1.0  # histograms rate over count
            # counts carries the +Inf overflow bucket
            assert len(hist.counts) == len(hist.buckets) + 1
            assert db.series_names() == ["save.seconds", "saves"]
        finally:
            db.close()

    def test_corrupt_file_is_discarded_and_rebuilt(self, tmp_path):
        path = tmp_path / DB_FILENAME
        path.write_bytes(b"this is not a sqlite database at all" * 100)
        db = TimeSeriesDB(path, prune_interval_seconds=0)
        try:
            assert db.discarded_previous
            assert db.metrics.counter("timeseries.rebuilds").value == 1
            db.record_snapshot(_counter_snapshot(1), ts=1.0)
            assert len(db.query("reliability.retries")) == 1
        finally:
            db.close()

    def test_schema_version_mismatch_discards_history(self, tmp_path):
        path = tmp_path / DB_FILENAME
        db = TimeSeriesDB(path, prune_interval_seconds=0)
        db.record_snapshot(_counter_snapshot(5), ts=1.0)
        db.close()
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        reopened = TimeSeriesDB(path, prune_interval_seconds=0)
        try:
            assert reopened.discarded_previous
            assert reopened.query("reliability.retries") == []
        finally:
            reopened.close()

    def test_clean_reopen_keeps_history(self, tmp_path):
        path = tmp_path / DB_FILENAME
        db = TimeSeriesDB(path, prune_interval_seconds=0)
        db.record_snapshot(_counter_snapshot(5), ts=1.0)
        db.close()
        reopened = TimeSeriesDB(path, prune_interval_seconds=0)
        try:
            assert not reopened.discarded_previous
            assert len(reopened.query("reliability.retries")) == 1
        finally:
            reopened.close()

    def test_retention_window_prunes_old_rows(self):
        db = TimeSeriesDB(
            retention_seconds=100.0, prune_interval_seconds=0
        )
        try:
            db.record_snapshot(_counter_snapshot(1), ts=10.0)
            db.record_snapshot(_counter_snapshot(2), ts=50.0)
            db.record_snapshot(_counter_snapshot(3), ts=200.0)
            samples = db.query("reliability.retries")
            assert [s.ts for s in samples] == [200.0]
        finally:
            db.close()

    def test_row_cap_prunes_oldest_first(self):
        db = TimeSeriesDB(max_rows=3, prune_interval_seconds=0)
        try:
            for i in range(6):
                db.record_snapshot(_counter_snapshot(i), ts=float(i))
            samples = db.query("reliability.retries")
            assert [s.ts for s in samples] == [3.0, 4.0, 5.0]
        finally:
            db.close()

    def test_pruning_is_amortized_between_intervals(self):
        db = TimeSeriesDB(
            retention_seconds=1.0, prune_interval_seconds=60.0
        )
        try:
            db.record_snapshot(_counter_snapshot(0), ts=0.0)  # first: prunes
            for i in range(1, 5):
                db.record_snapshot(_counter_snapshot(i), ts=float(i))
            # Rows older than the 1s retention are still there — no prune
            # ran inside the 60s amortization window...
            assert len(db.query("reliability.retries")) == 5
            db.record_snapshot(_counter_snapshot(9), ts=61.0)
            # ...but the next insert past the interval sweeps them.
            assert [s.ts for s in db.query("reliability.retries")] == [61.0]
        finally:
            db.close()

    def test_row_cap_still_enforced_between_intervals(self):
        db = TimeSeriesDB(max_rows=4, prune_interval_seconds=60.0)
        try:
            for i in range(10):
                db.record_snapshot(_counter_snapshot(i), ts=float(i))
            assert len(db.query("reliability.retries")) <= 4
        finally:
            db.close()

    def test_query_filters_and_limit(self):
        db = TimeSeriesDB(prune_interval_seconds=0)
        try:
            for i in range(5):
                db.record_snapshot(_counter_snapshot(i), ts=float(i))
            assert [s.ts for s in db.query(
                "reliability.retries", since=2.0, until=3.0
            )] == [2.0, 3.0]
            # limit keeps the newest rows, returned oldest-first
            assert [s.ts for s in db.query(
                "reliability.retries", limit=2
            )] == [3.0, 4.0]
            assert db.latest_ts() == 4.0
        finally:
            db.close()

    def test_closed_db_raises_storage_error(self):
        db = TimeSeriesDB(prune_interval_seconds=0)
        db.close()
        with pytest.raises(StorageError):
            db.record_snapshot(_counter_snapshot(1), ts=1.0)
        with pytest.raises(StorageError):
            db.query("anything")


# ---------------------------------------------------------------------------
# Epoch-aware rate math (satellite: restart must never fake a rate)
# ---------------------------------------------------------------------------


class TestEpochAwareRates:
    def test_two_incarnation_restart_never_negative(self):
        """A counter that was at 100 before a restart and 2 after must
        never contribute a negative (or any) restart-spanning delta."""
        db = TimeSeriesDB(prune_interval_seconds=0)
        try:
            db.record_snapshot(_counter_snapshot(0, epoch=1), ts=0.0)
            db.record_snapshot(_counter_snapshot(100, epoch=1), ts=10.0)
            # restart: epoch bumps, cumulative resets far below 100
            db.record_snapshot(_counter_snapshot(2, epoch=2), ts=20.0)
            db.record_snapshot(_counter_snapshot(4, epoch=2), ts=30.0)
            rate = db.windowed_rate(
                "reliability.retries", window_seconds=1000.0, now=30.0
            )
            # epoch 1 contributes 100/10s, epoch 2 contributes 2/10s; the
            # 100 -> 2 crossing contributes nothing.
            assert rate == pytest.approx((100.0 + 2.0) / 20.0)
            assert rate >= 0
        finally:
            db.close()

    def test_restart_spanning_pair_alone_yields_none(self):
        samples = [_sample(0.0, 1, 100.0), _sample(10.0, 2, 2.0)]
        assert rate_from_samples(samples) is None

    def test_negative_within_epoch_delta_is_distrusted(self):
        samples = [
            _sample(0.0, 1, 10.0),
            _sample(5.0, 1, 4.0),  # counter went backwards: skip
            _sample(10.0, 1, 9.0),
        ]
        assert rate_from_samples(samples) == pytest.approx(5.0 / 5.0)

    def test_single_sample_yields_none(self):
        assert rate_from_samples([_sample(0.0, 1, 5.0)]) is None
        assert rate_from_samples([]) is None

    def test_windowed_quantile_ignores_prior_epoch(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("save.seconds")
        db = TimeSeriesDB(prune_interval_seconds=0)
        try:
            for _ in range(50):
                hist.observe(30.0)  # slow epoch-1 saves
            snap = registry.snapshot()
            snap["epoch"] = 1
            for record in snap["series"]:
                record["epoch"] = 1
            db.record_snapshot(snap, ts=0.0)

            fresh = MetricsRegistry(enabled=True)
            fast = fresh.histogram("save.seconds")
            for _ in range(50):
                fast.observe(0.01)  # fast epoch-2 saves
            snap2 = fresh.snapshot()
            snap2["epoch"] = 2
            for record in snap2["series"]:
                record["epoch"] = 2
            db.record_snapshot(snap2, ts=10.0)

            p99 = db.windowed_quantile(
                "save.seconds", 0.99, window_seconds=1000.0, now=10.0
            )
            assert p99 is not None
            assert p99 < 1.0  # epoch-2 distribution, not the slow one
        finally:
            db.close()

    def test_health_rate_rule_passes_on_restart_spanning_data(self):
        rule = HealthRule(
            name="retry-storm",
            kind="rate",
            series="reliability.retries",
            op=">",
            value=0.1,
            window_seconds=1000.0,
            severity="critical",
        )
        db = TimeSeriesDB(prune_interval_seconds=0)
        try:
            db.record_snapshot(_counter_snapshot(500, epoch=1), ts=0.0)
            db.record_snapshot(_counter_snapshot(0, epoch=2), ts=10.0)
            report = HealthEngine([rule]).evaluate(
                _counter_snapshot(0, epoch=2), db, now=10.0,
            )
            finding = report.findings[0]
            assert not finding.firing
            assert finding.reason == "no rate data in window"
            assert report.verdict == "ok"
        finally:
            db.close()

    def test_sparkline_renders_restart_gap_as_dot(self):
        # points are [ts, epoch, cumulative] triples (the `series` op wire
        # shape); the epoch-2 reset must render as a gap, not a plunge.
        points = [
            [0.0, 1, 0.0],
            [1.0, 1, 8.0],
            [2.0, 2, 1.0],
            [3.0, 2, 5.0],
        ]
        line = _sparkline(points)
        assert len(line) == 3
        assert line[1] == "·"  # the restart-spanning gap
        assert line[0] != "·" and line[2] != "·"
        assert _sparkline([]) == ""
        assert _sparkline([[0.0, 1, 1.0]]) == ""


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


class TestTimeSeriesSampler:
    def test_maybe_sample_respects_cadence(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("c").inc()
        db = TimeSeriesDB(prune_interval_seconds=0)
        try:
            sampler = TimeSeriesSampler(db, registry, interval_seconds=10.0)
            assert sampler.maybe_sample(now=0.0)
            assert not sampler.maybe_sample(now=5.0)
            assert sampler.maybe_sample(now=10.0)
            assert sampler.samples_taken == 2
            assert len(db.query("c")) == 2
        finally:
            db.close()

    def test_sampler_swallows_storage_errors(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("c").inc()
        db = TimeSeriesDB(prune_interval_seconds=0)
        db.close()  # every record_snapshot now raises StorageError
        sampler = TimeSeriesSampler(db, registry, interval_seconds=0.0)
        assert sampler.sample(now=1.0) is False
        assert sampler.errors == 1
        assert sampler.samples_taken == 0


# ---------------------------------------------------------------------------
# Span profiler
# ---------------------------------------------------------------------------


def _span(name, trace, span_id, parent=None, start=0.0, dur_ms=10.0,
          attrs=None, status="ok"):
    return {
        "kind": "span",
        "name": name,
        "trace": trace,
        "span": span_id,
        "parent": parent,
        "start": start,
        "duration_ms": dur_ms,
        "status": status,
        "attrs": attrs or {},
    }


def _save_trace(trace="t1", start=100.0, dur_ms=100.0):
    """A realistic store.save span tree with stage attribution."""
    return [
        _span(
            "store.save", trace, "s1", start=start, dur_ms=dur_ms,
            attrs={
                "stages": {
                    "serialize": 0.010,
                    "hash": 0.020,
                    "encode": 0.005,
                    "write": 0.050,
                    "manifest": 0.005,
                },
                "encode": {
                    "stored_blocks": 3,
                    "stored_bytes": 3 << 16,
                    "deflated_blocks": 1,
                },
                "bytes": 4 << 20,
                "blocks": 4,
            },
        ),
        _span("pool.task", trace, "s2", parent="s1", start=start + 0.001,
              dur_ms=5.0),
    ]


class TestProfile:
    def test_build_trees_parents_and_expands_stages(self):
        trees = obs_profile.build_trees(_save_trace())
        assert set(trees) == {"t1"}
        (root,) = trees["t1"]
        assert root.name == "store.save"
        names = {c.name for c in root.children}
        assert "pool.task" in names
        assert obs_profile.STAGE_PREFIX + "write" in names
        write = next(
            c for c in root.children if c.name == "stage:write"
        )
        assert write.synthetic
        assert write.duration_ms == pytest.approx(50.0)
        # self time = wall minus all children (real + synthetic)
        assert root.child_ms == pytest.approx(95.0)
        assert root.self_ms == pytest.approx(5.0)

    def test_self_ms_never_negative(self):
        records = [
            _span("outer", "t", "a", dur_ms=10.0),
            _span("inner", "t", "b", parent="a", dur_ms=25.0),  # clock skew
        ]
        (root,) = obs_profile.build_trees(records)["t"]
        assert root.self_ms == 0.0

    def test_orphan_span_becomes_root(self):
        records = [_span("child", "t", "b", parent="rotated-away")]
        roots = obs_profile.build_trees(records)["t"]
        assert [r.name for r in roots] == ["child"]

    def test_critical_path_descends_heaviest_child(self):
        trees = obs_profile.build_trees(_save_trace())
        (root,) = trees["t1"]
        path = obs_profile.critical_path(root)
        assert [n.name for n in path] == ["store.save", "stage:write"]

    def test_stage_coverage_meets_attribution_floor(self):
        (root,) = obs_profile.build_trees(_save_trace())["t1"]
        coverage = obs_profile.stage_coverage(root)
        # 90ms of stages + 5ms pool task over 100ms wall
        assert coverage == pytest.approx(0.95)
        leaf = obs_profile.critical_path(root)[-1]
        assert obs_profile.stage_coverage(leaf) == 0.0  # no children
        zero = obs_profile.ProfileNode(
            name="z", span_id="z", trace_id="t", parent_id=None,
            start=0.0, duration_ms=0.0,
        )
        assert obs_profile.stage_coverage(zero) is None

    def test_aggregate_counts_and_throughput(self):
        records = _save_trace("t1") + _save_trace("t2", start=300.0)
        aggs = obs_profile.aggregate(obs_profile.build_trees(records))
        save = next(a for a in aggs if a.name == "store.save")
        assert save.count == 2
        assert save.total_ms == pytest.approx(200.0)
        assert save.bytes == 8 << 20
        # 8 MiB over 200ms = 40 MiB/s
        assert save.throughput_mb_s == pytest.approx(40.0)

    def test_newest_trace_and_find_span(self):
        records = _save_trace("old", start=100.0) + _save_trace(
            "new", start=500.0
        )
        trees = obs_profile.build_trees(records)
        assert obs_profile.newest_trace(trees, containing="store.save") == "new"
        assert obs_profile.newest_trace(trees, containing="nope") is None
        node = obs_profile.find_span(trees["new"], "stage:hash")
        assert node is not None and node.duration_ms == pytest.approx(20.0)

    def test_folded_stacks_merge_self_time(self):
        records = _save_trace("t1") + _save_trace("t2", start=300.0)
        folded = obs_profile.folded_stacks(obs_profile.build_trees(records))
        by_stack = dict(
            (line.rsplit(" ", 1)[0], int(line.rsplit(" ", 1)[1]))
            for line in folded
        )
        # two traces' stage:write self time merged: 2 * 50ms in µs
        assert by_stack["store.save;stage:write"] == 100_000
        assert by_stack["store.save"] == 10_000  # 2 * 5ms self
        assert folded == sorted(folded)

    def test_load_trees_tolerates_torn_trailing_line(self, tmp_path):
        trace_path = tmp_path / TRACE_FILENAME
        with trace_path.open("w", encoding="utf-8") as handle:
            for record in _save_trace():
                handle.write(json.dumps(record) + "\n")
            handle.write('{"kind": "span", "name": "torn')  # crash mid-append
        trees = obs_profile.load_trees(trace_path)
        assert set(trees) == {"t1"}
        assert len(trees["t1"]) == 1


# ---------------------------------------------------------------------------
# JSONL rotation + damage-tolerant reads (satellite)
# ---------------------------------------------------------------------------


class TestBoundedJsonl:
    def test_rotation_keeps_whole_records(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = BoundedJsonlWriter(path, max_bytes=200)
        for i in range(40):
            writer.append({"i": i})
        records = list(read_jsonl_records(path))
        assert records  # never empty after rotation
        values = [r["i"] for r in records]
        assert values == sorted(values)
        assert values[-1] == 39
        # every surviving record is intact (json.loads succeeded) and the
        # rotated generation exists
        assert path.with_name("log.jsonl.1").exists()

    def test_oversized_record_never_wipes_previous_generation(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.with_name("log.jsonl.1").write_text(
            json.dumps({"kept": True}) + "\n", encoding="utf-8"
        )
        writer = BoundedJsonlWriter(path, max_bytes=10)  # every record oversized
        writer.append({"huge": "x" * 100})
        # live file was empty, so no rotation happened: the .1 generation
        # survives and both records read back.
        records = list(read_jsonl_records(path))
        assert records[0] == {"kept": True}
        assert records[1]["huge"] == "x" * 100

    def test_reader_skips_torn_and_garbage_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"a": 1}) + "\n"
            + "not json at all\n"
            + json.dumps([1, 2, 3]) + "\n"  # decodes but not an object
            + json.dumps({"b": 2}) + "\n"
            + '{"torn": tr',  # crash mid-append, no newline
            encoding="utf-8",
        )
        assert list(read_jsonl_records(path)) == [{"a": 1}, {"b": 2}]

    def test_reader_reads_rotated_generation_first(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.with_name("log.jsonl.1").write_text(
            json.dumps({"gen": 1}) + "\n", encoding="utf-8"
        )
        path.write_text(json.dumps({"gen": 0}) + "\n", encoding="utf-8")
        assert [r["gen"] for r in read_jsonl_records(path)] == [1, 0]

    def test_missing_file_reads_empty(self, tmp_path):
        assert list(read_jsonl_records(tmp_path / "absent.jsonl")) == []


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


class TestPrometheusText:
    def test_counter_gauge_histogram_exposition(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("daemon.requests_served").inc(7)
        registry.gauge("pool.queue_depth", pool="a b").set(3)
        hist = registry.histogram("save.seconds")
        hist.observe(0.05)
        hist.observe(100.0)
        text = prometheus_text(registry.snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE qckpt_daemon_requests_served_total counter" in lines
        assert "qckpt_daemon_requests_served_total 7" in lines
        assert 'qckpt_pool_queue_depth{pool="a b"} 3' in lines
        assert "# TYPE qckpt_save_seconds histogram" in lines
        # +Inf bucket carries the full count and equals _count
        inf = next(
            line for line in lines
            if line.startswith('qckpt_save_seconds_bucket{le="+Inf"}')
        )
        assert inf.endswith(" 2")
        assert "qckpt_save_seconds_count 2" in lines
        assert any(
            line.startswith("qckpt_save_seconds_sum ") for line in lines
        )
        assert "qckpt_registry_epoch 1" in lines
        # bucket counts are cumulative (monotone in le)
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("qckpt_save_seconds_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)


# ---------------------------------------------------------------------------
# Health rule engine
# ---------------------------------------------------------------------------


class TestHealthEngine:
    def test_threshold_rule_fires_on_gauge(self):
        registry = MetricsRegistry(enabled=True)
        registry.gauge("reliability.breaker_open").set(1)
        report = HealthEngine().evaluate(
            registry.snapshot(), include_staleness=False
        )
        assert report.verdict == "critical"
        (finding,) = [f for f in report.firing if f.rule == "breaker-open"]
        assert "circuit breaker" in finding.reason

    def test_all_rules_pass_on_quiet_registry(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("save.count").inc()
        report = HealthEngine().evaluate(
            registry.snapshot(), include_staleness=False
        )
        assert report.verdict == "ok"
        assert report.checked == len(DEFAULT_RULES) - 1  # staleness skipped
        assert report.firing == []

    def test_threshold_histogram_quantile(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("save.seconds")
        for _ in range(100):
            hist.observe(30.0)  # p99 far above the 5s default
        report = HealthEngine().evaluate(
            registry.snapshot(), include_staleness=False
        )
        assert any(f.rule == "save-latency-p99" for f in report.firing)
        assert report.verdict == "warn"

    def test_rate_rule_fires_with_history(self):
        db = TimeSeriesDB(prune_interval_seconds=0)
        try:
            db.record_snapshot(_counter_snapshot(0), ts=0.0)
            db.record_snapshot(_counter_snapshot(100), ts=10.0)
            report = HealthEngine().evaluate(
                _counter_snapshot(100), db, now=10.0, include_staleness=False
            )
            (finding,) = [f for f in report.firing if f.rule == "retry-storm"]
            assert finding.observed == pytest.approx(10.0)
            assert "[observed" in finding.reason
        finally:
            db.close()

    def test_burn_rule_fires_on_exhausted_budget(self):
        def snap(retries, exhausted, ts_epoch=1):
            return {
                "version": 1,
                "epoch": ts_epoch,
                "series": [
                    {
                        "name": "reliability.retries", "type": "counter",
                        "labels": {}, "value": float(retries),
                        "epoch": ts_epoch,
                    },
                    {
                        "name": "reliability.exhausted_ops", "type": "counter",
                        "labels": {}, "value": float(exhausted),
                        "epoch": ts_epoch,
                    },
                ],
            }

        db = TimeSeriesDB(prune_interval_seconds=0)
        try:
            db.record_snapshot(snap(0, 0), ts=0.0)
            db.record_snapshot(snap(10, 8), ts=10.0)
            report = HealthEngine().evaluate(
                snap(10, 8), db, now=10.0, include_staleness=False
            )
            (finding,) = [
                f for f in report.firing if f.rule == "retry-budget-burn"
            ]
            assert finding.observed == pytest.approx(0.8)
        finally:
            db.close()

    def test_staleness_rule_fires_on_old_samples(self):
        db = TimeSeriesDB(prune_interval_seconds=0)
        try:
            db.record_snapshot(_counter_snapshot(1), ts=0.0)
            rule = HealthRule(
                name="stalled", kind="staleness", window_seconds=30.0,
                severity="warn",
            )
            report = HealthEngine([rule]).evaluate(
                _counter_snapshot(1), db, now=100.0
            )
            assert report.verdict == "warn"
            assert report.findings[0].observed == pytest.approx(100.0)
            # fresh samples: passes
            db.record_snapshot(_counter_snapshot(2), ts=95.0)
            ok = HealthEngine([rule]).evaluate(
                _counter_snapshot(2), db, now=100.0
            )
            assert ok.verdict == "ok"
        finally:
            db.close()

    def test_windowed_rules_pass_without_history(self):
        report = HealthEngine().evaluate(
            _counter_snapshot(100), timeseries=None, include_staleness=False
        )
        assert report.verdict == "ok"
        rate_findings = [
            f for f in report.findings if f.reason == "no history available"
        ]
        assert rate_findings  # rate + burn rules declined to guess

    def test_rule_roundtrip_and_validation(self):
        for rule in DEFAULT_RULES:
            assert HealthRule.from_dict(rule.to_dict()) == rule
        (restored,) = rules_from_records([DEFAULT_RULES[0].to_dict()])
        assert restored == DEFAULT_RULES[0]
        with pytest.raises(ConfigError):
            HealthRule(name="bad", kind="nonsense")
        with pytest.raises(ConfigError):
            HealthRule(name="bad", kind="threshold", severity="fatal")
        with pytest.raises(ConfigError):
            HealthRule(name="bad", kind="threshold", op="!=")
        with pytest.raises(ConfigError):
            HealthRule(name="bad", kind="burn", series="a")  # no total_series
        with pytest.raises(ConfigError):
            HealthRule(name="bad", kind="rate", window_seconds=0.0)

    def test_report_to_dict_shape(self):
        report = HealthEngine().evaluate(
            _counter_snapshot(0), include_staleness=False
        )
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["verdict"] == "ok"
        assert doc["checked"] == len(doc["findings"])
        assert {"rule", "severity", "firing", "reason"} <= set(
            doc["findings"][0]
        )


# ---------------------------------------------------------------------------
# FileTransport idle-poll elision (satellite)
# ---------------------------------------------------------------------------


class TestFileTransportElision:
    def test_idle_polls_are_elided_and_new_requests_seen(self, tmp_path):
        control = LocalDirectoryBackend(tmp_path / "ctl")
        transport = FileTransport(control)
        assert transport.poll() == []
        # Let the directory mtime age past the trust margin, then one
        # empty listing records the high-water mark...
        time.sleep(0.05)
        assert transport.poll() == []
        skipped_before = transport.dir_scans_skipped
        assert transport.poll() == []
        assert transport.poll() == []
        assert transport.dir_scans_skipped == skipped_before + 2
        # ...and a new request invalidates it via the directory mtime.
        control.write(
            f"{REQUEST_PREFIX}abc.json",
            json.dumps({"op": "ping"}).encode("utf-8"),
        )
        pending = transport.poll()
        assert len(pending) == 1
        assert pending[0].request == {"op": "ping"}

    def test_pending_requests_never_recorded_as_high_water(self, tmp_path):
        control = LocalDirectoryBackend(tmp_path / "ctl")
        control.write(
            f"{REQUEST_PREFIX}one.json",
            json.dumps({"op": "ping"}).encode("utf-8"),
        )
        transport = FileTransport(control)
        time.sleep(0.05)
        # A non-empty listing must never set the mark: the same request is
        # re-served on every poll until it is responded to.
        assert len(transport.poll()) == 1
        assert len(transport.poll()) == 1
        assert transport.dir_scans_skipped == 0


# ---------------------------------------------------------------------------
# Daemon integration: sampler + health + the three observatory ops
# ---------------------------------------------------------------------------


def _tiny_spec(job_id, steps=2):
    return {
        "job_id": job_id,
        "workload": "classifier",
        "target_steps": steps,
        "params": {"qubits": 2, "layers": 1, "samples": 16, "batch_size": 4},
    }


class TestDaemonObservatory:
    def _run_incarnation(self, tmp_path, obs_root, job_id):
        registry = MetricsRegistry(enabled=True)
        store = ChunkStore(InMemoryBackend(), block_bytes=2048, metrics=registry)
        pool = WriterPool(workers=1, metrics=registry)
        daemon = FleetDaemon(
            store,
            pool,
            tmp_path / "ctl",
            config=DaemonConfig(
                tick_seconds=0.002,
                obs_sample_seconds=0.01,
            ),
            metrics=registry,
            obs_dir=obs_root,
        )
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        client = DaemonClient(tmp_path / "ctl", timeout=30.0)
        responses = {}
        try:
            assert client.submit(_tiny_spec(job_id, steps=2))["ok"]
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                jobs = client.status()["jobs"]
                if all(j["state"] == "finished" for j in jobs.values()):
                    break
                time.sleep(0.02)
            responses["status"] = client.status()
            responses["health"] = client.request("health")
            # --prom is the CLI's rendering of the daemon's `metrics` op
            with contextlib.redirect_stdout(io.StringIO()) as prom:
                assert main(
                    ["metrics", "--control", str(tmp_path / "ctl"), "--prom"]
                ) == 0
            responses["metrics_text"] = prom.getvalue()
            responses["series"] = client.request(
                "series", name="save.seconds", window=120.0, limit=64
            )
        finally:
            try:
                client.stop(timeout=10.0)
            except (ConfigError, DaemonUnavailable):
                pass
            thread.join(timeout=30.0)
            pool.close()
        return responses

    def test_observatory_ops_and_restart_safe_history(self, tmp_path):
        obs_root = obs_dir(tmp_path)
        for incarnation, job_id in enumerate(["alpha", "beta"]):
            responses = self._run_incarnation(tmp_path, obs_root, job_id)

            health = responses["health"]
            assert health["ok"]
            assert health["health"]["verdict"] == "ok"
            assert health["health"]["checked"] == len(DEFAULT_RULES)
            assert {r["name"] for r in health["rules"]} == {
                r.name for r in DEFAULT_RULES
            }
            # the in-loop report also lands on the status op
            assert responses["status"]["health"]["verdict"] == "ok"

            text = responses["metrics_text"]
            assert "# TYPE qckpt_save_seconds histogram" in text
            assert f"qckpt_registry_epoch {incarnation + 1}" in text

            series = responses["series"]
            assert series["ok"]
            assert series["series"], "sampler produced no save.seconds rows"
            for entry in series["series"]:
                for ts, epoch, cumulative in entry["points"]:
                    assert epoch >= 1 and cumulative >= 0
                if entry["rate"] is not None:
                    assert entry["rate"] >= 0

        # The history file persisted across both incarnations with both
        # epochs present, and no restart-spanning rate goes negative.
        db = TimeSeriesDB(obs_root / DB_FILENAME)
        try:
            assert not db.discarded_previous
            samples = db.query("save.seconds")
            assert {s.epoch for s in samples} == {1, 2}
            for run in group_by_labels(samples).values():
                rate = rate_from_samples(run)
                assert rate is None or rate >= 0
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Offline CLI verbs over crafted obs directories
# ---------------------------------------------------------------------------


class TestObservatoryCli:
    def test_health_offline_exit_codes(self, tmp_path, capsys):
        obs = ObsDir(obs_dir(tmp_path))
        registry = MetricsRegistry(enabled=True)
        registry.counter("save.count").inc()
        obs.save_registry(registry)
        assert main(["health", str(tmp_path)]) == 0
        assert "health OK" in capsys.readouterr().out

        registry.gauge("reliability.breaker_open").set(1)
        obs.save_registry(registry)
        assert main(["health", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "health CRITICAL" in out
        assert "breaker-open" in out

    def test_health_json_output(self, tmp_path, capsys):
        obs = ObsDir(obs_dir(tmp_path))
        registry = MetricsRegistry(enabled=True)
        registry.counter("save.count").inc()
        obs.save_registry(registry)
        assert main(["health", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "ok"

    def test_health_without_registry_is_an_error(self, tmp_path, capsys):
        assert main(["health", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_prints_critical_path_and_folded(self, tmp_path, capsys):
        trace_path = obs_dir(tmp_path) / TRACE_FILENAME
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with trace_path.open("w", encoding="utf-8") as handle:
            for record in _save_trace():
                handle.write(json.dumps(record) + "\n")

        assert main(["profile", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "store.save" in out
        assert "critical path: store.save (100.00ms) -> stage:write" in out
        assert "stage coverage:" in out

        assert main(["profile", str(tmp_path), "--last-save"]) == 0
        out = capsys.readouterr().out
        assert "trace t1" in out
        assert "new blocks: 3 stored, 1 deflated" in out

        assert main(["profile", str(tmp_path), "--folded"]) == 0
        folded = capsys.readouterr().out
        assert "store.save;stage:write 50000" in folded

        assert main(["profile", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(a["name"] == "store.save" for a in doc["aggregate"])
        assert main(["profile", str(tmp_path), "--last-save", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spans"][0]["encode"]["stored_blocks"] == 3

    def test_profile_unknown_trace_is_an_error(self, tmp_path, capsys):
        trace_path = obs_dir(tmp_path) / TRACE_FILENAME
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with trace_path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(_save_trace()[0]) + "\n")
        assert main(["profile", str(tmp_path), "--trace", "missing"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_prom_offline(self, tmp_path, capsys):
        obs = ObsDir(obs_dir(tmp_path))
        registry = MetricsRegistry(enabled=True)
        registry.counter("save.count").inc(5)
        obs.save_registry(registry)
        assert main(["metrics", str(tmp_path), "--prom"]) == 0
        out = capsys.readouterr().out
        assert "qckpt_save_count_total 5" in out
