"""Unified telemetry layer: registry, tracing, logging, export, CLI surfaces.

Covers the ``repro.obs`` package plus the acceptance-critical integration
paths: a shared registry hammered from many threads stays consistent under
snapshot; one trace id follows a client request over the socket transport
into the daemon's span tree (pool task and backend write included), and the
context survives the reconnect-with-stable-request-id retry path; persisted
registry snapshots survive a daemon restart with an epoch bump instead of
silently resetting to zero (the stats-loss-on-reopen fix).
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.obs.export import (
    BoundedJsonlWriter,
    ObsDir,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_INSTRUMENT,
    StatsView,
)
from repro.obs.trace import (
    MemoryTraceSink,
    capture_context,
    current_span,
    parse_context,
    set_trace_sink,
    span_scope,
    traced,
    wire_context,
)
from repro.service import (
    ChunkStore,
    DaemonClient,
    DaemonConfig,
    DaemonUnavailable,
    FleetDaemon,
    WriterPool,
)
from repro.service.transport import PROTOCOL_VERSION, recv_frame, send_frame
from repro.storage.layout import obs_dir
from repro.storage.memory import InMemoryBackend


@pytest.fixture(autouse=True)
def _clean_obs_globals():
    """No sink or log configuration leaks between tests."""
    previous = set_trace_sink(None)
    obs_log.reset()
    yield
    set_trace_sink(previous)
    obs_log.reset()


def _tiny_spec(job_id: str, steps: int = 2) -> dict:
    return {
        "job_id": job_id,
        "workload": "classifier",
        "target_steps": steps,
        "params": {"qubits": 2, "layers": 1, "samples": 16, "batch_size": 4},
    }


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("ops")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.dec(2)
        assert gauge.value == 5.0
        hist = registry.histogram("lat")
        hist.observe(0.003)
        hist.observe(0.2)
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.203)
        assert hist.mean == pytest.approx(0.1015)
        assert hist.quantile(0.5) in DEFAULT_BUCKETS

    def test_labels_are_distinct_series_and_get_or_create(self):
        registry = MetricsRegistry(enabled=True)
        a = registry.counter("saves", job="a")
        b = registry.counter("saves", job="b")
        assert a is not b
        a.inc()
        assert b.value == 0.0
        assert registry.counter("saves", job="a") is a  # cached
        assert registry.find("saves", job="a") is a
        assert registry.find("saves", job="zzz") is None  # no create

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("x")
        with pytest.raises(ConfigError, match="already registered"):
            registry.histogram("x")

    def test_disabled_registry_is_null_and_snapshots_empty(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("ops")
        assert counter is NULL_INSTRUMENT
        counter.inc()
        counter.observe(1.0)
        assert counter.value == 0.0
        assert registry.snapshot()["series"] == []

    def test_env_toggle(self, monkeypatch):
        monkeypatch.setenv("QCKPT_METRICS", "0")
        assert not MetricsRegistry().enabled
        monkeypatch.setenv("QCKPT_METRICS", "1")
        assert MetricsRegistry().enabled

    def test_snapshot_is_deterministic_and_sorted(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("b").inc()
        registry.counter("a", job="j2").inc(2)
        registry.counter("a", job="j1").inc(3)
        registry.histogram("h").observe(0.01)
        snap1 = registry.snapshot()
        snap2 = registry.snapshot()
        assert snap1 == snap2
        names = [(s["name"], tuple(sorted(s["labels"].items())))
                 for s in snap1["series"]]
        assert names == sorted(names)
        hist = next(s for s in snap1["series"] if s["name"] == "h")
        assert hist["count"] == 1
        assert sum(hist["counts"]) == hist["count"]
        assert len(hist["counts"]) == len(hist["buckets"]) + 1

    def test_save_load_bumps_epoch_and_keeps_totals(self, tmp_path):
        first = MetricsRegistry(enabled=True)
        first.counter("saves").inc(5)
        first.histogram("lat").observe(0.01)
        path = tmp_path / "registry.json"
        first.save(path)

        second = MetricsRegistry(enabled=True)
        assert second.load(path)
        assert second.epoch == 2  # restart visible to rate readers
        second.counter("saves").inc(2)
        second.histogram("lat").observe(0.02)
        snap = second.snapshot()
        saves = next(s for s in snap["series"] if s["name"] == "saves")
        assert saves["value"] == 7.0  # cumulative across the restart
        lat = next(s for s in snap["series"] if s["name"] == "lat")
        assert lat["count"] == 2
        assert lat["sum"] == pytest.approx(0.03)
        assert sum(lat["counts"]) == 2

    def test_load_missing_or_garbage_is_false(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        assert not registry.load(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert not registry.load(bad)
        assert registry.epoch == 1

    def test_merge_gauge_live_value_wins(self):
        registry = MetricsRegistry(enabled=True)
        registry.gauge("depth").set(3)
        registry.merge(
            {
                "series": [
                    {
                        "name": "depth",
                        "labels": {},
                        "type": "gauge",
                        "value": 99.0,
                    }
                ]
            }
        )
        snap = registry.snapshot()
        depth = next(s for s in snap["series"] if s["name"] == "depth")
        assert depth["value"] == 3.0


class TestStatsView:
    def test_view_over_hot_shared_registry_counts_from_zero(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("tier.fast_hits", tier="fast").inc(100)

        class View(StatsView):
            def __init__(self, metrics):
                super().__init__()
                self._bind(
                    "fast_hits",
                    metrics.counter("tier.fast_hits", tier="fast"),
                )

        view = View(registry)
        assert view.fast_hits == 0  # per-instance semantics preserved
        view.fast_hits += 2
        assert view.fast_hits == 2
        assert registry.counter("tier.fast_hits", tier="fast").value == 102.0
        view.fast_hits = 5
        assert view.fast_hits == 5

    def test_float_binding_and_plain_attributes(self):
        registry = MetricsRegistry(enabled=True)

        class View(StatsView):
            def __init__(self):
                super().__init__()
                self._bind(
                    "seconds", registry.counter("w.seconds"), as_int=False
                )
                self.last = None

        view = View()
        view.seconds += 0.25
        assert view.seconds == pytest.approx(0.25)
        assert isinstance(view.seconds, float)
        view.last = "plain"
        assert view.last == "plain"
        with pytest.raises(AttributeError):
            view.never_bound


class TestRegistryConcurrency:
    def test_hammered_histogram_stays_consistent_under_snapshot(self):
        """Workers + restore threads on ONE labeled histogram; snapshots
        taken mid-load must be internally consistent and the final count
        exact."""
        registry = MetricsRegistry(enabled=True)
        threads, per_thread = 8, 500
        start = threading.Barrier(threads + 1)
        inconsistent = []

        def worker(value: float) -> None:
            hist = registry.histogram("save.seconds", job="shared")
            start.wait()
            for _ in range(per_thread):
                hist.observe(value)
                registry.counter("saves", job="shared").inc()

        pool = [
            threading.Thread(target=worker, args=(0.001 * (i + 1),))
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        start.wait()
        for _ in range(50):  # snapshot *under* load
            snap = registry.snapshot()
            for series in snap["series"]:
                if series["type"] == "histogram":
                    if sum(series["counts"]) != series["count"]:
                        inconsistent.append(series)
        for thread in pool:
            thread.join()
        assert not inconsistent, "count/bucket totals tore under load"
        final = registry.histogram("save.seconds", job="shared")
        assert final.count == threads * per_thread
        assert (
            registry.counter("saves", job="shared").value
            == threads * per_thread
        )


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTrace:
    def test_fast_path_yields_none_when_tracing_off(self):
        with span_scope("noop") as span:
            assert span is None
        assert current_span() is None

    def test_nesting_shares_trace_id_and_parents(self):
        sink = MemoryTraceSink()
        set_trace_sink(sink)
        with span_scope("outer") as outer:
            with span_scope("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert current_span() is inner
            assert current_span() is outer
        records = sink.records()
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["trace"] == records[1]["trace"]

    def test_explicit_parent_beats_ambient(self):
        sink = MemoryTraceSink()
        set_trace_sink(sink)
        wire = {"trace_id": "t" * 16, "span_id": "s" * 8}
        with span_scope("ambient"):
            with span_scope("child", parent=wire) as child:
                assert child.trace_id == "t" * 16
                assert child.parent_id == "s" * 8

    def test_exception_marks_error_and_still_emits(self):
        sink = MemoryTraceSink()
        set_trace_sink(sink)
        with pytest.raises(ValueError):
            with span_scope("boom"):
                raise ValueError("nope")
        (record,) = sink.records()
        assert record["status"] == "error"
        assert current_span() is None  # stack unwound

    def test_traced_thread_hop_joins_the_submitting_trace(self):
        sink = MemoryTraceSink()
        set_trace_sink(sink)
        with span_scope("submit") as span:
            ctx = capture_context()
            assert ctx == span.context()
        ran = threading.Event()
        thread = threading.Thread(
            target=traced(ran.set, "pool.task", ctx, job="j")
        )
        thread.start()
        thread.join()
        assert ran.is_set()
        task = next(r for r in sink.records() if r["name"] == "pool.task")
        assert task["trace"] == span.trace_id
        assert task["parent"] == span.span_id
        assert task["attrs"]["job"] == "j"

    def test_wire_context_fresh_root_and_parse_validation(self):
        ctx = wire_context()  # no ambient span: a fresh root
        assert len(ctx["trace_id"]) == 16
        assert parse_context(ctx)["trace_id"] == ctx["trace_id"]
        assert parse_context(None) is None
        assert parse_context("junk") is None
        assert parse_context({"trace_id": ""}) is None
        assert parse_context({"trace_id": "t", "span_id": 7})["span_id"] == ""

    def test_memory_sink_is_bounded(self):
        sink = MemoryTraceSink(capacity=3)
        set_trace_sink(sink)
        for i in range(5):
            with span_scope(f"s{i}"):
                pass
        assert [r["name"] for r in sink.records()] == ["s2", "s3", "s4"]


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------


class TestLogger:
    def test_level_threshold_and_key_value_format(self):
        stream = io.StringIO()
        obs_log.configure(level="info", stream=stream)
        logger = obs_log.get_logger("daemon")
        logger.debug("hidden", n=1)
        logger.info("transport-start", transport="socket", n=2)
        output = stream.getvalue()
        assert "hidden" not in output
        (line,) = output.splitlines()
        assert " INFO daemon transport-start " in line
        assert line.endswith("transport=socket n=2")

    def test_values_with_spaces_are_quoted(self):
        stream = io.StringIO()
        obs_log.configure(level="debug", stream=stream)
        obs_log.get_logger("cli").warning("oops", msg="two words")
        assert 'msg="two words"' in stream.getvalue()

    def test_ambient_trace_id_is_appended(self):
        stream = io.StringIO()
        obs_log.configure(level="debug", stream=stream)
        set_trace_sink(MemoryTraceSink())
        with span_scope("op") as span:
            obs_log.get_logger("store").info("saved")
        assert f"trace={span.trace_id}" in stream.getvalue()

    def test_env_level_and_reset(self, monkeypatch):
        monkeypatch.setenv("QCKPT_LOG", "debug")
        obs_log.reset()
        assert obs_log.threshold() == 10
        monkeypatch.delenv("QCKPT_LOG")
        obs_log.reset()
        assert obs_log.threshold() == 30  # default: warning

    def test_bad_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs_log.configure(level="loud")


# ---------------------------------------------------------------------------
# Export: bounded JSONL + the obs directory
# ---------------------------------------------------------------------------


class TestExport:
    def test_bounded_writer_rotates(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = BoundedJsonlWriter(path, max_bytes=200)
        for i in range(20):
            writer.append({"i": i, "pad": "x" * 40})
        assert path.exists()
        rotated = tmp_path / "log.jsonl.1"
        assert rotated.exists()
        assert path.stat().st_size <= 200
        # Every surviving line is intact JSON.
        for file in (path, rotated):
            for line in file.read_text().splitlines():
                json.loads(line)

    def test_obs_dir_roundtrip(self, tmp_path):
        obs = ObsDir(obs_dir(tmp_path))
        registry = MetricsRegistry(enabled=True)
        registry.counter("saves").inc(3)
        obs.save_registry(registry)

        sink = obs.trace_sink()
        set_trace_sink(sink)
        with span_scope("op"):
            pass

        reopened = MetricsRegistry(enabled=True)
        assert obs.load_registry(reopened)
        assert reopened.epoch == 2
        span_record = json.loads(obs.trace_path.read_text().splitlines()[0])
        assert span_record["kind"] == "span"
        assert span_record["name"] == "op"


# ---------------------------------------------------------------------------
# Trace propagation: client -> socket -> daemon -> pool -> store
# ---------------------------------------------------------------------------


class TestTracePropagation:
    def test_single_trace_id_from_client_to_backend_write(self, tmp_path):
        """The acceptance path: a submit's trace id shows up on the
        daemon-side handling span, the pool task, and the store save."""
        sink = MemoryTraceSink(capacity=4096)
        set_trace_sink(sink)
        store = ChunkStore(InMemoryBackend(), block_bytes=2048)
        pool = WriterPool(workers=1, metrics=store.metrics)
        daemon = FleetDaemon(
            store,
            pool,
            tmp_path / "ctl",
            config=DaemonConfig(tick_seconds=0.002),
            listen="127.0.0.1:0",
            auth_token="hunter2",
        )
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while daemon.listen_address is None or ":0" in daemon.listen_address:
            assert time.monotonic() < deadline, "socket never bound"
            time.sleep(0.01)
        client = DaemonClient(
            connect=daemon.listen_address, token="hunter2", timeout=30.0
        )
        try:
            with span_scope("cli.submit") as root:
                response = client.submit(_tiny_spec("traced", steps=2))
            assert response["ok"]
            trace_id = root.trace_id
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                jobs = client.status()["jobs"]
                if jobs["traced"]["state"] == "finished":
                    break
                time.sleep(0.02)
        finally:
            try:
                client.stop(timeout=10.0)
            except (ConfigError, DaemonUnavailable):
                pass
            client.close()
            thread.join(timeout=30.0)
            pool.close()
        by_trace = [r for r in sink.records() if r["trace"] == trace_id]
        names = {r["name"] for r in by_trace}
        assert "client.submit" in names
        assert "daemon.submit" in names
        # The submit starts the job, whose first save rides the same trace
        # through the channel's thread hop onto the pool worker.
        assert "pool.task" in names
        assert "store.save" in names
        # And the tree is connected: daemon.submit is parented on the
        # client-side span that carried the wire context.
        daemon_span = next(r for r in by_trace if r["name"] == "daemon.submit")
        client_span = next(r for r in by_trace if r["name"] == "client.submit")
        assert daemon_span["parent"] == client_span["span"]
        assert daemon_span["attrs"]["transport"] == "tcp"

    def test_trace_context_stable_across_reconnect(self):
        """The resent frame after a mid-request death carries the SAME
        trace context (it is part of the body the client rebuilds from),
        so the daemon-side tree never splits across retries."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]
        delivered = []

        def dying_then_healthy_server():
            conn, _ = listener.accept()
            assert recv_frame(conn)["qckpt"] == PROTOCOL_VERSION
            send_frame(conn, {"ok": True, "protocol": PROTOCOL_VERSION})
            delivered.append(recv_frame(conn))
            conn.close()  # die without answering
            conn, _ = listener.accept()
            assert recv_frame(conn)["qckpt"] == PROTOCOL_VERSION
            send_frame(conn, {"ok": True, "protocol": PROTOCOL_VERSION})
            request = recv_frame(conn)
            delivered.append(request)
            send_frame(conn, {"ok": True, "id": request["id"]})
            conn.close()

        server = threading.Thread(target=dying_then_healthy_server, daemon=True)
        server.start()
        client = DaemonClient(connect=f"127.0.0.1:{port}", timeout=5.0)
        try:
            assert client.request("ping")["ok"]
        finally:
            client.close()
            listener.close()
            server.join(timeout=5.0)
        assert len(delivered) == 2
        first, second = delivered
        assert first["id"] == second["id"]
        assert first[obs_trace.TRACE_KEY] == second[obs_trace.TRACE_KEY]
        assert parse_context(first[obs_trace.TRACE_KEY]) is not None

    def test_unix_socket_carries_trace(self, tmp_path):
        sink = MemoryTraceSink()
        set_trace_sink(sink)
        store = ChunkStore(InMemoryBackend(), block_bytes=2048)
        pool = WriterPool(workers=1)
        daemon = FleetDaemon(
            store, pool, tmp_path / "ctl",
            config=DaemonConfig(tick_seconds=0.002),
        )
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        client = DaemonClient(tmp_path / "ctl", timeout=30.0)
        try:
            with span_scope("cli.ping") as root:
                assert client.ping()["ok"]
        finally:
            daemon._stop_requested = True
            client.close()
            thread.join(timeout=30.0)
            pool.close()
        handled = next(r for r in sink.records() if r["name"] == "daemon.ping")
        assert handled["trace"] == root.trace_id
        assert handled["attrs"]["transport"] == "unix"


# ---------------------------------------------------------------------------
# Daemon metrics op + persistence across restart
# ---------------------------------------------------------------------------


class TestDaemonMetrics:
    def _serve(self, daemon):
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        # A restart on a used control directory: daemon.json says
        # "stopped" until the new daemon claims it, and a request sent
        # before then fails fast — wait until the socket answers.
        client = DaemonClient(daemon.control.root)
        deadline = time.monotonic() + 30.0
        while not client.is_alive():
            assert time.monotonic() < deadline, "daemon never answered"
            time.sleep(0.01)
        return thread

    def test_metrics_op_and_registry_survives_restart(self, tmp_path):
        obs_root = obs_dir(tmp_path)
        first_served = 0
        for incarnation in range(2):
            registry = MetricsRegistry(enabled=True)
            store = ChunkStore(
                InMemoryBackend(), block_bytes=2048, metrics=registry
            )
            pool = WriterPool(workers=1, metrics=registry)
            daemon = FleetDaemon(
                store,
                pool,
                tmp_path / "ctl",
                config=DaemonConfig(tick_seconds=0.002),
                metrics=registry,
                obs_dir=obs_root,
            )
            thread = self._serve(daemon)
            client = DaemonClient(tmp_path / "ctl", timeout=30.0)
            try:
                assert client.submit(
                    _tiny_spec(f"job{incarnation}", steps=2)
                )["ok"]
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    jobs = client.status()["jobs"]
                    if all(j["state"] == "finished" for j in jobs.values()):
                        break
                    time.sleep(0.02)
                response = client.request("metrics")
            finally:
                try:
                    client.stop(timeout=10.0)
                except (ConfigError, DaemonUnavailable):
                    pass
                thread.join(timeout=30.0)
                pool.close()
            assert response["ok"]
            assert response["epoch"] == incarnation + 1
            snapshot = response["metrics"]
            names = {s["name"] for s in snapshot["series"]}
            assert "save.seconds" in names
            assert "daemon.requests_served" in names
            assert "daemon.active_jobs" in names  # gauge refreshed on op
            assert response["dedup_ratio"] == store.stats.dedup_ratio
            assert "queues" in response
            served = next(
                s["value"]
                for s in snapshot["series"]
                if s["name"] == "daemon.requests_served"
            )
            if incarnation == 0:
                first_served = served
                # Per-job latency summary surfaces in status too.
                job_metrics = jobs["job0"]["metrics"]
                assert job_metrics["saves"] >= 1
                assert job_metrics["save_p99_seconds"] > 0.0
            else:
                # The second incarnation folded the persisted snapshot in:
                # cumulative, not reset (the stats-loss-on-reopen fix).
                assert served > first_served
                saves = [
                    s
                    for s in snapshot["series"]
                    if s["name"] == "save.seconds"
                ]
                assert {s["labels"]["job"] for s in saves} == {
                    "job0",
                    "job1",
                }
            assert (obs_root / "registry.json").exists()

    def test_requests_served_counts_from_zero_on_shared_registry(
        self, tmp_path
    ):
        registry = MetricsRegistry(enabled=True)
        registry.counter("daemon.requests_served").inc(50)
        store = ChunkStore(InMemoryBackend(), block_bytes=2048)
        pool = WriterPool(workers=1)
        try:
            daemon = FleetDaemon(
                store, pool, tmp_path / "ctl", metrics=registry
            )
            assert daemon.requests_served == 0
            daemon._c_requests.inc()
            assert daemon.requests_served == 1
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# CLI: qckpt metrics / qckpt top
# ---------------------------------------------------------------------------


class TestCliMetrics:
    def test_metrics_from_persisted_registry(self, tmp_path, capsys):
        from repro.cli import main

        registry = MetricsRegistry(enabled=True)
        registry.histogram("save.seconds", job="j0").observe(0.01)
        registry.counter("store.logical_bytes").inc(200)
        registry.counter("store.physical_bytes").inc(100)
        registry.counter("save.encode.stored_blocks").inc(16)
        registry.counter("save.encode.stored_bytes").inc(1 << 20)
        registry.counter("save.encode.deflated_blocks").inc(5)
        obs = ObsDir(obs_dir(tmp_path))
        obs.save_registry(registry)

        assert main(["metrics", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "dedup ratio: 2.00x" in output
        assert (
            "encode: 16 blocks stored as-is (1.00 MiB), 5 deflated" in output
        )
        assert "j0" in output

        assert main(["metrics", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["dedup_ratio"] == pytest.approx(2.0)
        names = {s["name"] for s in payload["metrics"]["series"]}
        assert "save.seconds" in names

    def test_metrics_without_source_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["metrics"]) == 2
        assert "pick a source" in capsys.readouterr().err
        assert main(["metrics", str(tmp_path / "empty")]) == 2
        assert "no persisted metrics" in capsys.readouterr().err

    def test_top_requires_a_live_control_plane(self, capsys):
        from repro.cli import main

        assert main(["top", "--iterations", "1"]) == 2
        assert "live daemon" in capsys.readouterr().err
