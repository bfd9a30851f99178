"""Long-running fleet daemon: the checkpoint service as a *process*.

:class:`~repro.service.fleet.FleetHarness` runs one fixed fleet to
completion and dies with its caller; real sweep traffic (capacity scans,
architecture selection) is a *stream* of small jobs arriving while others
finish.  :class:`FleetDaemon` drives the same
:class:`~repro.service.scheduler.Scheduler` — one job table, one tick
loop, identical crash semantics — from a long-lived serve loop that:

* accepts job submissions, status queries, drain and preemption commands
  over **one socket server** (:mod:`repro.service.transport`): a Unix
  socket ``daemon.sock`` in the control directory and, with
  ``listen=...``, a TCP listener as well, so a daemon on one host can be
  driven and monitored from another with no shared filesystem for control
  traffic.  Both listeners feed one op table, :data:`OPS` (op name ->
  handler, read-only flag): read-only ops are answered between the
  training-step slots of a pass, the others at the pass boundary, and an
  op not in the table is refused at once,
* steps the scheduler once per pass (weighted round-robin by
  ``priority``, failed jobs parked),
* survives job churn: a submission is parsed by
  :meth:`~repro.service.scheduler.FleetJobSpec.from_wire` into a job built
  from the **workload catalogue** (:mod:`repro.ml.catalogue`: named
  trainer recipes + JSON parameters — never unpickled callables; an
  unknown key is refused), jobs die on ``preempt``, and reincarnate
  through the shared restore pipeline after their restart delay,
* shares placement with other daemons: with a
  :class:`~repro.storage.placement.PlacementJournal` on the store, pins
  are durable and shared, and the journal is compacted under its
  ``compact`` lease.

Single-instance is carried by ``daemon.json`` in the control directory: a
thread of the daemon heartbeats it, whatever the serve loop is grinding
through, and a second ``start`` against a fresh heartbeat is refused.  A
client's liveness test is a ``ping`` that answers; only when its connect
fails does it read ``daemon.json``, to name a stopped or dead daemon.

Operator surface (see ``docs/OPERATIONS.md``)::

    qckpt daemon start  <store> --control <dir>     # run the loop (foreground)
    qckpt daemon start  <store> --listen 0.0.0.0:7777 --token s3cret
    qckpt daemon submit --control <dir> --job lr01 --steps 8 --lr 0.02
    qckpt daemon submit --control <dir> --job v1 --workload vqe --qubits 3
    qckpt daemon submit --connect host:7777 --token s3cret --job lr01 ...
    qckpt daemon status --control <dir> [--job lr01]
    qckpt daemon preempt --connect host:7777 --job lr01
    qckpt daemon drain  --control <dir>             # finish jobs, then exit
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigError,
    ReproError,
    StorageError,
    TransportError,
)
from repro.faults.crashpoints import crash_point, register_crash_point
from repro.obs import trace as obs_trace
from repro.obs.export import ObsDir
from repro.obs.health import HealthEngine, HealthReport, HealthRule
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    DB_FILENAME as TIMESERIES_FILENAME,
    TimeSeriesDB,
    TimeSeriesSampler,
    rate_from_samples,
)
from repro.ml.catalogue import BUILTIN_WORKLOADS
from repro.reliability import Deadline, current_deadline
from repro.service.chunkstore import ChunkStore
from repro.service.pool import WriterPool
from repro.service.scheduler import FleetJobSpec, Scheduler, _JobRuntime
from repro.service.transport import (
    SOCKET_NAME,
    Request,
    SocketControlClient,
    SocketTransport,
    TransportConnectError,
)
from repro.storage.local import LocalDirectoryBackend
from repro.storage.reliable import ReliableBackend

META_NAME = "daemon.json"

_log = get_logger("daemon")

CP_META_BEFORE_WRITE = register_crash_point(
    "daemon.meta.before-write",
    "die while refreshing daemon.json (heartbeat goes stale; a successor "
    "must be able to claim the control directory)",
)

# Answers to write ops already sent, kept so a redelivered request id (a
# client retry after a connection died post-send) replays the answer instead
# of applying the operation twice.  Bounded: old entries fall off; by then
# the retry window (seconds) is long past.
IDEMPOTENCY_CACHE_SIZE = 256

# How long a socket connection thread waits for the serve loop to answer
# before self-reporting a timeout envelope.  A read waits at most one training
# step, a write one scheduler pass (bounded by the slowest training steps in
# flight) — sized to the workload, not the network.
SOCKET_RESPONSE_TIMEOUT_SECONDS = 60.0

# A heartbeat older than this means a dead or hung daemon (unless the
# daemon advertises a laxer threshold of its own in daemon.json).
STALE_AFTER_SECONDS = 5.0

# How often a client re-tries a failed connect while daemon.json is absent
# or fresh (a daemon that is still starting), and re-probes a draining one.
POLL_SECONDS = 0.05

STATE_RUNNING = "running"
STATE_DRAINING = "draining"
STATE_STOPPED = "stopped"


# ---------------------------------------------------------------------------
# Daemon
# ---------------------------------------------------------------------------


@dataclass
class DaemonConfig:
    """Knobs of the scheduler loop."""

    tick_seconds: float = 0.02  # idle wait between scheduler passes
    heartbeat_seconds: float = 0.5  # daemon.json refresh cadence
    stale_after_seconds: float = STALE_AFTER_SECONDS
    restart_delay_ticks: int = 1  # default reincarnation delay on preempt
    max_ticks: Optional[int] = None  # loop bound for tests; None = forever
    # Compact the placement journal during serve() once its record count
    # exceeds this (checked at heartbeat cadence, guarded by the journal's
    # ``compact`` lease).  0 = compact only at drain, as PR 4 did — a
    # week-long daemon would then fold pin/lease history only on exit.
    compact_journal_records: int = 512
    # Cadence of registry samples into <obs>/timeseries.db and of health
    # rule evaluation.  None = the heartbeat cadence; 0 disables both the
    # sampler and in-loop health (the `health` op still evaluates fresh).
    obs_sample_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.tick_seconds < 0:
            raise ConfigError(
                f"tick_seconds must be >= 0, got {self.tick_seconds}"
            )
        if self.heartbeat_seconds <= 0:
            raise ConfigError(
                f"heartbeat_seconds must be > 0, got {self.heartbeat_seconds}"
            )
        if self.stale_after_seconds <= self.heartbeat_seconds:
            raise ConfigError(
                "stale_after_seconds must exceed heartbeat_seconds "
                f"({self.stale_after_seconds} vs {self.heartbeat_seconds})"
            )
        if self.restart_delay_ticks < 0:
            raise ConfigError(
                f"restart_delay_ticks must be >= 0, "
                f"got {self.restart_delay_ticks}"
            )
        if self.compact_journal_records < 0:
            raise ConfigError(
                f"compact_journal_records must be >= 0, "
                f"got {self.compact_journal_records}"
            )
        if (
            self.obs_sample_seconds is not None
            and self.obs_sample_seconds < 0
        ):
            raise ConfigError(
                f"obs_sample_seconds must be >= 0 or None, "
                f"got {self.obs_sample_seconds}"
            )

    @property
    def resolved_obs_sample_seconds(self) -> float:
        """The sampler/health cadence (heartbeat cadence when unset)."""
        if self.obs_sample_seconds is None:
            return self.heartbeat_seconds
        return self.obs_sample_seconds


class DaemonAlreadyRunning(ReproError):
    """A live daemon already owns this control directory."""


class DaemonUnavailable(ReproError):
    """No live daemon is answering: dead heartbeat or unreachable socket."""


def _read_control_meta(control_dir) -> Optional[Dict]:
    """Parse ``daemon.json`` from a control directory (``None`` if absent
    or unreadable) — shared by the daemon's claim check and the client's
    refused-connect probe so their tolerance rules cannot drift."""
    try:
        meta = json.loads((Path(control_dir) / META_NAME).read_bytes())
    except (OSError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def _effective_stale_after(meta: Dict, floor: float) -> float:
    """Trust the incumbent daemon's own advertised staleness threshold when
    it is laxer than the observer's: a daemon configured with a slow
    heartbeat cadence must not be presumed dead — by a client *or* by a
    rival ``start`` — just because the observer assumed the default."""
    try:
        advertised = float(meta.get("stale_after_seconds") or 0.0)
    except (TypeError, ValueError):
        advertised = 0.0
    return max(floor, advertised)


class FleetDaemon:
    """The checkpoint service's scheduler, served as a daemon.

    One instance per control directory; construct with the shared
    :class:`~repro.service.chunkstore.ChunkStore` and
    :class:`~repro.service.pool.WriterPool`, then call :meth:`serve` (which
    blocks until drained/stopped).  Everything else — submissions, status,
    drain — arrives through the control plane.

    The control *directory* is mandatory: it carries the single-instance
    lock and heartbeat (``daemon.json``) and the Unix socket
    (``daemon.sock``) of :attr:`server`.  With ``listen="host:port"`` the
    same server serves the op set over TCP too (see
    :class:`~repro.service.transport.SocketTransport`); ``auth_token`` is
    that listener's shared secret.  The one serve loop drains the server's
    request queue and steps :attr:`scheduler`: reads are answered between
    training-step slots, writes between passes, so handlers never race the
    job table.
    """

    def __init__(
        self,
        store: ChunkStore,
        pool: WriterPool,
        control,
        config: Optional[DaemonConfig] = None,
        workloads: Optional[Dict[str, Callable]] = None,
        daemon_id: Optional[str] = None,
        listen: "Optional[str | tuple]" = None,
        auth_token: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        obs_dir=None,
        health_rules: "Optional[List[HealthRule]]" = None,
    ):
        if auth_token is not None and listen is None:
            raise ConfigError(
                "auth_token only guards the TCP listener; pass listen= too"
            )
        self.store = store
        self.pool = pool
        # daemon.json is replaced atomically (readers never see torn
        # JSON); it is liveness, not data, so it is not fsynced.
        self.control = LocalDirectoryBackend(control, fsync=False)
        # One registry for the whole daemon: default to the store's so the
        # stack wired by `qckpt daemon start` (tiered backend, chunk store,
        # pool, daemon) shares a single set of series.
        self.metrics = (
            metrics if metrics is not None else store.metrics
        )
        self._obs = ObsDir(obs_dir) if obs_dir is not None else None
        self.config = config or DaemonConfig()
        self.scheduler = Scheduler(store, pool)
        self.workloads = dict(BUILTIN_WORKLOADS)
        if workloads:
            self.workloads.update(workloads)
        self.daemon_id = daemon_id or f"daemon-{uuid.uuid4().hex[:8]}"
        self.server = SocketTransport(
            self.control.root,
            listen=listen,
            auth_token=auth_token,
            response_timeout_seconds=SOCKET_RESPONSE_TIMEOUT_SECONDS,
        )
        self.state = STATE_STOPPED
        self._stop_requested = False
        self._started_at: Optional[float] = None
        self._hb_stop = threading.Event()
        # Registry-backed daemon counters; the baseline keeps a second
        # daemon over the same (shared-registry) store counting from zero.
        self._c_requests = self.metrics.counter("daemon.requests_served")
        self._c_compactions = self.metrics.counter(
            "daemon.journal_compactions"
        )
        self._c_duplicates = self.metrics.counter("daemon.duplicate_requests")
        self._c_base = {
            "requests": self._c_requests.value,
            "compactions": self._c_compactions.value,
            "duplicates": self._c_duplicates.value,
        }
        self._served_responses: "OrderedDict[str, Dict]" = OrderedDict()
        self._held_writes: List[Request] = []  # taken mid-pass, run after it
        # Observatory state: the timeseries history (opened in serve()
        # when an obs dir exists), its sampler, and the health engine's
        # most recent report (written into daemon.json by the heartbeat).
        self.timeseries: Optional[TimeSeriesDB] = None
        self._sampler: Optional[TimeSeriesSampler] = None
        self._health = HealthEngine(health_rules)
        self._health_report: Optional[HealthReport] = None

    @property
    def tick(self) -> int:
        """Scheduler passes run so far."""
        return self.scheduler.tick

    @property
    def requests_served(self) -> int:
        return int(self._c_requests.value - self._c_base["requests"])

    @property
    def journal_compactions(self) -> int:
        return int(self._c_compactions.value - self._c_base["compactions"])

    @property
    def duplicate_requests(self) -> int:
        return int(self._c_duplicates.value - self._c_base["duplicates"])

    @property
    def listen_address(self) -> Optional[str]:
        """``host:port`` the TCP listener serves (post-start resolves a
        requested port 0 to the actual bound port), or ``None``."""
        return self.server.address

    # -- daemon.json ------------------------------------------------------------

    def _write_meta(self) -> None:
        meta = {
            "daemon_id": self.daemon_id,
            "pid": os.getpid(),
            "state": self.state,
            "started": self._started_at,
            "heartbeat": time.time(),
            "tick": self.tick,
            # Counted before the table is sized: a submit landing between
            # the two (this runs on the heartbeat thread) only grows "jobs".
            "active_jobs": self.scheduler.active_jobs,
            "jobs": len(self.scheduler.jobs),
            # Advertised so clients judge staleness by *this* daemon's
            # cadence instead of assuming the default.
            "heartbeat_seconds": self.config.heartbeat_seconds,
            "stale_after_seconds": self.config.stale_after_seconds,
            # Compact per-heartbeat summary, readable with no round trip;
            # the full labeled series ride the `metrics` op.
            "metrics": {
                "epoch": self.metrics.epoch,
                "requests_served": self.requests_served,
                "dedup_ratio": self.store.stats.dedup_ratio,
                "queue_depth": self.pool.pending,
            },
        }
        report = self._health_report
        if report is not None:
            meta["health"] = {
                "verdict": report.verdict,
                "ts": report.ts,
                "firing": [f.rule for f in report.firing],
            }
        meta.update(self.server.describe())
        crash_point(CP_META_BEFORE_WRITE)
        self.control.write(
            META_NAME, json.dumps(meta, sort_keys=True).encode("utf-8")
        )

    def _claim_control(self) -> None:
        meta = _read_control_meta(self.control.root)
        if meta is not None and meta.get("state") != STATE_STOPPED:
            age = time.time() - float(meta.get("heartbeat", 0.0))
            stale_after = _effective_stale_after(
                meta, self.config.stale_after_seconds
            )
            if age < stale_after:
                raise DaemonAlreadyRunning(
                    f"daemon {meta.get('daemon_id')!r} (pid "
                    f"{meta.get('pid')}) already serves this control "
                    f"directory (heartbeat {age:.1f}s ago); "
                    "drain it first or pick another --control"
                )
        self._started_at = time.time()
        self.state = STATE_RUNNING
        self._write_meta()

    # -- control plane ----------------------------------------------------------

    def _serve_requests(self, wait: float = 0.0) -> int:
        """At a pass boundary: answer the writes held during the pass, then
        every queued request, waiting up to ``wait`` seconds for the first
        when there is none; returns how many were answered."""
        requests, self._held_writes = self._held_writes, []
        requests += self.server.requests(0.0 if requests else wait)
        for request in requests:
            self._answer(*request)
        return len(requests)

    def _serve_reads(self) -> None:
        """Between training-step slots: answer queued reads, hold writes for
        the pass boundary (a connection sends its next request only once its
        last is answered, so no connection's answers are reordered)."""
        for request in self.server.requests():
            if _is_write(request[0]):
                self._held_writes.append(request)
            else:
                self._answer(*request)

    def _answer(self, request: Dict, respond, listener: str) -> None:
        """Handle one request and send the answer.  A bad request must never
        kill the daemon; its error goes back to the requester as an envelope.
        """
        request_id = request["id"]
        write = _is_write(request)
        response = self._served_responses.get(request_id) if write else None
        if response is not None:
            # A retried delivery (same request id): replay the answer so
            # the op — a submit, a preempt — is applied exactly once no
            # matter how often the client resends.
            self._c_duplicates.inc()
        else:
            response = self._handle_traced(request, listener)
            response["id"] = request_id
            if write:
                self._served_responses[request_id] = response
                while len(self._served_responses) > IDEMPOTENCY_CACHE_SIZE:
                    self._served_responses.popitem(last=False)
            self._c_requests.inc()
        respond(dict(response))

    def _handle_traced(self, request: Dict, transport: str) -> Dict:
        """Dispatch one request under a span joined to the client's trace.

        The client ships its trace context in the request body
        (``"trace"``, see :func:`repro.obs.trace.wire_context`); opening
        the handling span as its child makes the daemon-side span tree —
        including pool tasks and backend writes triggered while handling —
        part of the client's trace.  Handle latency lands in the
        ``daemon.handle_seconds`` histogram, labeled by op (every op not
        in :data:`OPS` as ``unknown``, so no request adds a series).
        """
        op = request.get("op")
        entry = OPS.get(op) if isinstance(op, str) else None
        label = op if entry is not None else "unknown"
        parent = obs_trace.parse_context(request.get(obs_trace.TRACE_KEY))
        started = time.perf_counter()
        with obs_trace.span_scope(
            f"daemon.{label}", parent=parent, transport=transport
        ):
            try:
                if entry is None:
                    response = {"ok": False, "error": f"unknown op {op!r}"}
                else:
                    response = entry[0](self, request)
            except Exception as exc:  # noqa: BLE001
                response = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
        self.metrics.histogram("daemon.handle_seconds", op=label).observe(
            time.perf_counter() - started
        )
        return response

    # -- ops (see OPS below) ----------------------------------------------------

    def _op_ping(self, request: Dict) -> Dict:
        return {
            "ok": True,
            "state": self.state,
            "tick": self.tick,
            "daemon_id": self.daemon_id,
        }

    def _op_drain(self, request: Dict) -> Dict:
        if self.state == STATE_RUNNING:
            self.state = STATE_DRAINING
        return {"ok": True, "state": self.state}

    def _op_stop(self, request: Dict) -> Dict:
        self._stop_requested = True
        return {"ok": True, "state": self.state}

    def _op_submit(self, request: Dict) -> Dict:
        if self.state != STATE_RUNNING:
            return {
                "ok": False,
                "error": f"daemon is {self.state}; not accepting jobs",
            }
        spec = FleetJobSpec.from_wire(request.get("spec"), self.workloads)
        # A re-submitted job id *resumes* its history.
        job = self.scheduler.submit(spec)
        return {
            "ok": True,
            "job": job.result.job_id,
            "resumed_from_step": (job.result.resumed_from_steps or [0])[-1],
            "submitted_at_tick": self.tick,
        }

    def _job_status(self, job: _JobRuntime) -> Dict:
        result = job.result
        return {
            "state": job.state,
            "error": None if job.error is None else str(job.error),
            "step": job.trainer.step_count if job.trainer else None,
            "target_steps": job.spec.target_steps,
            "final_step": result.final_step,
            "steps_executed": result.steps_executed,
            "preemptions": result.preemptions,
            "restores": result.restores,
            "lost_steps": result.lost_steps,
            "resumed_from_steps": list(result.resumed_from_steps),
            "down_until_tick": job.down_until,
            "finish_tick": result.finish_tick,
            "priority": job.spec.priority,
            "ticks_scheduled": job.ticks_scheduled,
            "metrics": self._job_metrics(job),
        }

    def _job_metrics(self, job: _JobRuntime) -> Dict:
        """Per-job latency summary from the shared registry, if present."""
        job_id = job.spec.job_id
        summary: Dict = {
            "queue_depth": (
                job.channel.pending if job.channel is not None else 0
            ),
        }
        saves = self.metrics.find("save.seconds", job=job_id)
        if saves is not None and saves.count:
            summary["saves"] = saves.count
            summary["save_mean_seconds"] = saves.mean
            summary["save_p50_seconds"] = saves.quantile(0.5)
            summary["save_p99_seconds"] = saves.quantile(0.99)
        restores = self.metrics.find("restore.seconds", job=job_id)
        if restores is not None and restores.count:
            summary["restores"] = restores.count
            summary["restore_mean_seconds"] = restores.mean
            summary["restore_p99_seconds"] = restores.quantile(0.99)
        return summary

    def _sched_total_ticks(self) -> int:
        return sum(
            job.ticks_scheduled for job in self.scheduler.jobs.values()
        )

    def _op_status(self, request: Dict) -> Dict:
        job_id = request.get("job")
        # Scheduling shares are fractions of *all* ticks ever granted, so a
        # single-job query still reports its share of the contended loop.
        total_ticks = self._sched_total_ticks()

        def status_of(job: _JobRuntime) -> Dict:
            status = self._job_status(job)
            status["sched_share"] = (
                job.ticks_scheduled / total_ticks if total_ticks else 0.0
            )
            return status

        if job_id is not None:
            job = self.scheduler.jobs.get(job_id)
            if job is None:
                return {"ok": False, "error": f"unknown job {job_id!r}"}
            return {
                "ok": True,
                "state": self.state,
                "tick": self.tick,
                "jobs": {job_id: status_of(job)},
            }
        response = {
            "ok": True,
            "state": self.state,
            "tick": self.tick,
            "daemon_id": self.daemon_id,
            "requests_served": self.requests_served,
            "sched_total_ticks": total_ticks,
            "jobs": {
                job_id: status_of(job)
                for job_id, job in self.scheduler.jobs.items()
            },
        }
        report = self._health_report
        if report is not None:
            response["health"] = {
                "verdict": report.verdict,
                "firing": [f.rule for f in report.firing],
            }
        return response

    # -- metrics ------------------------------------------------------------------

    def _find_reliable(self):
        """Walk the backend decorator chain for a ReliableBackend, if any."""
        backend = getattr(self.store, "backend", None)
        seen = 0
        while backend is not None and seen < 16:
            if isinstance(backend, ReliableBackend):
                return backend
            backend = getattr(backend, "inner", None)
            seen += 1
        return None

    def _reliability_state(self) -> Optional[Dict]:
        reliable = self._find_reliable()
        if reliable is None:
            return None
        state: Dict = {
            "retries": reliable.stats.retries,
            "recovered_ops": reliable.stats.recovered_ops,
            "exhausted_ops": reliable.stats.exhausted_ops,
            "rejected_ops": reliable.stats.rejected_ops,
        }
        breaker = getattr(reliable, "breaker", None)
        if breaker is not None:
            state["breaker_state"] = breaker.state
            state["breaker_opens"] = breaker.opens
        return state

    def _refresh_gauges(self) -> None:
        """Point-in-time gauges sampled at snapshot/export time.

        Queue depths and transport counters live as plain attributes on
        their owners (tests assert them directly); mirroring them into
        gauges only when a snapshot is taken keeps the hot paths free of
        registry traffic.
        """
        self.metrics.gauge("daemon.active_jobs").set(
            self.scheduler.active_jobs
        )
        self.metrics.gauge("pool.queue_depth").set(self.pool.pending)
        for job_id, job in self.scheduler.jobs.items():
            if job.channel is not None:
                self.metrics.gauge("channel.queue_depth", job=job_id).set(
                    job.channel.pending
                )
        server = self.server
        self.metrics.gauge("transport.connections_accepted").set(
            server.connections_accepted
        )
        self.metrics.gauge("transport.auth_failures").set(server.auth_failures)
        self.metrics.gauge("transport.frame_errors").set(server.frame_errors)
        reliability = self._reliability_state()
        if reliability is not None and "breaker_state" in reliability:
            self.metrics.gauge("reliability.breaker_open").set(
                0 if reliability["breaker_state"] == "closed" else 1
            )

    def _op_metrics(self, request: Dict) -> Dict:
        from repro.quantum import engines

        self._refresh_gauges()
        queues = {
            job_id: job.channel.pending
            for job_id, job in self.scheduler.jobs.items()
            if job.channel is not None
        }
        # Engine/shard series live in the process-global engines registry
        # (one engine ladder per process, not per daemon); fold them into
        # this daemon's snapshot so one metrics op shows both layers.  Names
        # are disjoint (engine.* / shard.* vs store/pool/job series), so a
        # plain concatenation keeps the snapshot well-formed.
        snapshot = self.metrics.snapshot()
        engine_series = engines.metrics_snapshot().get("series") or []
        if engine_series:
            snapshot["series"] = list(snapshot.get("series") or []) + list(
                engine_series
            )
        response: Dict = {
            "ok": True,
            "daemon_id": self.daemon_id,
            "state": self.state,
            "tick": self.tick,
            "epoch": self.metrics.epoch,
            "metrics": snapshot,
            "dedup_ratio": self.store.stats.dedup_ratio,
            "active_jobs": self.scheduler.active_jobs,
            "queues": queues,
        }
        reliability = self._reliability_state()
        if reliability is not None:
            response["reliability"] = reliability
        return response

    def _op_health(self, request: Dict) -> Dict:
        """Evaluate the health rules fresh and report the verdict."""
        self._refresh_gauges()
        report = self._health.evaluate(
            self.metrics.snapshot(), self.timeseries
        )
        self._health_report = report
        return {
            "ok": True,
            "daemon_id": self.daemon_id,
            "state": self.state,
            "tick": self.tick,
            "health": report.to_dict(),
            "rules": [rule.to_dict() for rule in self._health.rules],
        }

    def _op_series(self, request: Dict) -> Dict:
        """Windowed sample history of one metric, per label set.

        Feeds `qckpt top`'s sparkline/rate columns: each series returns
        its in-window points (``[ts, epoch, cumulative]``) plus an
        epoch-aware windowed rate (never negative, never spanning a
        restart; ``None`` without two same-epoch samples).
        """
        if self.timeseries is None:
            return {
                "ok": False,
                "error": "no timeseries history (daemon has no obs dir)",
            }
        name = str(request.get("name") or "save.seconds")
        window = float(request.get("window", 120.0))
        limit = min(int(request.get("limit", 64)), 512)
        now = time.time()
        series = []
        try:
            for labels in self.timeseries.label_sets(name):
                samples = self.timeseries.query(
                    name, labels=labels, since=now - window, limit=limit
                )
                series.append(
                    {
                        "labels": labels,
                        "points": [
                            [round(s.ts, 3), s.epoch, s.cumulative]
                            for s in samples
                        ],
                        "rate": rate_from_samples(samples),
                    }
                )
        except StorageError as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "name": name, "window": window, "series": series}

    def _obs_tick(self) -> None:
        """One observatory pass: refresh gauges, sample history, judge
        health.  Best-effort — observability never takes the loop down."""
        self._refresh_gauges()
        if self._sampler is not None:
            self._sampler.sample()
        try:
            self._health_report = self._health.evaluate(
                self.metrics.snapshot(), self.timeseries
            )
        except ReproError:
            pass

    def _op_preempt(self, request: Dict) -> Dict:
        job_id = request.get("job")
        delay = request.get("restart_delay_ticks")
        delay = (
            self.config.restart_delay_ticks if delay is None else int(delay)
        )
        if delay < 0:
            return {
                "ok": False,
                "error": f"restart_delay_ticks must be >= 0, got {delay}",
            }
        jobs = self.scheduler.jobs
        if job_id is None:
            targets = [job for job in jobs.values() if job.running]
        else:
            job = jobs.get(job_id)
            if job is None:
                return {"ok": False, "error": f"unknown job {job_id!r}"}
            if not job.running:
                return {
                    "ok": False,
                    "error": f"job {job_id!r} is not running",
                }
            targets = [job]
        for job in targets:
            self.scheduler.preempt(job, delay)
        return {
            "ok": True,
            "preempted": sorted(job.spec.job_id for job in targets),
            "restart_delay_ticks": delay,
        }

    # -- the loop ----------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        """The heartbeat: ``daemon.json`` refreshed from its own thread.

        A training step is opaque to the serve loop and can outlast the
        staleness window on wide circuits, as can a pass of many steps, a
        slow restore or the wait for a dead incarnation's in-flight save.
        Beating from this thread keeps ``daemon.json`` fresh regardless,
        so "stale heartbeat" means dead-or-hung process, never just a
        slow step.
        """
        while not self._hb_stop.wait(self.config.heartbeat_seconds):
            try:
                self._write_meta()
            except Exception:  # noqa: BLE001 - liveness is best-effort;
                # a transient failure (control-dir hiccup, a job-table
                # resize caught mid-snapshot) must not kill the thread —
                # a silently dead heartbeat is the one failure mode this
                # thread exists to rule out.  The next beat retries.
                pass

    def serve(self) -> None:
        """Run the daemon loop until stopped or drained (blocking).

        Raises :class:`DaemonAlreadyRunning` when a live daemon already
        heartbeats this control directory, and
        :class:`~repro.errors.TransportError` when the server cannot bind
        its socket or address.  The server starts only after the claim, so
        a refused ``start`` never touches a live daemon's socket.
        """
        self._claim_control()
        heartbeat_thread: Optional[threading.Thread] = None
        previous_sink = None
        if self._obs is not None:
            # Resume the cumulative series from the last clean shutdown
            # (bumping the epoch so rate readers can see the gap), then
            # start streaming spans to the bounded trace log.
            self.metrics.load(self._obs.registry_path)
            previous_sink = obs_trace.set_trace_sink(self._obs.trace_sink())
            if self.config.resolved_obs_sample_seconds > 0:
                try:
                    self.timeseries = TimeSeriesDB(
                        self._obs.root / TIMESERIES_FILENAME,
                        metrics=self.metrics,
                    )
                    self._sampler = TimeSeriesSampler(
                        self.timeseries,
                        self.metrics,
                        interval_seconds=(
                            self.config.resolved_obs_sample_seconds
                        ),
                    )
                except (StorageError, OSError):
                    # History is optional; the daemon serves without it
                    # (sparkline/rate columns and windowed rules go dark).
                    self.timeseries = None
                    self._sampler = None
        next_obs_tick = 0.0
        try:
            self.server.start()
            # Re-advertise now that the server is live: a TCP listener
            # asked for port 0 only knows its real port post-bind.
            self._write_meta()
            _log.info(
                "serving",
                daemon=self.daemon_id,
                control=str(self.control.root),
                listen=self.listen_address or "-",
            )
            self._hb_stop.clear()
            heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"qckpt-heartbeat-{self.daemon_id}",
                daemon=True,
            )
            heartbeat_thread.start()
            # Listing the journal every tick would be pure overhead: the
            # compaction check runs at heartbeat cadence, on its own clock.
            next_compact_check = 0.0
            idle_wait = 0.0
            while not self._stop_requested:
                if time.monotonic() >= next_compact_check:
                    next_compact_check = (
                        time.monotonic() + self.config.heartbeat_seconds
                    )
                    self._maybe_compact_journal()
                if (
                    self.config.resolved_obs_sample_seconds > 0
                    and time.monotonic() >= next_obs_tick
                ):
                    next_obs_tick = (
                        time.monotonic()
                        + self.config.resolved_obs_sample_seconds
                    )
                    self._obs_tick()
                # After a pass that did nothing, the idle wait is on the
                # request queue: a request that lands ends it at once.
                handled = self._serve_requests(idle_wait)
                progressed = self.scheduler.step(between=self._serve_reads)
                if (
                    self.state == STATE_DRAINING
                    and self.scheduler.active_jobs == 0
                ):
                    break
                if (
                    self.config.max_ticks is not None
                    and self.tick >= self.config.max_ticks
                ):
                    break
                idle_wait = (
                    0.0 if handled or progressed else self.config.tick_seconds
                )
        finally:
            # Close the server first: clients then see a refused
            # connection (daemon gone) instead of requests that hang while
            # the pool flushes below.
            try:
                self.server.close()
            except (TransportError, OSError):
                pass
            try:
                self.pool.drain()
                self._compact_journal()
            finally:
                # Join the heartbeat thread *before* the terminal meta
                # write: a beat landing after "stopped" would resurrect a
                # daemon that no longer exists.
                self._hb_stop.set()
                if heartbeat_thread is not None:
                    heartbeat_thread.join(timeout=5.0)
                self.state = STATE_STOPPED
                self._write_meta()
                if self._obs is not None:
                    # Clean-shutdown persistence: the cumulative series
                    # survive the restart instead of resetting to zero
                    # (the stats-loss-on-reopen fix).
                    self._refresh_gauges()
                    self._obs.save_registry(self.metrics)
                    if self._sampler is not None:
                        # One terminal sample so offline readers see the
                        # final counter values in the history too.
                        self._sampler.sample()
                    if self.timeseries is not None:
                        self.timeseries.close()
                    obs_trace.set_trace_sink(previous_sink)
                _log.info(
                    "stopped",
                    daemon=self.daemon_id,
                    tick=self.tick,
                    requests=self.requests_served,
                )

    def _maybe_compact_journal(self) -> None:
        """Cadence compaction: fold the journal when its log grows long.

        PR 4 compacted only at drain, so a week-long daemon accumulated
        pin/lease history without bound and every sharing process paid
        O(history) on journal refreshes.  Checked at heartbeat cadence
        (listing the log every tick would be pure overhead) and guarded by
        the journal's own ``compact`` lease, so two daemons sharing a store
        never compact concurrently — the loser just skips its turn.

        Compacting mid-run (unlike the quiescent drain-time fold) can race
        a *sharing* daemon's concurrent append: a record the snapshot never
        saw but that sorts at or before it is folded away.  The journal is
        advisory by contract — a lost pin costs fast-tier residency until
        the owner's pin-on-save re-asserts it, never data — and this daemon
        re-asserts its own jobs' newest-manifest pins immediately after
        each compaction, so the exposure is one sharing daemon's pins for
        at most one checkpoint interval.
        """
        threshold = self.config.compact_journal_records
        if threshold <= 0:
            return
        journal = getattr(self.store, "placement_journal", None)
        if journal is None:
            return
        try:
            if len(journal.records()) > threshold and journal.compact() > 0:
                self._c_compactions.inc()
                _log.info(
                    "journal-compact",
                    daemon=self.daemon_id,
                    tick=self.tick,
                    threshold=threshold,
                )
                self._reassert_journal_pins(journal)
        except (ReproError, StorageError):
            pass  # advisory metadata; the next heartbeat retries

    def _reassert_journal_pins(self, journal) -> None:
        """Re-pin this daemon's active jobs' newest manifests post-compact.

        Idempotent (``pin`` is a no-op when the fold already shows the
        name), so the common case costs one journal refresh; only a pin
        the compaction actually raced away gets a fresh record.
        """
        pinned = journal.pinned_names()
        for job_id, job in self.scheduler.jobs.items():
            if job.done:
                continue
            names = self.store.manifest_names(job_id)
            if names and names[-1] not in pinned:
                journal.pin(names[-1])

    def _compact_journal(self) -> None:
        """Fold the placement journal at shutdown (the quiescent moment).

        Pin/unpin and lease records accumulate for the daemon's whole
        lifetime; compacting on drain keeps the next daemon's journal
        refreshes O(pins), not O(history).  Best-effort — the journal is
        advisory metadata and shutdown must not fail over it.
        """
        journal = getattr(self.store, "placement_journal", None)
        if journal is None:
            return
        try:
            journal.compact()
        except (ReproError, StorageError):
            pass


#: The control plane's ops: name -> (handler, read_only).  A read-only op
#: is answered between a pass's training-step slots.  Any other op may
#: change the job table, so it waits for the pass boundary, and only its
#: answer is kept for replay.  A new op is one entry here.
OPS: Dict[str, Tuple[Callable[[FleetDaemon, Dict], Dict], bool]] = {
    "ping": (FleetDaemon._op_ping, True),
    "status": (FleetDaemon._op_status, True),
    "metrics": (FleetDaemon._op_metrics, True),
    "health": (FleetDaemon._op_health, True),
    "series": (FleetDaemon._op_series, True),
    "submit": (FleetDaemon._op_submit, False),
    "preempt": (FleetDaemon._op_preempt, False),
    "drain": (FleetDaemon._op_drain, False),
    "stop": (FleetDaemon._op_stop, False),
}
READ_ONLY_OPS = frozenset(op for op, (_, reads) in OPS.items() if reads)


def _is_write(request: Dict) -> bool:
    """Whether ``request`` is an op that may change the job table.  An
    unknown op changes nothing: its error is answered like a read."""
    op = request.get("op")
    return isinstance(op, str) and op in OPS and op not in READ_ONLY_OPS


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class DaemonClient:
    """Talks to a :class:`FleetDaemon` over its socket server.

    ``control=DIR`` reaches the Unix socket ``DIR/daemon.sock`` (same host;
    file permissions are the auth, so no token).  ``connect="host:port"``
    (optional ``token``) reaches the TCP listener of a daemon started with
    ``listen=`` — no shared filesystem needed; it wins when both are given.

    Liveness is a connect that succeeds.  When the Unix connect fails the
    client reads ``daemon.json`` once: a ``stopped`` state or a stale
    heartbeat raises :class:`DaemonUnavailable` at once, naming the
    daemon's id, pid and heartbeat age; an absent or fresh one may belong
    to a daemon that is still starting, so the connect is retried every
    :data:`POLL_SECONDS` until the timeout.  A refused TCP connect, a
    refused handshake (bad auth) or a connection lost mid-request raises
    :class:`DaemonUnavailable`.
    """

    def __init__(
        self,
        control=None,
        timeout: float = 30.0,
        connect: "Optional[str | tuple]" = None,
        token: Optional[str] = None,
    ):
        if timeout <= 0:
            raise ConfigError(f"timeout must be > 0, got {timeout}")
        if control is None and connect is None:
            raise ConfigError(
                "DaemonClient needs a control directory or a connect address"
            )
        self.timeout = float(timeout)
        self.control: Optional[Path] = None
        if connect is None:
            self.control = Path(control)
            connect = self.control / SOCKET_NAME
        self._socket = SocketControlClient(
            connect, token=token, timeout=self.timeout
        )

    def close(self) -> None:
        """Release the cached connection."""
        self._socket.close()

    # -- liveness ---------------------------------------------------------------

    def _ping(self) -> Optional[Dict]:
        try:
            response = self._socket.request(
                {"op": "ping"}, timeout=self.timeout
            )
        except TransportError:
            return None
        return response if response.get("ok") else None

    def is_alive(self) -> bool:
        """Whether a daemon answers a ``ping`` now (one connect: no wait
        for a daemon that is still starting)."""
        return self._ping() is not None

    def daemon_meta(self) -> Optional[Dict]:
        """With ``control=``, the last ``daemon.json`` (still there after
        the daemon stopped or died); with ``connect=``, a ``ping`` answer.
        ``None`` when absent or unreachable."""
        if self.control is not None:
            return _read_control_meta(self.control)
        return self._ping()

    # -- request/response -------------------------------------------------------

    def _raise_if_gone(self, op: str) -> None:
        """After a failed connect: raise when ``daemon.json`` names a
        daemon that stopped or died, since nobody will ever answer.  Naming
        the pid and heartbeat age makes the failure actionable ("kill -0
        that pid") instead of a mute timeout."""
        meta = _read_control_meta(self.control)
        if meta is None:
            return  # no daemon.json yet: a daemon may be about to start
        age = time.time() - float(meta.get("heartbeat", 0.0))
        stale_after = _effective_stale_after(meta, STALE_AFTER_SECONDS)
        if meta.get("state") == STATE_STOPPED:
            why = "stopped"
        elif age >= stale_after:
            why = f"presumed dead (stale after {stale_after:.1f}s)"
        else:
            return  # fresh heartbeat: a daemon about to bind its socket
        raise DaemonUnavailable(
            f"no daemon answers at {self._socket.address}: daemon.json names "
            f"{meta.get('daemon_id')!r} (pid {meta.get('pid')}), {why}, last "
            f"heartbeat {age:.1f}s ago; request {op!r} abandoned"
        )

    def request(
        self,
        op: str,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        **payload,
    ) -> Dict:
        """One control-plane round trip; raises on timeout or dead daemon.

        ``deadline`` (explicit, or ambient via
        :func:`repro.reliability.deadline_scope`) caps the wait below
        ``timeout``: a caller that budgeted 5 s for a whole multi-request
        operation spends at most what is left of those 5 s here, and an
        already-spent budget raises
        :class:`~repro.errors.DeadlineExceeded` before any I/O.
        """
        timeout = self.timeout if timeout is None else float(timeout)
        if deadline is None:
            deadline = current_deadline()
        if deadline is not None:
            deadline.check(f"daemon request {op!r}")
            timeout = deadline.clamp(timeout)
        body = {"op": op, **payload}
        with obs_trace.span_scope(f"client.{op}"):
            # The trace context rides the request body: computed once
            # (inside the client span, so the daemon-side tree hangs off
            # it), and a resend after a dropped connection carries the
            # *same* context — the daemon joins this client's trace
            # exactly once per logical request.
            body[obs_trace.TRACE_KEY] = obs_trace.wire_context()
            give_up_at = time.monotonic() + timeout
            while True:
                try:
                    return self._socket.request(
                        body, timeout=max(give_up_at - time.monotonic(), 1e-3)
                    )
                except TransportError as exc:
                    if self.control is None or not isinstance(
                        exc, TransportConnectError
                    ):
                        raise DaemonUnavailable(
                            f"daemon at {self._socket.address} is "
                            f"unreachable for {op!r}: {exc}"
                        ) from exc
                    self._raise_if_gone(op)
                if time.monotonic() + POLL_SECONDS >= give_up_at:
                    break
                time.sleep(POLL_SECONDS)
        if deadline is not None and deadline.expired:
            deadline.check(f"daemon request {op!r}")
        raise ConfigError(
            f"daemon did not answer {op!r} within {timeout}s: nothing "
            f"accepts connections at {self._socket.address}"
        )

    # -- verbs ------------------------------------------------------------------

    def ping(self, timeout: Optional[float] = None) -> Dict:
        """Round-trip liveness probe: daemon state + current tick."""
        return self.request("ping", timeout=timeout)

    def submit(self, spec: Dict, timeout: Optional[float] = None) -> Dict:
        """Submit one job (keys: see :meth:`FleetJobSpec.from_wire`)."""
        return self.request("submit", timeout=timeout, spec=spec)

    def status(
        self, job_id: Optional[str] = None, timeout: Optional[float] = None
    ) -> Dict:
        """Daemon state plus per-job progress (one job with ``job_id``)."""
        return self.request("status", timeout=timeout, job=job_id)

    def preempt(
        self,
        job_id: Optional[str] = None,
        restart_delay_ticks: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict:
        """Kill one job's incarnation (or every running job's with
        ``job_id=None``); each reincarnates after the restart delay."""
        return self.request(
            "preempt",
            timeout=timeout,
            job=job_id,
            restart_delay_ticks=restart_delay_ticks,
        )

    def drain(
        self,
        wait: bool = True,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Dict:
        """Ask the daemon to finish its jobs and exit.

        With ``wait`` the call returns once the daemon refuses connections
        (or raises when the timeout elapses): its server closes after the
        last job finished, just before the final pool flush and the
        ``stopped`` write to ``daemon.json``.  A ``deadline`` bounds the
        *whole* drain — the request round trip and the stop-wait draw on
        one shared budget.
        """
        timeout = self.timeout if timeout is None else float(timeout)
        if deadline is None:
            deadline = current_deadline()
        if deadline is not None:
            timeout = deadline.clamp(timeout)
        response = self.request("drain", timeout=timeout, deadline=deadline)
        if not wait:
            return response
        give_up_at = time.monotonic() + timeout
        while time.monotonic() < give_up_at:
            if deadline is not None:
                deadline.check("daemon drain wait")
            try:
                self._socket.request({"op": "ping"}, timeout=min(2.0, timeout))
            except TransportConnectError:
                # "Drain acknowledged, now refusing connections" is the
                # client's observation of a finished drain.
                return {"ok": True, "state": STATE_STOPPED}
            except TransportError:
                # Answered-then-slow (long final passes): still draining,
                # keep waiting — a timeout is not an exit.
                pass
            time.sleep(POLL_SECONDS)
        raise ConfigError(f"daemon did not stop within {timeout}s")

    def stop(self, timeout: Optional[float] = None) -> Dict:
        """Immediate shutdown: queued saves flush, running jobs halt."""
        return self.request("stop", timeout=timeout)
