"""Workload ``fleet8_daemon``: a stream of tiny jobs through the daemon.

A ``FleetDaemon`` runs in a thread of this process over a socket transport
on ``127.0.0.1:0`` with a token and a ``WriterPool(2)``.  One client
connection (closed loop, fixed think time) keeps eight builtin ``classifier``
jobs in flight — an lr sweep on one seed, so jobs share blocks — polling
``status``, submitting a replacement whenever a job finishes, preempting all
running jobs a fixed number of times, and draining when the time is up.
Every job checkpoints after every step and a step is a few milliseconds of
mostly interpreter work, so the writer pool is saturated: its two workers
are busy four fifths of the time, a save waits 0.2 s in a full queue, and
per-save *fixed* cost (manifest, index, fsync, pool hand-off), the
scheduler's passes and the interpreter lock all three threads share set the
pace.  The state is about 4 KiB.

What is measured is the steady stream: from the first poll after a warm-up
(the queues fill) to the last poll before the drain.  After the drain every
job is recovered from the store's directory into a fresh trainer and
compared, bit for bit, with a bare reference run of the same job, whose
steps are also what the stream's time per step is set against.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.restore import WARM_START_TENSORS
from repro.service.daemon import (
    BUILTIN_WORKLOADS,
    DaemonClient,
    DaemonUnavailable,
    FleetDaemon,
)
from repro.service.manager import ServiceCheckpointManager
from repro.service.pool import WriterPool

from harness import (
    close_store,
    drop_kernel_caches,
    open_store,
    same_training_state,
    stored_bytes,
)
from probes import (
    PoolProbe,
    Recorder,
    TimingProxy,
    model_probe,
    optimizer_probe,
    percentile,
)

TOKEN = "e2e-bench"
WORKLOAD = "classifier"
#: Label of the pieces the daemon thread's tape is cut into (one per step).
DAEMON_PIECES = "daemon"
#: Samples the client thread takes of time the daemon thread spends.
CLIENT_SAMPLES = (
    "ctl_rtt",
    "service.transport.ping_rtt",
    "service.transport.submit_rtt",
    "service.daemon.submit_to_first_step",
    "service.daemon.preempt_to_resumed",
)


@dataclass(frozen=True)
class FleetConfig:
    width: int  # jobs kept in flight
    targets: Tuple[int, ...]  # target steps, one seeded permutation per wave
    qubits: int = 8
    layers: int = 1
    batch_size: int = 4
    pool_workers: int = 2
    poll_seconds: float = 0.05  # the client's think time between polls
    #: All running jobs are preempted this many times, evenly spaced over the
    #: measured stretch (by the clock, not by polls: a preemption costs the
    #: stream half a second of re-executed steps, so every run has to hold
    #: the same number of them).
    preemptions: int = 6
    ping_every_polls: int = 8
    #: The stream is measured from this share of ``--seconds`` on (before it
    #: the pool's queues are still filling: saves commit in 7 ms and steps
    #: run twice as fast as they ever will again) ...
    warmup_share: float = 0.12
    #: ... until ``--seconds`` are over; then the client stops replacing
    #: finished jobs and drains (the tail is no one's time, like the crash
    #: loops' reference runs).
    #: The daemon thread runs the yardstick after every this many steps.
    steps_per_piece: int = 4


CONFIGS = {
    "full": FleetConfig(width=8, targets=(16, 24, 32, 40, 48, 56, 64, 72)),
    "smoke": FleetConfig(
        width=3, targets=(8, 10, 12), qubits=4, batch_size=2, preemptions=1,
        poll_seconds=0.01,
    ),
}


@dataclass
class _Job:
    job_id: str
    params: Dict
    target: int
    submitted_at: float
    first_step_at: Optional[float] = None
    preempted_at: Optional[float] = None
    ticks: int = 0


class JobTrainerProbe(TimingProxy):
    """A job's trainer as the daemon sees it.  Every ``train_step`` is timed
    and reported to ``stepped`` (which cuts the daemon thread's tape); a
    ``restore`` ends the reincarnation that began when the factory was called
    (build the trainer, find and fetch the newest valid checkpoint, load
    it): one ``recover``."""

    def __init__(self, trainer, rec: Recorder, born: float, stepped):
        super().__init__(trainer, rec, {"capture": "core.snapshot.capture"})
        self._born = born
        self._stepped = stepped

    def train_step(self):
        with self._rec.timed("ml.trainer.train_step"):
            info = self._target.train_step()
        self._stepped()
        return info

    def restore(self, snapshot):
        with self._rec.timed("ml.trainer.restore"):
            self._target.restore(snapshot)
        self._rec.add("recover", time.perf_counter() - self._born)


class Fleet:
    def __init__(self, cfg: FleetConfig, seed: int, workdir: str,
                 rec: Recorder, corrupt: bool = False):
        self.cfg = cfg
        self.seed = int(seed)
        self.rec = rec
        self.corrupt = corrupt
        self.store_dir = os.path.join(workdir, "store")
        self.control_dir = os.path.join(workdir, "control")
        self.store = None
        self.pool = None
        self.thread: Optional[threading.Thread] = None
        self.client: Optional[DaemonClient] = None
        self.daemon_error: Optional[BaseException] = None
        self.steps = 0  # training steps the daemon thread has run, all jobs

    # -- set-up -------------------------------------------------------------------

    def setup(self) -> None:
        self.store = open_store(self.store_dir, self.rec, self.corrupt)
        self.pool = PoolProbe(WriterPool(self.cfg.pool_workers), self.rec)
        self.daemon = FleetDaemon(
            self.store,
            self.pool,
            self.control_dir,
            listen="127.0.0.1:0",
            auth_token=TOKEN,
            # The builtin recipe, with the trainer's steps timed.
            workloads={WORKLOAD: self._timed_builder},
        )
        self.thread = threading.Thread(
            target=self._serve, name="e2e-fleet-daemon", daemon=True
        )
        self.thread.start()
        # What the client waits for is the daemon's loop: its samples are read
        # against the daemon thread's yardstick, not the idle client's.
        for name in CLIENT_SAMPLES:
            self.rec.read_on[name] = self.thread.ident
        address = self._wait_for_address()
        self.client = DaemonClient(connect=address, token=TOKEN, timeout=60.0)
        self.client.ping()

    def _serve(self) -> None:
        try:
            self.daemon.serve()
        except BaseException as exc:  # reported by the main thread
            self.daemon_error = exc

    def _wait_for_address(self) -> str:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            address = self.daemon.listen_address
            if (
                self.daemon.state == "running"
                and address is not None
                and not address.endswith(":0")
            ):
                return address
            if self.daemon_error is not None:
                raise self.daemon_error
            time.sleep(0.001)
        raise RuntimeError("fleet daemon did not start listening")

    def _timed_builder(self, params: Dict):
        """The builtin ``classifier`` recipe behind a trainer proxy."""
        factory = BUILTIN_WORKLOADS[WORKLOAD](params)
        rec = self.rec

        def make():
            born = time.perf_counter()
            with rec.timed("ml.trainer.build"):
                trainer = factory()
            if rec.tracing:
                trainer.model = model_probe(trainer.model, rec)
                trainer.optimizer = optimizer_probe(trainer.optimizer, rec)
            return JobTrainerProbe(trainer, rec, born, self._stepped)

        return make

    def _stepped(self) -> None:
        """On the daemon thread, after every training step of any job."""
        self.steps += 1
        if self.steps % self.cfg.steps_per_piece == 0:
            self.rec.tick(DAEMON_PIECES)

    # -- the stream ---------------------------------------------------------------------

    def _job_params(self, index: int) -> Dict:
        return {
            "qubits": self.cfg.qubits,
            "layers": self.cfg.layers,
            "batch_size": self.cfg.batch_size,
            "lr": round(0.01 * (1 + index % self.cfg.width), 4),
            "seed": self.seed % (2**31),
        }

    def _submit(self, index: int, target: int) -> _Job:
        job = _Job(
            job_id=f"job{index:04d}",
            params=self._job_params(index),
            target=target,
            submitted_at=time.perf_counter(),
        )
        with self.rec.timed("service.transport.submit_rtt"):
            response = self.client.submit(
                {
                    "job_id": job.job_id,
                    "workload": WORKLOAD,
                    "target_steps": target,
                    "checkpoint_every": 1,
                    "params": job.params,
                }
            )
        self.rec.check(bool(response.get("ok")), f"submit {job.job_id}: {response}")
        return job

    def measure(self, seconds: float) -> None:
        rec, cfg, client = self.rec, self.cfg, self.client
        rng = np.random.default_rng([self.seed, 5])
        active: Dict[str, _Job] = {}
        finished: List[_Job] = []
        wave: List[int] = []
        submitted = 0
        polls = 0
        handle_ms = 0.0
        draining_since: Optional[float] = None
        warm: Optional[Tuple[float, int]] = None  # (when, useful steps so far)
        steady = (time.perf_counter(), 0)  # the same, at the last steady poll

        started = time.perf_counter()
        warm_from = started + cfg.warmup_share * seconds
        stop_submitting = started + seconds
        preempt_at = [
            warm_from + (k + 0.5) * (stop_submitting - warm_from) / cfg.preemptions
            for k in range(cfg.preemptions)
        ]
        while True:
            now = time.perf_counter()
            if draining_since is None and now < stop_submitting:
                while len(active) < cfg.width:
                    if not wave:
                        wave = [cfg.targets[i] for i in rng.permutation(len(cfg.targets))]
                    job = self._submit(submitted, wave.pop())
                    active[job.job_id] = job
                    submitted += 1
            elif draining_since is None:
                handle_ms = self._handle_ms()
                draining_since = time.perf_counter()
                response = client.request("drain")
                rec.check(bool(response.get("ok")), f"drain: {response}")
            try:
                with rec.timed("ctl_rtt"):
                    status = client.status()
            except DaemonUnavailable:
                # A drained daemon closes its transports on the way out.
                rec.check(draining_since is not None, "daemon went away mid-run")
                break
            rec.check(bool(status.get("ok")), f"status: {status}")
            now = time.perf_counter()
            self._observe(status, active, finished, now)
            if draining_since is None:
                # Useful progress while the stream is steady: the finished
                # jobs' targets plus where each job in flight has got to.
                progress = sum(job.target for job in finished) + sum(
                    int(status["jobs"].get(job_id, {}).get("step") or 0)
                    for job_id in active
                )
                steady = (now, progress)
                if warm is None and now >= warm_from:
                    warm = steady
            if status.get("state") == "stopped":
                break
            polls += 1
            if polls % cfg.ping_every_polls == 0 and draining_since is None:
                with rec.timed("service.transport.ping_rtt"):
                    client.ping()
            if draining_since is None and preempt_at and now >= preempt_at[0]:
                preempt_at.pop(0)
                response = client.preempt()
                rec.check(bool(response.get("ok")), f"preempt: {response}")
                hit = time.perf_counter()
                for job_id in response.get("preempted", ()):
                    if job_id in active:
                        active[job_id].preempted_at = hit
            time.sleep(cfg.poll_seconds)
        self.thread.join(timeout=120.0)
        stopped = time.perf_counter()
        rec.check(
            not self.thread.is_alive() and self.daemon_error is None,
            f"daemon did not stop cleanly: {self.daemon_error!r}",
        )
        self.client.close()
        # Every timing is the steady stream's: what was sampled while the
        # queues filled, or after the last poll before the drain (ever fewer
        # jobs in flight, an emptier pool), is dropped, as it is from the
        # goodput.
        warm = warm or (started, 0)
        rec.keep_only(warm[0], steady[0])
        # Jobs that finished between the last poll and the daemon's exit were
        # never seen as finished; the verification below holds them to their
        # target step like every other job.
        finished.extend(active.values())

        # The reference runs replay the jobs' own parameter trajectories;
        # they must not find the gate matrices the jobs left in the cache.
        drop_kernel_caches(rec)
        for job in finished:
            self._verify(job)
        self.finished, self.loop = finished, (started, stopped)
        self.warm, self.steady = warm, steady
        self.handle_ms, self.draining_since = handle_ms, draining_since

    def results(self) -> Dict:
        rec, cfg, finished = self.rec, self.cfg, self.finished
        started, stopped = self.loop
        draining_since = self.draining_since
        daemon = self.thread.ident
        # Everything is the steady stream's: the first poll after the warm-up
        # -> the last poll before the drain.  The drain's tail, with ever
        # fewer jobs in flight, says more about which targets happened to be
        # left than about the system.  The stream's time is the daemon
        # thread's: the pieces of its tape (a few training steps each, with
        # the scheduling, the hooks, the back-pressure and the requests served
        # in between).
        (steady_from, before), (steady_until, upto) = self.warm, self.steady
        useful = upto - before
        steady_wall, steady_own = rec.pieces_seconds(
            daemon, DAEMON_PIECES, steady_from, steady_until
        )
        first = finished[0].job_id if finished else None
        fetch_frac = 0.0
        if first is not None:
            full_plan = self.store.plan_restore(first)
            params_plan = self.store.plan_restore(first, names=WARM_START_TENSORS)
            fetch_frac = params_plan.fetch_bytes / full_plan.fetch_bytes
        return {
            "ops": useful,
            "loop_wall": steady_wall,
            "loop_seconds": steady_own,
            "request_s": percentile(rec.calibrated("ctl_rtt"), 50.0),
            # What the service adds to training: the stream's time per useful
            # step against a bare step of the same jobs (the hook-free
            # reference runs of the verification).
            "bare_op_s": percentile(rec.calibrated("bare_step"), 50.0),
            "foreground_op_s": steady_own / max(1, useful),
            "stored_bytes": stored_bytes(self.store),
            "threads_wall": None,
            "recover_parts": (
                "ml.trainer.build",
                "service.chunkstore.latest_valid",
                "ml.trainer.restore",
            ),
            "layers": {
                "ml.step_busy_frac": rec.total("ml.trainer.train_step") / steady_wall,
                "core.restore.params_fetch_bytes_frac": fetch_frac,
                "service.daemon.drain_s": (
                    stopped - draining_since if draining_since else 0.0
                ),
                "service.daemon.sched_share_skew": percentile(
                    rec.values["sched_skew"], 50.0
                ),
                "service.daemon.handle_ms": self.handle_ms,
            },
            "pool_workers": cfg.pool_workers,
            "info": {
                "jobs_finished": len(finished),
                "useful_steps_steady": useful,
                "seconds_to_daemon_exit": stopped - started,
                "status_polls": rec.n("ctl_rtt"),
                "reincarnations": rec.n("recover"),
                "saves": rec.n("save_commit"),
            },
        }

    def _observe(self, status: Dict, active: Dict[str, _Job],
                 finished: List[_Job], now: float) -> None:
        """Fold one ``status`` answer into the per-job timelines."""
        rec = self.rec
        gained = []
        for job_id, report in status.get("jobs", {}).items():
            job = active.get(job_id)
            if job is None:
                continue
            state = report.get("state")
            if job.first_step_at is None and (
                (report.get("step") or 0) >= 1 or state == "finished"
            ):
                job.first_step_at = now
                rec.add("service.daemon.submit_to_first_step", now - job.submitted_at)
            if job.preempted_at is not None and state in ("running", "finished"):
                rec.add("service.daemon.preempt_to_resumed", now - job.preempted_at)
                job.preempted_at = None
            ticks = int(report.get("ticks_scheduled") or 0)
            if state == "running" and job.ticks and ticks > job.ticks:
                gained.append(ticks - job.ticks)
            job.ticks = ticks
            if state == "finished":
                rec.check(
                    report.get("final_step") == job.target,
                    f"{job_id} finished at step {report.get('final_step')}",
                )
                finished.append(active.pop(job_id))
            elif state == "failed":
                rec.check(False, f"{job_id} failed: {report.get('error')}")
                active.pop(job_id)
        if len(gained) >= 2:
            # Equal-priority jobs should be granted equal ticks between polls.
            rec.observe("sched_skew", max(gained) / min(gained))

    def _handle_ms(self) -> float:
        """Mean daemon-side handling time of ``status``, from the public
        ``metrics`` op's ``daemon.handle_seconds`` histogram."""
        response = self.client.request("metrics")
        self.rec.check(bool(response.get("ok")), "metrics op failed")
        for series in response.get("metrics", {}).get("series", ()):
            if (
                series.get("name") == "daemon.handle_seconds"
                and series.get("labels", {}).get("op") == "status"
                and series.get("count")
            ):
                return 1e3 * series["sum"] / series["count"]
        return 0.0

    def _verify(self, job: _Job) -> None:
        """Recover the job from the directory into a fresh trainer; compare
        it with a bare run of the same job (whose steps are the reference the
        stream's time per step is set against)."""
        rec = self.rec
        factory = BUILTIN_WORKLOADS[WORKLOAD](job.params)
        reference = factory()
        for _ in range(job.target):
            with rec.timed("bare_step", tick="reference"):
                reference.train_step()
        # Not a sample of anything: the daemon is gone and the box is idle.
        store = open_store(self.store_dir, Recorder(tracing=False), self.corrupt)
        trainer = factory()
        manager = ServiceCheckpointManager(
            store, job.job_id, self.pool.channel(job.job_id)
        )
        ckpt_id = manager.resume(trainer)
        rec.check(
            ckpt_id is not None and same_training_state(trainer, reference),
            f"{job.job_id} does not restore bitwise to its reference run",
        )
        close_store(store)

    def close(self) -> None:
        if self.thread is not None and self.thread.is_alive():
            try:
                self.client.stop()
            except Exception:  # noqa: BLE001 - the daemon may already be gone
                pass
            self.thread.join(timeout=60.0)
        if self.client is not None:
            self.client.close()
        if self.pool is not None:
            self.pool.close()
        if self.store is not None:
            close_store(self.store)


def build(name: str, scale: str, seed: int, workdir: str, rec: Recorder,
          corrupt: bool) -> Fleet:
    return Fleet(CONFIGS[scale], seed, workdir, rec, corrupt)
