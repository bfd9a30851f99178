"""Fleet harness: a fixed fleet of training jobs over one checkpoint service.

The multi-tenant crash/recover/resume loop — a cluster scheduler in
miniature.  The loop itself is :class:`~repro.service.scheduler.Scheduler`
(one tick = one weighted round-robin pass over the runnable jobs, their
checkpoints flowing through a shared :class:`~repro.service.pool.WriterPool`
into a shared :class:`~repro.service.chunkstore.ChunkStore`); the harness is
the script that drives it to completion while scenario events from
:mod:`repro.faults.injector` disturb the fleet:

* :class:`~repro.faults.injector.PreemptionStorm` kills a set of jobs at one
  tick — their queued saves are abandoned (a dead process writes nothing),
  their channels die, and after a restart delay each job is *reincarnated
  from a fresh trainer* and restored from the newest valid checkpoint,
* :class:`~repro.faults.injector.Brownout` slows every store write for a
  window of ticks, which backs the writer pool up and engages each channel's
  backpressure policy.

The result quantifies exactly what the service buys a fleet: recovered-work
ratio, bytes written vs bytes deduped, per-job and fleet makespan.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.faults.injector import Brownout, PreemptionStorm
from repro.service.chunkstore import ChunkStore
from repro.service.pool import WriterPool
from repro.service.scheduler import FleetJobResult, FleetJobSpec, Scheduler
from repro.storage.backend import StorageBackend


class ThrottledBackend(StorageBackend):
    """Backend decorator adding a settable real delay to every write.

    The knob the brownout scenario turns — while the window is active every
    write to the shared store stalls, the pool's queues grow, and channel
    backpressure (block / drop-oldest / degrade) becomes observable.
    """

    def __init__(self, inner: StorageBackend):
        self.inner = inner
        self.write_delay_seconds = 0.0
        self.delayed_writes = 0
        self._counter_lock = threading.Lock()  # pool workers write concurrently

    def write(self, name: str, data: bytes) -> None:
        delay = self.write_delay_seconds
        if delay > 0:
            with self._counter_lock:
                self.delayed_writes += 1
            time.sleep(delay)
        self.inner.write(name, data)

    def read(self, name: str, into=None) -> bytes:
        kwargs = {} if into is None else {"into": into}
        return self.inner.read(name, **kwargs)

    @property
    def supports_read_into(self) -> bool:
        return self.inner.supports_read_into

    def tier_for(self, name: str):
        return self.inner.tier_for(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    def list(self, prefix: str = ""):
        return self.inner.list(prefix)

    def size(self, name: str) -> int:
        return self.inner.size(name)


@dataclass
class FleetResult:
    """Fleet-wide outcome of one harness run."""

    jobs: Dict[str, FleetJobResult]
    makespan_ticks: int
    wall_seconds: float
    logical_bytes: int
    physical_bytes: int
    manifest_bytes: int
    dedup_ratio: float
    pool_tasks: int
    events_fired: List[str] = field(default_factory=list)

    @property
    def total_lost_steps(self) -> int:
        """Steps lost to crashes across the whole fleet."""
        return sum(j.lost_steps for j in self.jobs.values())

    @property
    def recovered_work_ratio(self) -> float:
        """Fleet-wide fraction of pre-crash progress the store gave back."""
        recovered = sum(sum(j.resumed_from_steps) for j in self.jobs.values())
        lost = self.total_lost_steps
        if recovered + lost == 0:
            return 1.0
        return recovered / (recovered + lost)


class FleetHarness:
    """Drives a fixed fleet to completion across storms and brownouts.

    A script over one :class:`~repro.service.scheduler.Scheduler`
    (:attr:`scheduler`): submit every spec, then each tick apply that
    tick's scenario events and step the scheduler once.
    """

    def __init__(
        self,
        store: ChunkStore,
        pool: WriterPool,
        specs: Sequence[FleetJobSpec],
        events: Sequence = (),
        throttle: Optional[ThrottledBackend] = None,
        max_ticks: int = 100000,
    ):
        if not specs:
            raise ConfigError("fleet needs at least one job spec")
        ids = [spec.job_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate job ids in fleet: {ids}")
        self.store = store
        self.pool = pool
        self.scheduler = Scheduler(store, pool)
        self.specs = list(specs)
        self.events = list(events)
        self.throttle = throttle
        self.max_ticks = int(max_ticks)

    def run(self) -> FleetResult:
        """Drive every job to its target step; returns the fleet outcome.

        A spec whose id already has checkpoints in the store resumes from
        them.  Each tick applies scenario events (storms preempt, brownouts
        throttle), then steps the scheduler.  A job the scheduler parks
        ends the run: its exception is raised after that step.  Raises
        :class:`~repro.errors.ConfigError` if the fleet does not finish
        within ``max_ticks``.
        """
        started = time.perf_counter()
        scheduler = self.scheduler
        jobs = scheduler.jobs
        events_fired: List[str] = []
        for spec in self.specs:
            scheduler.submit(spec)
        while scheduler.active_jobs:
            tick = scheduler.tick
            if tick >= self.max_ticks:
                raise ConfigError(
                    f"fleet did not finish within {self.max_ticks} ticks"
                )
            for event in self.events:
                if isinstance(event, PreemptionStorm) and event.at_tick == tick:
                    for job in jobs.values():
                        if job.running and event.hits(job.spec.job_id):
                            scheduler.preempt(job, event.restart_delay_ticks)
                    events_fired.append(f"storm@{tick}")
                if isinstance(event, Brownout) and self.throttle is not None:
                    if tick == event.start_tick:
                        events_fired.append(f"brownout-on@{tick}")
                    if tick == event.end_tick:
                        events_fired.append(f"brownout-off@{tick}")
            if self.throttle is not None:
                # The slowest active window wins; overlapping brownouts
                # do not end each other early.
                self.throttle.write_delay_seconds = max(
                    (
                        event.write_delay_seconds
                        for event in self.events
                        if isinstance(event, Brownout)
                        and event.active_at(tick)
                    ),
                    default=0.0,
                )
            scheduler.step()
            for job in jobs.values():
                if job.error is not None:
                    raise job.error
        self.pool.drain()
        stats = self.store.stats
        return FleetResult(
            jobs={job_id: job.result for job_id, job in jobs.items()},
            makespan_ticks=scheduler.tick,
            wall_seconds=time.perf_counter() - started,
            logical_bytes=stats.logical_bytes,
            physical_bytes=stats.physical_bytes,
            manifest_bytes=stats.manifest_bytes,
            dedup_ratio=stats.dedup_ratio,
            pool_tasks=self.pool.stats.tasks,
            events_fired=events_fired,
        )
