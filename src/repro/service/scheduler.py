"""The fleet scheduler: one job table, one tick loop, two drivers.

A :class:`Scheduler` owns every job running over one shared
:class:`~repro.service.chunkstore.ChunkStore` and
:class:`~repro.service.pool.WriterPool` and everything that starts,
preempts, recovers, advances or parks one; each :meth:`Scheduler.step` is
one tick.  Nothing here knows who is driving:
:class:`~repro.service.fleet.FleetHarness` submits a fixed fleet and steps
it to completion under scripted storms and brownouts;
:class:`~repro.service.daemon.FleetDaemon` submits and preempts on behalf of
control-plane requests between passes and answers reads between a pass's
training-step slots.  Crash semantics (abandoned queues, the wait for an
in-flight save, restore-validation saves), priorities and parking of failed
jobs are therefore the same whichever one runs the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, get_type_hints

from repro.core.policy import EveryKSteps
from repro.errors import ConfigError, ReproError
from repro.ml.catalogue import checked
from repro.service.chunkstore import ChunkStore
from repro.service.manager import ServiceCheckpointManager
from repro.service.pool import PoolChannel, WriterPool

#: What a job's save channel does when its queue is full.
BACKPRESSURE_POLICIES = ("block", "drop-oldest", "degrade")
RESTORE_MODES = ("exact", "warm-start")


@dataclass(frozen=True)
class FleetJobSpec:
    """Static description of one job in the fleet.

    ``restore_mode`` selects how a preempted job reincarnates: ``"exact"``
    resumes bitwise from the newest valid checkpoint; ``"warm-start"``
    fetches only the parameter blocks through the restore planner and
    restarts a fresh run from them (the architecture-search/cross-validation
    pattern — a warm-started incarnation redoes its steps from better
    parameters, so its step count restarts at zero).

    ``priority`` is the job's scheduling weight under the scheduler's
    weighted round-robin: a priority-2 job receives ~2x the training ticks
    of a priority-1 neighbour while both are runnable.  ``cadence_offset``
    holds the job's first training step back until that scheduler tick
    (a staggered sweep); the job is started — and takes its start-up
    checkpoint — when submitted.

    ``shard_workers`` >= 2 fans this job's gradient batches out across that
    many shard worker processes (:mod:`repro.quantum.engines.sharding`) by
    wrapping every training step in the ambient execution scope; 0 (the
    default) sets no scope, leaving the trainer config / environment
    resolution in effect.  A trainer whose own config sets the knob
    explicitly overrides the spec.  Sharded gradients are bitwise identical
    to in-process ones, so the fleet's determinism guarantees are unchanged.

    ``max_pending`` bounds the job's save queue; ``backpressure`` (one of
    :data:`BACKPRESSURE_POLICIES`) says what a save into a full one does.
    """

    job_id: str
    trainer_factory: Callable[[], "object"]
    target_steps: int
    checkpoint_every: int = 1
    cadence_offset: int = 0
    max_pending: int = 2
    backpressure: str = "block"
    save_on_start: bool = True
    restore_mode: str = "exact"
    priority: int = 1
    shard_workers: int = 0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigError("job_id must be a non-empty string")
        for key, least in _LEAST.items():
            if getattr(self, key) < least:
                raise ConfigError(
                    f"{key} must be >= {least}, got {getattr(self, key)}"
                )
        for key, allowed in _ONE_OF.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(
                    f"{key} must be one of {allowed}, "
                    f"got {getattr(self, key)!r}"
                )

    @classmethod
    def from_wire(cls, wire, workloads: Mapping) -> "FleetJobSpec":
        """The spec a submission describes: the only parser of one.

        Its keys (:data:`WIRE_KEYS`) are the spec's fields, with
        ``workload`` (a name in ``workloads``, default ``"classifier"``)
        and ``params`` in place of ``trainer_factory``; ``cadence_offset``
        is harness-only.  An unknown or missing key, or a value of the
        wrong type, is a :class:`~repro.errors.ConfigError` naming it.
        """
        wire = dict(checked("spec", wire, dict))
        unknown = sorted(set(wire) - set(WIRE_KEYS))
        if unknown:
            raise ConfigError(
                f"unknown submission key {unknown[0]!r} (have: {WIRE_KEYS})"
            )
        name = checked("workload", wire.pop("workload", "classifier"), str)
        if name not in workloads:
            raise ConfigError(
                f"unknown workload {name!r} (have: {sorted(workloads)})"
            )
        params = checked("params", wire.pop("params", {}), dict)
        factory = workloads[name](params)
        try:
            return cls(
                trainer_factory=factory,
                **{
                    key: checked(key, value, _FIELD_TYPES[key])
                    for key, value in wire.items()
                },
            )
        except TypeError as exc:  # a field with no default is missing
            raise ConfigError(f"submission: {exc}") from None


#: The least value of each integer field, and the values of each choice.
_LEAST = dict(
    target_steps=1, checkpoint_every=1, cadence_offset=0, max_pending=1,
    priority=1, shard_workers=0,
)
_ONE_OF = dict(backpressure=BACKPRESSURE_POLICIES, restore_mode=RESTORE_MODES)
#: The spec's fields a submission carries, by type: a harness alone sets
#: ``trainer_factory`` and ``cadence_offset`` (a daemon job starts when
#: submitted).
_FIELD_TYPES = {
    key: kind
    for key, kind in get_type_hints(FleetJobSpec).items()
    if key not in ("trainer_factory", "cadence_offset")
}
#: The keys of a submission (see :meth:`FleetJobSpec.from_wire`).
WIRE_KEYS = tuple(_FIELD_TYPES) + ("workload", "params")


@dataclass
class FleetJobResult:
    """Per-job outcome."""

    job_id: str
    final_step: int = 0
    steps_executed: int = 0
    preemptions: int = 0
    restores: int = 0
    lost_steps: int = 0
    abandoned_saves: int = 0
    degraded_saves: int = 0
    dropped_saves: int = 0
    resumed_from_steps: List[int] = field(default_factory=list)
    finish_tick: Optional[int] = None

    @property
    def wasted_steps(self) -> int:
        """Steps executed beyond the final step (redone after crashes)."""
        return self.steps_executed - self.final_step

    @property
    def recovered_work_ratio(self) -> float:
        """Fraction of pre-crash progress the store gave back, averaged."""
        if not self.preemptions:
            return 1.0
        recovered = sum(self.resumed_from_steps)
        lost = self.lost_steps
        executed_at_crashes = recovered + lost
        if executed_at_crashes == 0:
            return 1.0
        return recovered / executed_at_crashes


class _JobRuntime:
    """Mutable state of one job incarnation inside the scheduler."""

    def __init__(self, spec: FleetJobSpec):
        self.spec = spec
        self.trainer = None
        self.manager: Optional[ServiceCheckpointManager] = None
        self.channel: Optional[PoolChannel] = None
        self.result = FleetJobResult(job_id=spec.job_id)
        self.down_until: Optional[int] = None  # tick when restart is allowed
        self.dead_channel: Optional[PoolChannel] = None
        self.steps_at_crash = 0
        self.done = False
        self.error: Optional[ReproError] = None  # what parked the job
        # Stride-scheduling state: the virtual "pass" this job has consumed
        # (advances by 1/priority per scheduled tick) and the number of
        # ticks it was actually scheduled for.
        self.sched_pass = 0.0
        self.ticks_scheduled = 0

    @property
    def running(self) -> bool:
        """Whether a live incarnation exists (not finished, parked or down)."""
        return not self.done and self.trainer is not None

    @property
    def state(self) -> str:
        if self.done:
            return "failed" if self.error is not None else "finished"
        return "down" if self.trainer is None else "running"


class Scheduler:
    """Job table plus tick loop over one store and one writer pool."""

    def __init__(self, store: ChunkStore, pool: WriterPool):
        self.store = store
        self.pool = pool
        self.tick = 0
        self.jobs: Dict[str, _JobRuntime] = {}
        self._sched_clock = 0.0  # least pass among the jobs still running

    # -- the three verbs ---------------------------------------------------------

    def submit(self, spec: FleetJobSpec) -> _JobRuntime:
        """Start ``spec`` now and enter it into the loop.

        An id that ever checkpointed into the store *resumes* its history
        (one point query under a metadata index) — a finished or parked
        job of the same id is replaced by the new incarnation, and one the
        store restores at or past ``target_steps`` is finished where it
        stands, without a step.  Whatever
        the start raises (a failing restore, a dead store) propagates and
        the job is not entered.
        """
        existing = self.jobs.get(spec.job_id)
        if existing is not None and not existing.done:
            raise ConfigError(f"job {spec.job_id!r} is already active")
        job = _JobRuntime(spec)
        resumable = self.store.has_checkpoints(spec.job_id)
        self._start_job(job, fresh=not resumable)
        if job.trainer.step_count >= spec.target_steps:
            self._finish_job(job)  # the store already holds the whole run
        self._sched_join(job)
        self.jobs[spec.job_id] = job
        return job

    def preempt(self, job: _JobRuntime, delay: int) -> None:
        """Kill ``job``'s incarnation; it reincarnates ``delay`` ticks after
        the next one."""
        # Record the crash point so recovery can compute the loss.
        job.steps_at_crash = job.trainer.step_count if job.trainer else 0
        job.result.preemptions += 1
        self._absorb_channel_stats(job)
        if job.channel is not None:
            job.result.abandoned_saves += job.channel.abandon()
        job.trainer = None
        job.manager = None
        job.dead_channel = job.channel
        job.channel = None
        job.down_until = self.tick + 1 + delay

    def step(self, between: Optional[Callable[[], None]] = None) -> bool:
        """One scheduler pass; returns whether any job advanced.

        ``between`` runs after every training-step slot, on this thread; it
        may read the job table but must not change it.
        """
        progressed = False
        # 1. reincarnate preempted jobs whose delay elapsed
        for job in self.jobs.values():
            if (
                not job.done
                and job.trainer is None
                and job.down_until is not None
                and self.tick >= job.down_until
            ):
                try:
                    self._recover_job(job)
                    self._sched_join(job)
                except ReproError as exc:
                    # A failed restore must not take the fleet (or its
                    # neighbours) down: park this job, keep going.
                    self._park_failed(job, exc)
                progressed = True
        # 2. advance runnable jobs by weighted round-robin (stride
        # scheduling).  The pass grants as many training-step slots as
        # there are runnable jobs, but each slot goes to the runnable job
        # with the *smallest virtual pass*, and a scheduled job's pass
        # advances by 1/priority.  Shares therefore converge to the
        # priority ratio, and a waiting job's pass stands still, which
        # bounds how long it can be passed over: starvation-free.
        runnable = []
        for job in self.jobs.values():
            if job.running and self.tick >= job.spec.cadence_offset:
                if self.tick == job.spec.cadence_offset:
                    self._sched_join(job)  # held back so far: no catching up
                runnable.append(job)
        for _ in range(len(runnable)):
            job = min(runnable, key=lambda j: (j.sched_pass, j.spec.job_id))
            job.sched_pass += 1.0 / job.spec.priority
            job.ticks_scheduled += 1
            progressed = True
            try:
                self._advance_job(job)
            except ReproError as exc:
                self._park_failed(job, exc)
            if between is not None:
                between()
            if not job.running:
                runnable.remove(job)
                if not runnable:
                    break
        if runnable:
            self._sched_clock = min(job.sched_pass for job in runnable)
        self.tick += 1
        return progressed

    @property
    def active_jobs(self) -> int:
        # A snapshot first: the daemon's heartbeat thread reads this while
        # the scheduler thread may be entering a newly submitted job.
        return sum(1 for job in list(self.jobs.values()) if not job.done)

    # -- lifecycle of one job ------------------------------------------------------

    def _start_job(self, job: _JobRuntime, fresh: bool) -> None:
        spec = job.spec
        job.trainer = spec.trainer_factory()
        job.channel = self.pool.channel(
            spec.job_id,
            max_pending=spec.max_pending,
            backpressure=spec.backpressure,
        )
        job.manager = ServiceCheckpointManager(
            self.store,
            spec.job_id,
            job.channel,
            policy=EveryKSteps(spec.checkpoint_every),
        )
        restored_step = 0
        adopted = False
        if not fresh:
            # All reincarnation restores run through the unified pipeline:
            # exact resume reassembles the full tensor set; warm start plans
            # only the parameter blocks.  Either walks past damaged
            # checkpoints to the newest restorable one.
            ckpt_id = job.manager.resume(job.trainer, mode=spec.restore_mode)
            adopted = ckpt_id is not None
            # A warm-started trainer restarts at step 0 by design, so its
            # recovered step count is 0 even though its parameters came
            # from a checkpoint.
            restored_step = job.trainer.step_count if adopted else 0
            job.result.restores += 1
            job.result.resumed_from_steps.append(restored_step)
        warm_adopted = adopted and spec.restore_mode == "warm-start"
        if spec.save_on_start and (fresh or restored_step > 0 or warm_adopted):
            # Restore-validation save: prove the write path before burning
            # compute.  On a resume this is free — every block dedups against
            # the checkpoint just read.
            job.manager.save(job.trainer.capture(lite=True))
        job.down_until = None

    def _absorb_channel_stats(self, job: _JobRuntime) -> None:
        if job.channel is not None:
            job.result.dropped_saves += job.channel.stats.dropped
            job.result.degraded_saves += job.channel.stats.degraded

    def _recover_job(self, job: _JobRuntime) -> None:
        if job.dead_channel is not None:
            # Let the dead incarnation's in-flight save (if any) commit
            # before the reincarnation allocates its first sequence number:
            # checkpoint sequence order then always matches commit order.
            job.dead_channel.wait_idle(timeout=60.0)
            job.dead_channel = None
        self._start_job(job, fresh=False)
        recovered = job.result.resumed_from_steps[-1]
        job.result.lost_steps += max(0, job.steps_at_crash - recovered)

    def _advance_job(self, job: _JobRuntime) -> None:
        """One training step for a running job."""
        from repro.quantum import engines

        with engines.execution_scope(
            shard_workers=job.spec.shard_workers or None
        ):
            info = job.trainer.train_step()
        job.result.steps_executed += 1
        job.manager.on_step_end(job.trainer, info)
        if job.trainer.step_count >= job.spec.target_steps:
            # Terminal checkpoint (unless the cadence just saved this
            # exact step) + drain, then release the channel.
            if job.trainer.step_count % job.spec.checkpoint_every != 0:
                job.manager.save(job.trainer.capture())
            self._finish_job(job)

    def _finish_job(self, job: _JobRuntime) -> None:
        job.manager.close()
        self._absorb_channel_stats(job)
        job.result.final_step = job.trainer.step_count
        job.result.finish_tick = self.tick
        job.done = True

    def _park_failed(self, job: _JobRuntime, exc: ReproError) -> None:
        """Terminal failure of one job: record it, release its resources.

        The channel is abandoned (crash semantics) so the pool hands a
        *fresh* channel — with no stale queue or pending error — to any
        later resubmission of the same job id.
        """
        job.error = exc
        job.result.finish_tick = self.tick
        job.done = True
        self._absorb_channel_stats(job)
        if job.channel is not None:
            job.channel.abandon()
            job.channel = None
        job.manager = None
        job.trainer = None
        job.dead_channel = None

    # -- stride scheduling ---------------------------------------------------------

    def _sched_join(self, job: _JobRuntime) -> None:
        """Enter ``job`` into the weighted scheduler at the current clock.

        A job joining (fresh submission) or re-joining (reincarnation, the
        end of its cadence offset) starts at the scheduler's virtual time —
        level with the incumbent that has waited longest — instead of its
        own frozen pass: otherwise a job that sat out 500 ticks would
        monopolize the loop "catching up" and starve every incumbent.
        """
        job.sched_pass = max(job.sched_pass, self._sched_clock)
