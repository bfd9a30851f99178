"""Crash injection hooks and the simulated clock.

A "failure" here is what the storage layer actually observes in production:
the training process dies between two instructions.  Hooks raise
:class:`SimulatedFailure` from ``on_step_end``, which propagates out of
``Trainer.run`` exactly like a real crash unwinds the stack.

Hook ordering matters and is the caller's contract: place the
:class:`~repro.service.manager.ServiceCheckpointManager` *before* the crash
hook in the trainer's hook list so a checkpoint scheduled for the crashing step is
persisted first (the manager's write is atomic either way).
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

import numpy as np

from repro.errors import ConfigError, ReproError


class SimulatedFailure(ReproError):
    """Raised by injection hooks to emulate a process crash."""

    def __init__(self, step: int, reason: str = "injected failure"):
        super().__init__(f"{reason} at step {step}")
        self.step = step
        self.reason = reason


class SimulatedClock:
    """Manually advanced monotonic clock for deterministic experiments."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new reading."""
        if seconds < 0:
            raise ConfigError(f"cannot advance clock by {seconds} seconds")
        self._now += seconds
        return self._now


class CrashAtStep:
    """Hook that kills the run when ``trainer.step_count`` hits given steps."""

    def __init__(self, steps: "int | Iterable[int]"):
        if isinstance(steps, int):
            steps = [steps]
        self.steps: Set[int] = {int(s) for s in steps}
        if any(s < 1 for s in self.steps):
            raise ConfigError("crash steps must be >= 1")
        self.crashes = 0

    def on_step_end(self, trainer, info) -> None:
        if trainer.step_count in self.steps:
            self.steps.discard(trainer.step_count)
            self.crashes += 1
            raise SimulatedFailure(trainer.step_count, "CrashAtStep")


class PreemptionStorm:
    """Fleet-level event: a set of jobs is killed at one scheduler tick.

    The correlated-failure mode the service layer must survive: a spot-market
    reclaim or rack maintenance preempts many trainings at once, and they all
    restore (and often immediately re-checkpoint) against the same store.
    ``job_ids=None`` means every running job.  ``restart_delay_ticks`` models
    the scheduler's re-queue latency before a preempted job is reincarnated.
    """

    def __init__(
        self,
        at_tick: int,
        job_ids: Optional[Iterable[str]] = None,
        restart_delay_ticks: int = 0,
    ):
        if at_tick < 0:
            raise ConfigError(f"at_tick must be >= 0, got {at_tick}")
        if restart_delay_ticks < 0:
            raise ConfigError(
                f"restart_delay_ticks must be >= 0, got {restart_delay_ticks}"
            )
        self.at_tick = int(at_tick)
        self.job_ids = None if job_ids is None else {str(j) for j in job_ids}
        self.restart_delay_ticks = int(restart_delay_ticks)

    def hits(self, job_id: str) -> bool:
        """Whether this storm preempts ``job_id``."""
        return self.job_ids is None or job_id in self.job_ids


class Brownout:
    """Fleet-level event: storage writes slow down over a tick window.

    Models a shared-tier degradation (an object store running hot, a network
    partition healing) as an extra per-write delay during
    ``[start_tick, end_tick)``.  The fleet harness applies the delay to its
    store wrapper; the interesting system response is writer-pool queue
    growth and the backpressure policy engaging.
    """

    def __init__(self, start_tick: int, end_tick: int, write_delay_seconds: float):
        if start_tick < 0 or end_tick <= start_tick:
            raise ConfigError(
                f"brownout window [{start_tick}, {end_tick}) is invalid"
            )
        if write_delay_seconds < 0:
            raise ConfigError(
                f"write_delay_seconds must be >= 0, got {write_delay_seconds}"
            )
        self.start_tick = int(start_tick)
        self.end_tick = int(end_tick)
        self.write_delay_seconds = float(write_delay_seconds)

    def active_at(self, tick: int) -> bool:
        """Whether the brownout window covers ``tick``."""
        return self.start_tick <= tick < self.end_tick


class PoissonStepFailures:
    """Memoryless per-step failure process.

    Each completed step fails with probability ``p = 1 - exp(-dt / mtbf)``
    where ``dt`` is the step duration (measured, or ``fixed_step_seconds``).
    The process owns its generator so failure schedules are reproducible and
    independent of training randomness.
    """

    def __init__(
        self,
        mtbf_seconds: float,
        seed: int = 0,
        fixed_step_seconds: Optional[float] = None,
    ):
        if mtbf_seconds <= 0:
            raise ConfigError(f"MTBF must be > 0, got {mtbf_seconds}")
        if fixed_step_seconds is not None and fixed_step_seconds <= 0:
            raise ConfigError(
                f"fixed_step_seconds must be > 0, got {fixed_step_seconds}"
            )
        self.mtbf_seconds = float(mtbf_seconds)
        self.fixed_step_seconds = fixed_step_seconds
        self._rng = np.random.default_rng(seed)
        self.failures = 0

    def on_step_end(self, trainer, info) -> None:
        dt = (
            self.fixed_step_seconds
            if self.fixed_step_seconds is not None
            else info.seconds
        )
        p_fail = 1.0 - float(np.exp(-dt / self.mtbf_seconds))
        if self._rng.random() < p_fail:
            self.failures += 1
            raise SimulatedFailure(trainer.step_count, "PoissonStepFailures")
