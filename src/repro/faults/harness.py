"""The crash/recover/resume loop (a supervisor process in miniature).

``run_with_failures`` drives a trainer to a target step count while injection
hooks kill it; after every crash a *fresh* trainer is constructed (process
memory is gone), resumed from the checkpoint store, and continued.  The
result quantifies exactly what checkpointing buys: wasted (re-executed) steps
versus the failure count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigError
from repro.faults.injector import SimulatedFailure


@dataclass
class FaultRunResult:
    """Accounting for one supervised run-to-completion."""

    target_steps: int
    failures: int = 0
    restores: int = 0
    steps_executed: int = 0
    final_step: int = 0
    resumed_from_steps: List[int] = field(default_factory=list)

    @property
    def wasted_steps(self) -> int:
        """Steps re-executed because their progress was lost to a crash."""
        return self.steps_executed - self.final_step


def run_with_failures(
    trainer_factory: Callable[[], "object"],
    store,
    manager_factory: Optional[Callable[["object"], "object"]],
    target_steps: int,
    failure_hooks: Sequence = (),
    max_failures: int = 1000,
) -> FaultRunResult:
    """Drive training to ``target_steps`` across crashes.

    ``manager_factory`` builds the checkpoint hook per incarnation from
    ``store`` (either store type; ``None`` disables checkpointing and
    resuming — the baseline); each incarnation resumes through that hook.
    ``failure_hooks`` are shared across incarnations so failure schedules
    continue over restarts.
    """
    if target_steps < 1:
        raise ConfigError(f"target_steps must be >= 1, got {target_steps}")
    result = FaultRunResult(target_steps=target_steps)

    while True:
        trainer = trainer_factory()
        hooks: List = []
        manager = None
        if manager_factory is not None:
            manager = manager_factory(store)
            hooks.append(manager)
            if manager.resume(trainer) is not None:
                result.restores += 1
                result.resumed_from_steps.append(trainer.step_count)
        hooks.extend(failure_hooks)

        remaining = target_steps - trainer.step_count
        if remaining <= 0:
            result.final_step = trainer.step_count
            return result
        start_step = trainer.step_count
        try:
            trainer.run(remaining, hooks=hooks)
            result.steps_executed += trainer.step_count - start_step
            result.final_step = trainer.step_count
            if manager is not None:
                # Terminal checkpoint so a later process can read the result.
                manager.save(trainer.capture())
                manager.close()
            return result
        except SimulatedFailure:
            result.steps_executed += trainer.step_count - start_step
            result.failures += 1
            if manager is not None:
                manager.close()
            if result.failures >= max_failures:
                raise ConfigError(
                    f"exceeded {max_failures} failures before reaching "
                    f"{target_steps} steps"
                )
