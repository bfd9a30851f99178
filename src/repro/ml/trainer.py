"""Hook-based hybrid training loop with capturable state.

The trainer is the integration point for checkpointing: hooks receive every
completed step, and :meth:`Trainer.capture` / :meth:`Trainer.restore` convert
between live training state and :class:`repro.core.snapshot.TrainingSnapshot`.

Determinism contract: given equal (model, optimizer, config, initial params)
and equal snapshots, the continuation of training is *bitwise identical*.
Everything stochastic — shot sampling and batch shuffling — draws from
generators that the snapshot captures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.snapshot import TrainingSnapshot
from repro.errors import ConfigError
from repro.ml.dataset import ArrayDataset, BatchSampler
from repro.ml.rng import capture_rng_state, restore_rng_state
from repro.quantum import engines as _engines
from repro.quantum.kernels import prime_circuit_cache


@dataclass(frozen=True)
class TrainerConfig:
    """Static training configuration (not part of the snapshot).

    ``shard_workers`` >= 2 fans each step's gradient batch out across that
    many shard worker processes (:mod:`repro.quantum.engines.sharding`); 0
    or 1 forces in-process execution; ``None`` (the default) defers to the
    ambient :func:`repro.quantum.engines.execution_scope` (e.g. the fleet
    scheduler's per-job fan-out) and then ``QCKPT_SHARD_WORKERS``.  Sharded
    and in-process gradients are bitwise identical, so the determinism
    contract above is unaffected by the knob — it is pure wall-clock.
    """

    batch_size: int = 8
    seed: int = 1234
    shots: Optional[int] = None
    capture_statevector: bool = False
    shard_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.shots is not None and self.shots < 1:
            raise ConfigError(f"shots must be >= 1, got {self.shots}")
        if self.shard_workers is not None and self.shard_workers < 0:
            raise ConfigError(
                f"shard_workers must be >= 0, got {self.shard_workers}"
            )


@dataclass(frozen=True)
class StepInfo:
    """Per-step report delivered to hooks."""

    step: int
    loss: float
    grad_norm: float
    seconds: float


class Trainer:
    """Drives ``optimizer.step`` over ``model.loss_and_grad`` with hooks."""

    def __init__(
        self,
        model,
        optimizer,
        dataset: Optional[ArrayDataset] = None,
        config: Optional[TrainerConfig] = None,
        params: Optional[np.ndarray] = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.dataset = dataset
        self.config = config or TrainerConfig()
        self.rng = np.random.default_rng(self.config.seed)
        if params is None:
            params = model.init_params(self.rng)
        self.params = np.array(params, dtype=np.float64, copy=True)
        if self.params.shape != (model.n_params,):
            raise ConfigError(
                f"params shape {self.params.shape} does not match model "
                f"({model.n_params} parameters)"
            )
        self.sampler = (
            BatchSampler(len(dataset), self.config.batch_size, seed=self.config.seed + 1)
            if dataset is not None
            else None
        )
        ansatz = getattr(model, "ansatz", None)
        if ansatz is not None and ansatz.n_params <= self.params.size:
            # Warm the execution engine's matrix cache so the first step does
            # not pay cold builds for the ansatz's fixed/constant gates.
            prime_circuit_cache(ansatz, self.params)
            if self.config.shard_workers is not None and self.config.shard_workers >= 2:
                # Same warm-up inside each shard worker process: cold per-
                # worker matrix caches would otherwise tax the first step.
                from repro.quantum.engines import sharding

                sharding.prime_worker_caches(
                    ansatz, self.params, workers=self.config.shard_workers
                )
        self.step_count = 0
        self.loss_history: List[float] = []
        self.wall_time = 0.0

    # -- stepping --------------------------------------------------------------

    def train_step(self) -> StepInfo:
        """Run one optimization step and return its report."""
        started = time.perf_counter()
        batch = None
        if self.dataset is not None:
            batch = self.dataset.batch(self.sampler.next_batch())
        with _engines.execution_scope(shard_workers=self.config.shard_workers):
            loss, grads = self.model.loss_and_grad(
                self.params, batch, shots=self.config.shots, rng=self.rng
            )
        self.params = self.optimizer.step(self.params, grads)
        self.step_count += 1
        self.loss_history.append(float(loss))
        seconds = time.perf_counter() - started
        self.wall_time += seconds
        return StepInfo(
            step=self.step_count,
            loss=float(loss),
            grad_norm=float(np.linalg.norm(grads)),
            seconds=seconds,
        )

    def run(self, n_steps: int, hooks: Sequence = ()) -> List[StepInfo]:
        """Run ``n_steps`` steps, delivering each report to every hook.

        Hooks are duck-typed: any of ``on_run_start(trainer)``,
        ``on_step_end(trainer, info)``, ``on_run_end(trainer)`` are called if
        present.  Exceptions from hooks propagate (that is how failure
        injection crashes a run), but ``on_run_end`` always fires so async
        writers can drain.
        """
        if n_steps < 0:
            raise ConfigError(f"n_steps must be >= 0, got {n_steps}")
        for hook in hooks:
            handler = getattr(hook, "on_run_start", None)
            if handler is not None:
                handler(self)
        reports = []
        try:
            for _ in range(n_steps):
                info = self.train_step()
                reports.append(info)
                for hook in hooks:
                    handler = getattr(hook, "on_step_end", None)
                    if handler is not None:
                        handler(self, info)
        finally:
            for hook in hooks:
                handler = getattr(hook, "on_run_end", None)
                if handler is not None:
                    handler(self)
        return reports

    # -- snapshot interface -------------------------------------------------------

    def capture(self, lite: bool = False) -> TrainingSnapshot:
        """Capture complete training state into a snapshot (deep copies).

        With ``capture_statevector`` enabled the model's warm-start cache is
        included: a pure-state model contributes its ``statevector``; a
        density-matrix model (e.g. :class:`repro.ml.models.NoisyVQEModel`)
        contributes ``extra["density_matrix"]`` instead.

        ``lite`` skips the (re-derivable) warm-start cache even when capture
        is configured — the cheap degraded snapshot the service writer pool
        falls back to under backpressure, and what fleet jobs write as their
        restore-validation save.  A lite snapshot restores to bitwise-equal
        training state; only the warm-start cache must be recomputed.
        """
        statevector = None
        extra = {}
        if self.config.capture_statevector and not lite:
            provider = getattr(self.model, "statevector", None)
            if provider is not None:
                statevector = provider(self.params)
            else:
                density_provider = getattr(self.model, "density_matrix", None)
                if density_provider is not None:
                    extra["density_matrix"] = density_provider(self.params)
        return TrainingSnapshot(
            step=self.step_count,
            params=self.params.copy(),
            optimizer_state=self.optimizer.state_dict(),
            rng_state=capture_rng_state(self.rng),
            model_fingerprint=self.model.fingerprint(),
            sampler_state=self.sampler.state() if self.sampler else None,
            loss_history=np.array(self.loss_history, dtype=np.float64),
            statevector=statevector,
            wall_time=self.wall_time,
            extra=extra,
        )

    def warm_start(self, params: np.ndarray) -> None:
        """Adopt parameters only; everything else stays a fresh run.

        The cheap half of the restore planner's split: architecture-search
        and cross-validation workloads seed a *new* training run from a
        previous run's parameters without transferring (or re-applying)
        optimizer slots, RNG streams, sampler position, or the warm-start
        statevector cache.  Unlike :meth:`restore` this resets the run
        counters (step count, loss history, wall time) — a warm-started run
        is a new run, not a resumed one — and performs no fingerprint check
        beyond the parameter shape (donor and recipient architectures need
        only agree on the parameter vector).  Optimizer, RNG, and sampler
        state are left as constructed: pass a freshly built trainer for a
        clean run.
        """
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.model.n_params,):
            raise ConfigError(
                f"warm-start params shape {params.shape} does not match "
                f"model ({self.model.n_params} parameters)"
            )
        self.params = params.copy()
        self.step_count = 0
        self.loss_history = []
        self.wall_time = 0.0

    def restore(self, snapshot: TrainingSnapshot) -> None:
        """Restore a snapshot, refusing incompatible model structures."""
        snapshot.check_compatible(self.model.fingerprint())
        if snapshot.params.shape != (self.model.n_params,):
            raise ConfigError(
                f"snapshot params shape {snapshot.params.shape} does not "
                f"match model ({self.model.n_params} parameters)"
            )
        self.params = snapshot.params.copy()
        self.optimizer.load_state_dict(snapshot.optimizer_state)
        restore_rng_state(self.rng, snapshot.rng_state)
        if snapshot.sampler_state is not None:
            if self.sampler is None:
                raise ConfigError(
                    "snapshot has sampler state but trainer has no dataset"
                )
            self.sampler.restore_state(snapshot.sampler_state)
        self.step_count = snapshot.step
        self.loss_history = [float(x) for x in snapshot.loss_history]
        self.wall_time = snapshot.wall_time

    @property
    def last_loss(self) -> Optional[float]:
        """Most recent training loss, if any step has run."""
        return self.loss_history[-1] if self.loss_history else None
