"""Workloads ``vqe12_crashloop`` and ``vqe16_bigstate``: the paper's loop.

One training thread runs VQE steps with the service checkpoint hook attached
(``WriterPool(1)`` + ``ServiceCheckpointManager`` + a policy), is crashed on
a seeded schedule, reopens the store from its directory, resumes, and goes
on until the time is up.  A hook-free reference run of the same seed — run
in short pauses of the loop, so both see the same machine weather — supplies
both the bare step time and the state the crash-looped run must end in, bit
for bit.

Closed loop: the one training thread waits for its own step and its own
hook; the writer pool's single worker is the program's.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.policy import EveryKSteps, YoungDalyPolicy
from repro.core.restore import WARM_START_TENSORS
from repro.ml.models import VQEModel
from repro.ml.optimizers import Adam
from repro.ml.trainer import Trainer, TrainerConfig
from repro.quantum.observables import Hamiltonian
from repro.quantum.templates import hardware_efficient
from repro.service.manager import ServiceCheckpointManager
from repro.service.pool import WriterPool

from harness import (
    close_store,
    drop_kernel_caches,
    open_store,
    same_training_state,
    stored_bytes,
    stratified_gaps,
)
from probes import (
    ChannelProbe,
    Recorder,
    model_probe,
    optimizer_probe,
    percentile,
    trainer_probe,
)

JOB_ID = "vqe"
#: Share of ``--seconds`` the reference run spends before the loop (it
#: calibrates the policy's MTBF); the rest of the reference runs in pauses of
#: the loop, catching up with the furthest step the loop has reached.
REFERENCE_BEFORE_SHARE = 0.1
#: The loop pauses for the reference after this much of its own time, or
#: this many bare steps' worth if that is longer (a pause lets the in-flight
#: save land, so pausing every other step would hide the save's contention).
PAUSE_EVERY_SECONDS = 0.5
PAUSE_EVERY_STEPS = 8
#: The reference drops the engine's gate-matrix caches after this many of its
#: steps, about as often as the loop's pauses and crashes drop the loop's.
#: Every step adds some hundred entries no later step finds again (the
#: parameters have moved on), so a stretch of 170 12-qubit steps fills both
#: caches: 12 MiB.  A stretch measured in seconds would put the speed of the
#: machine into ``peak_rss_mb``.
REFERENCE_DROP_EVERY_STEPS = 32


class LoopClock:
    """Monotonic seconds of the loop's own time: wall time minus the pauses
    in which the loop stood still (for the reference run, for the yardstick).
    The checkpoint policy and the manager read this clock, so a pause neither
    triggers a checkpoint nor counts as time between two."""

    def __init__(self) -> None:
        self._paused = 0.0

    def __call__(self) -> float:
        return time.monotonic() - self._paused

    def pause(self, seconds: float) -> None:
        self._paused += seconds


@dataclass(frozen=True)
class CrashLoopConfig:
    n_qubits: int
    n_layers: int
    policy: str  # "young-daly" | "every-step"
    gap_mean: float  # crash gap in executed steps (exponential, clipped)
    gap_low: int
    gap_high: int
    lr: float = 0.05
    initial_cost_estimate: float = 0.01  # Young-Daly prior, seconds
    #: Crash-and-recover rounds after the loop (outside its time): the same
    #: procedure on the final store, so the recovery medians rest on enough
    #: samples to repeat.
    recovery_drills: int = 2


CONFIGS: Dict[str, Dict[str, CrashLoopConfig]] = {
    "vqe12_crashloop": {
        "full": CrashLoopConfig(12, 4, "young-daly", 60.0, 20, 180, recovery_drills=60),
        "smoke": CrashLoopConfig(6, 2, "young-daly", 60.0, 20, 180),
    },
    "vqe16_bigstate": {
        "full": CrashLoopConfig(16, 1, "every-step", 20.0, 10, 35, recovery_drills=40),
        "smoke": CrashLoopConfig(14, 1, "every-step", 4.0, 2, 6),
    },
}


class CrashLoop:
    def __init__(self, cfg: CrashLoopConfig, seed: int, workdir: str,
                 rec: Recorder, corrupt: bool = False):
        self.cfg = cfg
        self.seed = int(seed)
        self.rec = rec
        self.corrupt = corrupt
        self.store_dir = os.path.join(workdir, "store")
        self.store = None
        self.pool: Optional[WriterPool] = None
        self.clock = LoopClock()

    # -- set-up -------------------------------------------------------------------

    def setup(self) -> None:
        cfg = self.cfg
        self.model = VQEModel(
            hardware_efficient(cfg.n_qubits, cfg.n_layers),
            Hamiltonian.transverse_field_ising(cfg.n_qubits, 1.0, 0.8),
        )
        self.reference = self._make_trainer(probed=False)
        self.gaps = stratified_gaps(
            np.random.default_rng([self.seed, 1]),
            cfg.gap_mean, cfg.gap_low, cfg.gap_high,
        )
        self._open_storage()
        self.trainer = self._make_trainer(probed=True)

    def _make_trainer(self, probed: bool) -> Trainer:
        # The seed fixes the initial parameters (drawn from the trainer's
        # generator); the program only ever sees this generated input.
        model, optimizer = self.model, Adam(lr=self.cfg.lr)
        if probed and self.rec.tracing:
            model = model_probe(model, self.rec)
            optimizer = optimizer_probe(optimizer, self.rec)
        return Trainer(
            model,
            optimizer,
            config=TrainerConfig(seed=self.seed, capture_statevector=True),
        )

    def _open_storage(self) -> None:
        """The store, reopened from its directory, and a pool to write it."""
        self.store = open_store(self.store_dir, self.rec, self.corrupt)
        self.pool = WriterPool(1)
        self.channel = ChannelProbe(self.pool.channel(JOB_ID), self.rec)

    def _attach_manager(self) -> None:
        """The checkpoint hook; its policy needs the calibrated MTBF."""
        if self.cfg.policy == "every-step":
            self.policy = EveryKSteps(1)
        else:
            self.policy = YoungDalyPolicy(
                mtbf_seconds=self.mtbf_seconds,
                initial_cost_estimate=self.cfg.initial_cost_estimate,
                clock=self.clock,
            )
        self.manager = ServiceCheckpointManager(
            self.store, JOB_ID, self.channel, policy=self.policy, clock=self.clock
        )

    # -- the reference run ----------------------------------------------------------

    def _reference_steps(self, until_step: Optional[int], seconds: float) -> None:
        """Bare ``train_step`` calls on the hook-free reference trainer.

        The engine's gate-matrix caches are dropped before and after: the
        reference and the loop walk the same parameter trajectory, so
        whichever came second would find every matrix the first one built,
        and would look faster than any real run is.  They are dropped every
        ``REFERENCE_DROP_EVERY_STEPS`` steps in between as well, so that what
        they hold at most does not depend on how long a stretch lasted.
        """
        drop_kernel_caches(self.rec)
        deadline = time.perf_counter() + seconds
        reference = self.reference
        while True:
            if until_step is not None:
                if reference.step_count >= until_step:
                    break
            elif time.perf_counter() >= deadline:
                break
            with self.rec.timed("bare_step", tick="reference"):
                reference.train_step()
            if reference.step_count % REFERENCE_DROP_EVERY_STEPS == 0:
                drop_kernel_caches(self.rec)
        drop_kernel_caches(self.rec)

    # -- the loop ---------------------------------------------------------------------

    def _tick(self, label: str) -> float:
        """Run the yardstick (see ``Recorder.tick``) on time that is not the
        program's: its clock stands still meanwhile."""
        started = time.monotonic()
        piece = self.rec.tick(label)
        self.clock.pause(time.monotonic() - started)
        return piece

    def measure(self, seconds: float) -> None:
        rec, cfg = self.rec, self.cfg
        self.thread = threading.get_ident()
        self._reference_steps(None, REFERENCE_BEFORE_SHARE * seconds)
        bare_wall = percentile(rec.raw("bare_step"), 50.0)
        # Policy MTBF = mean crash gap x the bare step just measured (wall
        # clock: the policy lives in wall time).
        self.mtbf_seconds = cfg.gap_mean * bare_wall
        self._attach_manager()
        pause_every = max(PAUSE_EVERY_SECONDS, PAUSE_EVERY_STEPS * bare_wall)

        elapsed = since_pause = 0.0  # the loop's own time: its pieces, summed
        executed = 0  # steps since the last recovery
        high_water = 0  # furthest step the loop has reached
        next_crash = next(self.gaps)
        hook_trainer = self._hook_view()
        last_submit: Optional[float] = None
        saves_seen = rec.n("service.pool.submit")
        rec.tick("setup")  # the loop's first piece starts here
        while True:
            with rec.timed("bench.step"):
                with rec.timed("ml.trainer.train_step"):
                    info = self.trainer.train_step()
                self.channel.tag = self.trainer.step_count
                with rec.timed("service.manager.hook_stall"):
                    self.manager.on_step_end(hook_trainer, info)
            if rec.n("service.pool.submit") != saves_seen:
                saves_seen = rec.n("service.pool.submit")
                now = self.clock()
                if last_submit is not None:
                    rec.add("save_interval", now - last_submit)
                last_submit = now
                if cfg.policy == "young-daly":
                    rec.add("yd_interval_pred", self.policy.interval_seconds)
            executed += 1
            high_water = max(high_water, self.trainer.step_count)
            piece = self._tick("loop")
            elapsed += piece
            since_pause += piece
            if elapsed >= seconds:
                break
            if executed >= next_crash:
                piece = self._crash_and_recover("loop")
                elapsed += piece
                since_pause += piece
                hook_trainer = self._hook_view()
                executed, next_crash, last_submit = 0, next(self.gaps), None
            if since_pause >= pause_every:
                # Stand still while the reference run catches up: bare and
                # hooked steps then sample the same stretches of machine
                # weather, and their ratio owes little to the yardstick.
                paused = time.monotonic()
                self.channel.drain()  # an in-flight save lands on no one's time
                self._reference_steps(high_water, 0.0)
                rec.tick("pause")
                self.clock.pause(time.monotonic() - paused)
                since_pause = 0.0
        with rec.timed("service.pool.final_drain"):
            self.manager.on_run_end(self.trainer)
        rec.tick("loop")
        self.loop_crashes = rec.n("recover")
        self.loop_named_seconds = (
            rec.total("bench.step")
            + rec.total("recover")
            + rec.total("service.pool.final_drain")
        )

        reached = self.reached = self.trainer.step_count
        if self.reference.step_count > reached:
            # The loop got less far than the reference's first part (saves
            # cost several steps each): start the reference over.
            self.reference = self._make_trainer(probed=False)
        self._reference_steps(reached, 0.0)
        rec.check(
            same_training_state(self.trainer, self.reference),
            f"crash-looped run differs from the reference at step {reached}",
        )
        for _ in range(cfg.recovery_drills):
            self._crash_and_recover("drill")

    def results(self) -> Dict:
        rec = self.rec
        reached = self.reached
        loop_wall, loop_own = rec.pieces_seconds(self.thread, "loop")
        full_plan = self.store.plan_restore(JOB_ID)
        params_plan = self.store.plan_restore(JOB_ID, names=WARM_START_TENSORS)
        steps_run = rec.n("bench.step")
        return {
            "ops": reached,
            "loop_wall": loop_wall,
            "loop_seconds": loop_own,
            "request_s": percentile(rec.calibrated("bench.step"), 50.0),
            "bare_op_s": percentile(rec.calibrated("bare_step"), 50.0),
            "foreground_op_s": percentile(rec.calibrated("bench.step"), 50.0),
            "stored_bytes": stored_bytes(self.store),
            "threads_wall": {"train": loop_wall, "named": self.loop_named_seconds},
            "layers": {
                "ml.step_busy_frac": rec.total("ml.trainer.train_step") / loop_wall,
                "core.policy.yd_interval_pred_s": percentile(
                    rec.raw("yd_interval_pred"), 50.0
                ),
                "core.policy.yd_interval_obs_s": percentile(
                    rec.raw("save_interval"), 50.0
                ),
                "core.policy.saves_per_100_steps": (
                    100.0 * rec.n("service.pool.submit") / steps_run
                ),
                "core.policy.lost_steps_per_crash": (
                    rec.counts["lost_steps"] / max(1, self.loop_crashes)
                ),
                "core.restore.params_fetch_bytes_frac": (
                    params_plan.fetch_bytes / full_plan.fetch_bytes
                ),
            },
            "pool_workers": 1,
            "info": {
                "steps_reached": reached,
                "steps_executed": steps_run,
                "crashes": self.loop_crashes,
                "recovery_drills": rec.n("recover") - self.loop_crashes,
                "saves": rec.n("save_commit"),
                "mtbf_seconds": self.mtbf_seconds,
            },
        }

    def _hook_view(self):
        """The trainer as the checkpoint hook sees it (capture / restore are
        timed when tracing)."""
        if self.rec.tracing:
            return trainer_probe(self.trainer, self.rec)
        return self.trainer

    def _crash_and_recover(self, label: str) -> float:
        """Kill the incarnation; bring a new one up from the bytes on disk.
        Returns the wall seconds it took (the piece it closes under
        ``label``).  A "drill" is the same after the loop: it loses no work."""
        rec = self.rec
        crash_step = self.trainer.step_count
        with rec.timed("crash_teardown"):
            acked = self.channel.acked
            self.channel.abandon()
            # The worker finishes the save it is in the middle of (an atomic
            # write lands or leaves an orphan) before the next incarnation
            # may allocate a checkpoint sequence number.
            self.pool.close()
            close_store(self.store)
            self.trainer = self.manager = self.channel = None
            self.pool = self.store = None
            drop_kernel_caches(rec)  # a restarted process has built nothing yet
            fresh = self._make_trainer(probed=True)
        # Killing a process takes no time; waiting out its last save (above)
        # is the harness's care for the next incarnation, not the loop's time.
        self.clock.pause(rec.cut("pause"))
        with rec.timed("recover"):
            self._open_storage()
            self._attach_manager()
            self.trainer = fresh
            ckpt_id = self.manager.resume(self._hook_view())
        piece = self._tick(label)
        restored = self.trainer.step_count
        floor = acked or 0
        rec.check(
            floor <= restored <= crash_step and (ckpt_id is not None or floor == 0),
            f"restored step {restored} outside [{floor}, {crash_step}]",
        )
        if label == "loop":
            rec.count("lost_steps", crash_step - restored)
        return piece

    def close(self) -> None:
        if self.pool is not None:
            self.channel.abandon()
            self.pool.close()
        if self.store is not None:
            close_store(self.store)


def build(name: str, scale: str, seed: int, workdir: str, rec: Recorder,
          corrupt: bool) -> CrashLoop:
    return CrashLoop(CONFIGS[name][scale], seed, workdir, rec, corrupt)
