"""The trainer hook: when to save, through which writer, and the way back.

One instance per training job.  Each step feeds the policy; when it fires
the hook captures a snapshot and submits the save to its writer — a
:class:`~repro.service.pool.PoolChannel` (off-thread) or, by default, an
:class:`~repro.service.pool.InlineWriter` — which commits it through the
store's ``save_snapshot(job_id, snapshot, extra=)``.  After a crash,
:meth:`ServiceCheckpointManager.resume` restores a fresh trainer through the
store's own newest-first, damage-skipping walk (``latest_valid`` /
``latest_valid_partial``).  Those three job-scoped verbs are all the hook
asks of a store; the store that answers them is a
:class:`~repro.service.chunkstore.ChunkStore`, and how a save is encoded
(codec, block size, content-addressed dedup) is the store's.  (A
:class:`~repro.core.store.CheckpointStore` over an old QCKPT directory
resumes a trainer too, but refuses its saves.)  Each submit carries a
degraded fallback (a ``lite`` capture without the warm-start cache) for
channels with ``degrade`` backpressure.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.core.policy import CheckpointPolicy, Clock, EveryKSteps
from repro.core.restore import WARM_START_TENSORS
from repro.core.snapshot import TrainingSnapshot
from repro.core.store import DEFAULT_JOB
from repro.errors import CheckpointNotFoundError, ConfigError
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.service.pool import InlineWriter


class ServiceCheckpointStats(StatsView):
    """Aggregate accounting for one job's manager.

    Registry-backed ``manager.*`` counters labeled with the job id; the
    manager binds them against the store's registry so a shared fleet
    registry aggregates per-job series (``last_record`` stays a plain
    attribute — it is a reference, not a count).
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        job_id: str = "",
    ):
        super().__init__()
        registry = metrics if metrics is not None else MetricsRegistry()
        for name in ("saves", "lite_saves", "bytes_written"):
            self._bind(name, registry.counter(f"manager.{name}", job=job_id))
        self._bind(
            "save_seconds",
            registry.counter("manager.save_seconds", job=job_id),
            as_int=False,
        )
        self.last_record = None


class ServiceCheckpointManager:
    """Trainer hook persisting one job's snapshots through a writer.

    ``channel=None`` saves inline on the training thread.
    """

    def __init__(
        self,
        store,
        job_id: str = DEFAULT_JOB,
        channel=None,
        policy: Optional[CheckpointPolicy] = None,
        clock: Optional[Clock] = None,
        extra: Optional[Dict] = None,
    ):
        if channel is None:
            channel = InlineWriter()
        self.store = store
        self.job_id = job_id
        self.channel = channel
        self.policy = policy or EveryKSteps(1)
        self._clock = clock or time.monotonic
        self.extra = dict(extra or {})
        self.stats = ServiceCheckpointStats(store.metrics, job_id)
        self._stats_lock = threading.Lock()  # tasks run on pool workers
        # Adaptive policies (Young–Daly) re-derive their interval from this
        # job's *observed* save cost on the shared pool — queueing, shard
        # contention and brownouts included — not from a static estimate.
        attach = getattr(self.policy, "attach_cost_source", None)
        if attach is not None:
            attach(channel.observed_save_seconds)

    # -- hook protocol ------------------------------------------------------------

    def on_step_end(self, trainer, info) -> None:
        """Trainer hook: maybe checkpoint after this step."""
        self.policy.observe_step(info.step, info.seconds)
        if self.policy.should_checkpoint(trainer.step_count, self._clock()):
            # The lite capture is deferred to the moment the channel actually
            # degrades (synchronously inside submit, same step state), so an
            # uncongested degrade-mode job never pays for a second capture.
            lite_factory = (
                (lambda: trainer.capture(lite=True))
                if self.channel.backpressure == "degrade"
                else None
            )
            # capture() hands over deep copies nothing else references, so
            # they go to the channel as they are (save() would copy again).
            self._submit(trainer.capture(), lite_factory=lite_factory)

    def on_run_end(self, trainer) -> None:
        """Trainer hook: wait for this job's queue to empty."""
        self.channel.drain()

    # -- saving -----------------------------------------------------------------

    def save(
        self,
        snapshot: TrainingSnapshot,
        lite_snapshot: Optional[TrainingSnapshot] = None,
        lite_factory=None,
    ) -> None:
        """Submit a copy of ``snapshot`` through the channel.

        The caller keeps its snapshot (and may mutate it at once): what the
        writer persists is a deep copy taken here.  The degrade fallback
        comes either ready-made (``lite_snapshot``) or lazily
        (``lite_factory``, a zero-arg callable returning a snapshot, invoked
        only if the channel's queue is full at submit time).
        """
        self._submit(
            snapshot.copy(),
            None if lite_snapshot is None else lite_snapshot.copy(),
            None if lite_factory is None else (lambda: lite_factory().copy()),
        )

    def _submit(
        self,
        snapshot: TrainingSnapshot,
        lite_snapshot: Optional[TrainingSnapshot] = None,
        lite_factory=None,
    ) -> None:
        """Queue snapshots the manager owns (no copies are taken here)."""

        def task() -> None:
            self._commit(snapshot, lite=False)

        fallback = None
        fallback_factory = None
        if lite_snapshot is not None:

            def fallback() -> None:
                self._commit(lite_snapshot, lite=True)

        elif lite_factory is not None:

            def fallback_factory() -> "object":
                lite = lite_factory()
                return lambda: self._commit(lite, lite=True)

        self.channel.submit(
            task, fallback=fallback, fallback_factory=fallback_factory
        )

    def _commit(self, snapshot: TrainingSnapshot, lite: bool) -> None:
        started = time.perf_counter()
        extra = dict(self.extra)
        if lite:
            extra["lite"] = True
        record = self.store.save_snapshot(self.job_id, snapshot, extra=extra)
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self.stats.saves += 1
            if lite:
                self.stats.lite_saves += 1
            self.stats.bytes_written += record.nbytes
            self.stats.save_seconds += elapsed
            self.stats.last_record = record
        self.policy.record_checkpoint(self._clock(), elapsed)

    # -- restoring ----------------------------------------------------------------

    def resume(
        self, trainer, mode: str = "exact", required: bool = False
    ) -> Optional[str]:
        """Restore ``trainer`` from this job's newest valid checkpoint.

        ``mode="exact"`` resumes bitwise from the newest checkpoint that
        fully restores.  ``mode="warm-start"`` fetches only the parameter
        blocks of the newest checkpoint whose parameters restore and seeds
        a fresh run (the architecture-search warm start).  Both walk the
        restore pipeline and fall back past damaged checkpoints.  Returns
        the checkpoint id used, or ``None`` when nothing restorable exists
        (:class:`~repro.errors.CheckpointNotFoundError` when ``required``).
        A snapshot of a different model is a caller bug, not storage damage:
        :class:`~repro.errors.IncompatibleCheckpointError` propagates.
        """
        if mode == "exact":
            ckpt_id, found, skipped = self.store.latest_valid(self.job_id)
        elif mode == "warm-start":
            ckpt_id, found, skipped = self.store.latest_valid_partial(
                self.job_id, WARM_START_TENSORS
            )
        else:
            raise ConfigError(
                f"mode must be 'exact' or 'warm-start', got {mode!r}"
            )
        if found is None:
            if required:
                raise CheckpointNotFoundError(
                    f"no restorable checkpoint for job {self.job_id!r}"
                    + (f"; skipped: {skipped}" if skipped else "")
                )
            return None
        if mode == "exact":
            trainer.restore(found)
        else:
            trainer.warm_start(found["params"])
        return ckpt_id

    def close(self) -> None:
        """Flush this job's queue and release the writer."""
        self.channel.close()
