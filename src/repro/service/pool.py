"""Checkpoint writers: the shared pool's per-job channels, and inline.

A save is a task the trainer hook hands to a *writer* (``submit`` /
``drain`` / ``close`` / ``pending`` / ``stats``).  Two implement that
protocol: :class:`InlineWriter` runs the task on the training thread (the
synchronous baseline of Fig. 3), and :class:`PoolChannel` queues it for a
:class:`WriterPool` — a fixed set of worker threads serving per-job queues,
one worker for a single run, a few for a fleet whose N jobs would otherwise
contend blindly for the store:

* **per-job FIFO** — one channel's tasks never run concurrently or out of
  order, preserving the store's payload-before-manifest ordering per job;
  tasks from *different* channels run in parallel where they wait on the
  backend (flushes, a remote store's latency: ~3.8x at 4 workers against a
  20 ms/write store).  Beside a trainer in the same process they share one
  interpreter lock with it, and measuring says the worker count is not what
  sets the pace there: on the daemon's small-job stream neither an
  in-memory backend, fsync off, nor one C call per object moved useful
  steps/s by more than 5%, while the *trainer's* lock traffic did -- with
  every 3 us gate kernel releasing the lock to a queued worker a 6.5 ms
  step took 15 ms (``engines.compiled`` now keeps the lock across calls on
  fewer than 2^12 amplitudes),
* **fairness** — workers pick the next task round-robin across channels, so
  one chatty job cannot starve the fleet,
* **backpressure** — each channel bounds its queue and picks a policy when
  full: ``block`` the trainer (the default), ``drop-oldest`` (newest
  snapshot wins; dropped saves are counted), or ``degrade`` (enqueue the
  submitter's cheaper fallback task — e.g. a lite snapshot without the
  statevector cache — instead of the full one),
* **per-job errors, exactly once** — a failed task surfaces on that
  channel's next ``submit``/``drain``/``close`` and nowhere else.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import CheckpointError, ConfigError
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, StatsView


class WriteStats(StatsView):
    """Aggregate accounting for a writer's lifetime.

    Registry-backed: ``<name>.tasks`` / ``<name>.seconds`` /
    ``<name>.blocked_seconds`` counters (``name`` distinguishes the inline
    writer, the shared pool, and per-job channels, which add a ``job``
    label).
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "writer",
        labels: Optional[Dict[str, str]] = None,
    ):
        super().__init__()
        registry = metrics if metrics is not None else MetricsRegistry()
        labels = labels or {}
        self._bind("tasks", registry.counter(f"{name}.tasks", **labels))
        self._bind(
            "seconds",
            registry.counter(f"{name}.seconds", **labels),
            as_int=False,
        )
        self._bind(
            "blocked_seconds",
            registry.counter(f"{name}.blocked_seconds", **labels),
            as_int=False,
        )


class InlineWriter:
    """Runs save tasks on the caller's thread: training blocks for the full
    pack+write duration, and a failing save raises from ``submit`` itself."""

    backpressure = "block"
    pending = 0

    def __init__(self) -> None:
        self.stats = WriteStats()

    def submit(
        self, task: Callable[[], None], fallback=None, fallback_factory=None
    ) -> None:
        """Execute ``task`` now (never congested, so never a fallback)."""
        started = time.perf_counter()
        task()
        elapsed = time.perf_counter() - started
        self.stats.tasks += 1
        self.stats.seconds += elapsed
        self.stats.blocked_seconds += elapsed

    def observed_save_seconds(self) -> None:
        """No queue-side cost to report beyond what the hook itself times."""

    def drain(self) -> None:
        """No-op: nothing is ever pending."""

    def close(self) -> None:
        """No-op."""


class ChannelStats(WriteStats):
    """Per-channel accounting (extends :class:`WriteStats`).

    Registry-backed ``channel.*`` counters, labeled with the channel's
    ``job`` id so a shared fleet registry keeps per-job series apart.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        job_id: str = "",
    ):
        registry = metrics if metrics is not None else MetricsRegistry()
        labels = {"job": job_id}
        super().__init__(registry, name="channel", labels=labels)
        self._bind("dropped", registry.counter("channel.dropped", **labels))
        self._bind("degraded", registry.counter("channel.degraded", **labels))


class PoolChannel:
    """One job's bounded submission queue into a :class:`WriterPool`.

    ``max_pending`` (>= 1) and ``backpressure`` are taken as given:
    :class:`~repro.service.scheduler.FleetJobSpec` validates a job's.
    """

    def __init__(
        self,
        pool: "WriterPool",
        job_id: str,
        max_pending: int,
        backpressure: str,
    ):
        self.pool = pool
        self.job_id = job_id
        self.max_pending = int(max_pending)
        self.backpressure = backpressure
        self.stats = ChannelStats(pool.metrics, job_id)
        # Per-job task-latency histogram, observed on the worker thread
        # (queue-side save cost as the pool actually ran it).
        self._task_seconds = pool.metrics.histogram(
            "channel.task_seconds", job=job_id
        )
        # Moving window of recent task durations as measured on the pool
        # worker — the job's *observed* save cost under pool contention.
        # Adaptive policies (Young–Daly) read it through
        # observed_save_seconds(); a fixed lifetime mean would lag brownouts
        # and chatty-neighbor contention by the whole history.
        self.recent_task_seconds: Deque[float] = deque(maxlen=16)
        # Degrade-mode fallbacks are resolved synchronously inside submit,
        # so the queue holds bare ready-to-run tasks.
        self.queue: Deque[Callable[[], None]] = deque()
        self.active = False  # a worker is running this channel's task
        self.closed = False
        self.abandoned = 0
        self._error: Optional[BaseException] = None
        # Only an abandoned (crashed-process) channel discards task errors;
        # a channel closed by a timed-out close/drain keeps them so the
        # failure still surfaces on the next interaction, exactly once.
        self._discard_errors = False

    # -- internal (called under the pool lock) ------------------------------------

    def _outstanding(self) -> int:
        return len(self.queue) + (1 if self.active else 0)

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise CheckpointError(
                f"checkpoint write for job {self.job_id!r} failed: {error}"
            ) from error

    # -- writer protocol ----------------------------------------------------------

    def submit(
        self,
        task: Callable[[], None],
        fallback: Optional[Callable[[], None]] = None,
        fallback_factory: Optional[Callable[[], Callable[[], None]]] = None,
    ) -> None:
        """Enqueue ``task`` under this channel's backpressure policy.

        ``fallback`` is the cheaper variant the ``degrade`` policy swaps in
        when the queue is full.  ``fallback_factory`` builds that variant
        lazily — it is invoked (on this thread, at most once, *outside* the
        pool lock) only when the queue is full at submit time, so submitters
        do not pay for a degraded capture they usually discard and an
        expensive capture never stalls other jobs' bookkeeping.  Policies
        other than ``degrade`` ignore both.
        """
        pool = self.pool
        started = time.perf_counter()
        # Thread-hop trace propagation: capture the submitter's span
        # context now, reattach it around the task on the worker thread.
        context = trace.capture_context()
        if context is not None or trace.tracing_enabled():
            task = trace.traced(task, "pool.task", context, job=self.job_id)
            if fallback is not None:
                fallback = trace.traced(
                    fallback, "pool.task", context, job=self.job_id, lite=True
                )
            if fallback_factory is not None:
                build = fallback_factory
                fallback_factory = lambda: trace.traced(  # noqa: E731
                    build(), "pool.task", context, job=self.job_id, lite=True
                )
        if (
            self.backpressure == "degrade"
            and fallback is None
            and fallback_factory is not None
        ):
            # A channel has one submitter (its job), so congestion observed
            # here cannot appear later within this same submit — building
            # the fallback now, outside the lock, loses no laziness.
            with pool._cond:
                congested = self._outstanding() >= self.max_pending
            if congested:
                fallback = fallback_factory()
            fallback_factory = None
        with pool._cond:
            self._raise_pending_error()
            if self.closed:
                raise CheckpointError(f"channel {self.job_id!r} is closed")
            if pool._stopped:
                raise CheckpointError("writer pool is closed")
            while self._outstanding() >= self.max_pending:
                if self.backpressure == "drop-oldest" and self.queue:
                    self.queue.popleft()
                    self.stats.dropped += 1
                    continue
                if self.backpressure == "degrade" and fallback is not None:
                    task = fallback
                    fallback = None
                    self.stats.degraded += 1
                    if self.queue:
                        # Replace the newest queued save (full or already
                        # lite) with this cheap one rather than waiting
                        # behind it; the discarded save counts as dropped.
                        self.queue.pop()
                        self.stats.dropped += 1
                        break
                # block (and degrade-without-room): wait for a slot.
                pool._cond.wait(timeout=0.1)
                self._raise_pending_error()
                if self.closed or pool._stopped:
                    raise CheckpointError(
                        f"channel {self.job_id!r} closed while blocked on submit"
                    )
            self.queue.append(task)
            pool._cond.notify_all()
        self.stats.blocked_seconds += time.perf_counter() - started

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until this channel is idle; re-raise its pending error."""
        pool = self.pool
        deadline = None if timeout is None else time.monotonic() + timeout
        with pool._cond:
            while self._outstanding() > 0:
                if pool._stopped:
                    raise CheckpointError(
                        "writer pool stopped with tasks still queued"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise CheckpointError(
                            f"channel {self.job_id!r} failed to drain "
                            f"within {timeout}s"
                        )
                pool._cond.wait(timeout=remaining if remaining else 0.1)
            self._raise_pending_error()

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain and detach from the pool; surfaces pending errors once.

        ``timeout`` defaults to the pool's close timeout, so a save wedged on
        a hung backend raises :class:`~repro.errors.CheckpointError` instead
        of hanging the fleet forever.
        """
        if timeout is None:
            timeout = self.pool._close_timeout
        try:
            self.drain(timeout=timeout)
        finally:
            with self.pool._cond:
                self.closed = True
                self.pool._cond.notify_all()

    def abandon(self) -> int:
        """Crash semantics: discard queued (not yet started) tasks.

        A preempted process loses the saves still sitting in its queue; the
        in-flight task, if any, completes on the worker (an atomic store
        write either lands or leaves an orphan).  Returns the number of
        tasks discarded.  The channel is closed and its pending error —
        which a dead process can no longer observe — is cleared.
        """
        with self.pool._cond:
            dropped = len(self.queue)
            self.queue.clear()
            self.abandoned += dropped
            self.closed = True
            self._error = None
            self._discard_errors = True
            self.pool._cond.notify_all()
        return dropped

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no task of this channel is in flight.

        Unlike :meth:`drain` this ignores queued tasks and pending errors —
        it exists for crash semantics: after :meth:`abandon`, the harness
        waits for the dead incarnation's in-flight save to finish before a
        reincarnation allocates its first checkpoint sequence, so a stale
        save can never commit *after* (and therefore outrank) the new
        incarnation's saves.  Returns ``False`` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.pool._cond:
            while self.active:
                remaining = 0.1
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    remaining = min(remaining, 0.1)
                self.pool._cond.wait(timeout=remaining)
            return True

    def observed_save_seconds(self) -> Optional[float]:
        """Moving mean of recent save durations on the pool (seconds).

        ``None`` until the first task of this channel completes.  This is
        the live checkpoint-cost estimate the Young–Daly policy re-derives
        its interval from: it includes queue-side effects the submitter
        never sees (backend brownouts, shard contention, pool fairness).
        """
        with self.pool._cond:
            if not self.recent_task_seconds:
                return None
            return sum(self.recent_task_seconds) / len(self.recent_task_seconds)

    @property
    def pending(self) -> int:
        """Tasks submitted but not yet finished."""
        with self.pool._cond:
            return self._outstanding()


class WriterPool:
    """Fixed worker pool multiplexing many jobs' checkpoint writes."""

    def __init__(
        self,
        workers: int = 2,
        close_timeout: float = 60.0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if close_timeout <= 0:
            raise ConfigError(
                f"close_timeout must be > 0, got {close_timeout}"
            )
        self.workers = int(workers)
        self._close_timeout = float(close_timeout)
        self._cond = threading.Condition()
        self._channels: Dict[str, PoolChannel] = {}
        self._rr: List[str] = []  # round-robin rotation of channel ids
        self._stopped = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = WriteStats(self.metrics, name="pool")
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"qckpt-pool-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- channels ---------------------------------------------------------------

    def channel(
        self,
        job_id: str,
        max_pending: int = 2,
        backpressure: str = "block",
    ) -> PoolChannel:
        """Create (or return) the submission channel for ``job_id``.

        Re-requesting an open channel returns it unchanged; after a crash
        (``abandon``) or ``close`` a fresh channel replaces the dead one —
        the reincarnated job starts with a clean queue and no stale error.
        """
        with self._cond:
            if self._stopped:
                raise CheckpointError("writer pool is closed")
            existing = self._channels.get(job_id)
            if existing is not None and not existing.closed:
                return existing
            channel = PoolChannel(self, job_id, max_pending, backpressure)
            self._channels[job_id] = channel
            if job_id not in self._rr:
                self._rr.append(job_id)
            return channel

    def channels(self) -> List[PoolChannel]:
        """All currently registered channels."""
        with self._cond:
            return list(self._channels.values())

    # -- workers -----------------------------------------------------------------

    def _next_task(self) -> Optional[Tuple[PoolChannel, Callable[[], None]]]:
        """Round-robin pick under the lock; marks the channel active."""
        for offset in range(len(self._rr)):
            job_id = self._rr[offset]
            channel = self._channels.get(job_id)
            if channel is None or channel.active or not channel.queue:
                continue
            # Rotate so the next pick starts after this job: fairness.
            self._rr = (
                self._rr[offset + 1 :] + self._rr[: offset + 1]
            )
            task = channel.queue.popleft()
            channel.active = True
            return channel, task
        return None

    def _worker(self) -> None:
        while True:
            with self._cond:
                picked = self._next_task()
                while picked is None:
                    if self._stopped:
                        return
                    self._cond.wait()
                    picked = self._next_task()
            channel, task = picked
            started = time.perf_counter()
            error: Optional[BaseException] = None
            try:
                task()
            except BaseException as exc:  # surfaces on the job's channel
                error = exc
            elapsed = time.perf_counter() - started
            channel._task_seconds.observe(elapsed)
            with self._cond:
                channel.active = False
                channel.stats.tasks += 1
                channel.stats.seconds += elapsed
                channel.recent_task_seconds.append(elapsed)
                self.stats.tasks += 1
                self.stats.seconds += elapsed
                if error is not None and not channel._discard_errors:
                    channel._error = error
                self._cond.notify_all()

    # -- lifecycle ----------------------------------------------------------------

    def drain(self) -> None:
        """Drain every open channel (first pending error wins)."""
        for channel in self.channels():
            if not channel.closed:
                channel.drain(timeout=self._close_timeout)

    def close(self) -> None:
        """Drain all channels, stop the workers, join the threads.

        Channel errors surface from the drain; a pool whose workers fail to
        stop within the close timeout raises
        :class:`~repro.errors.CheckpointError` (daemon threads, so the
        process still exits).
        """
        try:
            self.drain()
        finally:
            with self._cond:
                self._stopped = True
                self._cond.notify_all()
            deadline = time.monotonic() + self._close_timeout
            for thread in self._threads:
                remaining = deadline - time.monotonic()
                if remaining > 0:
                    thread.join(timeout=remaining)
            if any(thread.is_alive() for thread in self._threads):
                raise CheckpointError(
                    f"writer pool failed to stop within {self._close_timeout}s"
                )

    @property
    def pending(self) -> int:
        """Outstanding tasks across all channels."""
        with self._cond:
            return sum(c._outstanding() for c in self._channels.values())

    def __enter__(self) -> "WriterPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
