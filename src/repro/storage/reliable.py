"""Policy-honoring storage wrapper: retries, deadlines, circuit breaking.

:class:`ReliableBackend` is the storage face of :mod:`repro.reliability`:
every ``StorageBackend`` operation runs under an optional
:class:`~repro.reliability.RetryPolicy` (transient failures are retried with
backoff), an optional :class:`~repro.reliability.CircuitBreaker` (a backend
that keeps failing is failed fast instead of hammered), and whatever
:class:`~repro.reliability.Deadline` is ambient or attached.

Only :class:`~repro.errors.TransientStorageError` is retried or counted by
the breaker — a missing object is an *answer* and comes back immediately.
Counters (:class:`ReliabilityStats`) expose how much flakiness the wrapper
absorbed, which the ``fault_storm`` benchmark and the reliability tests read.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import RetryExhaustedError, TransientStorageError
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.reliability import CircuitBreaker, Deadline, RetryPolicy
from repro.storage.backend import StorageBackend


class ReliabilityStats(StatsView):
    """What the wrapper absorbed (or gave up on).

    Registry-backed ``reliability.*`` counters:

    * ``retries`` — individual re-attempts across all ops
    * ``recovered_ops`` — ops that failed at least once, then succeeded
    * ``exhausted_ops`` — ops that failed every attempt
    * ``rejected_ops`` — ops refused by an open circuit breaker
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        super().__init__()
        registry = metrics if metrics is not None else MetricsRegistry()
        for name in (
            "retries",
            "recovered_ops",
            "exhausted_ops",
            "rejected_ops",
        ):
            self._bind(name, registry.counter(f"reliability.{name}"))


class ReliableBackend(StorageBackend):
    """Backend decorator applying retry/deadline/breaker policies per op."""

    def __init__(
        self,
        inner: StorageBackend,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        deadline: Optional[Deadline] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.inner = inner
        self.retry = retry
        self.breaker = breaker
        self.deadline = deadline  # per-backend budget; ambient scope also honored
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = ReliabilityStats(self.metrics)

    def _run(self, fn: Callable[[], object]):
        if self.breaker is not None:
            try:
                self.breaker.before()
            except Exception:
                self.stats.rejected_ops += 1
                raise
        attempts = [0]

        def count_retry(_index: int, _exc: BaseException) -> None:
            attempts[0] += 1
            self.stats.retries += 1

        try:
            if self.retry is not None:
                result = self.retry.call(
                    fn, deadline=self.deadline, on_retry=count_retry
                )
            else:
                result = fn()
        except (TransientStorageError, RetryExhaustedError):
            self.stats.exhausted_ops += 1
            if self.breaker is not None:
                self.breaker.failure()
            raise
        if attempts[0]:
            self.stats.recovered_ops += 1
        if self.breaker is not None:
            self.breaker.success()
        return result

    # -- StorageBackend contract ----------------------------------------------------

    def write(self, name: str, data: bytes) -> None:
        self._run(lambda: self.inner.write(name, data))

    def read(self, name: str, into=None) -> bytes:
        # A retried read refills the same buffer from its start.
        kwargs = {} if into is None else {"into": into}
        return self._run(lambda: self.inner.read(name, **kwargs))

    def exists(self, name: str) -> bool:
        return self._run(lambda: self.inner.exists(name))

    def delete(self, name: str) -> None:
        self._run(lambda: self.inner.delete(name))

    def list(self, prefix: str = "") -> List[str]:
        return self._run(lambda: self.inner.list(prefix))

    def size(self, name: str) -> int:
        return self._run(lambda: self.inner.size(name))

    @property
    def supports_read_into(self) -> bool:
        return self.inner.supports_read_into

    def tier_for(self, name: str):
        return self.inner.tier_for(name)
