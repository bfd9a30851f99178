"""Reliability layer: retry/backoff, deadlines, breakers, fault schedules.

Everything here is deterministic: the retry policy takes an injected RNG and
sleep, the breaker and deadline take injected clocks, and the flaky backend
fails fixed op ordinals — so each test asserts exact delay sequences and
exact recovery points rather than sampling probabilities.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.snapshot import TrainingSnapshot
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    DeadlineExceeded,
    RetryExhaustedError,
    StorageError,
    TransientStorageError,
)
from repro.reliability import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    current_deadline,
    deadline_scope,
)
from repro.service.chunkstore import ChunkStore
from repro.storage.flaky import FlakyBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.reliable import ReliableBackend


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _policy(**overrides) -> RetryPolicy:
    """A policy whose sleeps are recorded, not slept."""
    sleeps: list = overrides.pop("sleeps", [])
    defaults = dict(
        max_attempts=4,
        base_delay=0.1,
        max_delay=1.0,
        multiplier=2.0,
        jitter="none",
        sleep=sleeps.append,
    )
    defaults.update(overrides)
    policy = RetryPolicy(**defaults)
    policy.recorded_sleeps = sleeps  # type: ignore[attr-defined]
    return policy


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired
        clock.advance(1.5)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_check_raises_with_label(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        deadline.check("warmup")
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded, match="during warmup"):
            deadline.check("warmup")

    def test_clamp_bounds_timeouts(self):
        clock = FakeClock()
        deadline = Deadline(3.0, clock=clock)
        assert deadline.clamp(10.0) == pytest.approx(3.0)
        assert deadline.clamp(1.0) == pytest.approx(1.0)
        clock.advance(2.5)
        assert deadline.clamp(10.0) == pytest.approx(0.5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            Deadline(-1.0)

    def test_ambient_scope_nests_and_unwinds(self):
        assert current_deadline() is None
        outer, inner = Deadline(10.0), Deadline(2.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_none_scope_is_noop(self):
        with deadline_scope(None):
            assert current_deadline() is None


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_caps_exponential_and_clipped(self):
        policy = _policy()
        assert [policy.backoff_cap(i) for i in range(5)] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
            pytest.approx(1.0),  # clipped at max_delay
        ]

    def test_worst_case_delay_is_sum_of_caps(self):
        policy = _policy(max_attempts=4)
        assert policy.worst_case_delay() == pytest.approx(0.1 + 0.2 + 0.4)

    def test_full_jitter_is_seed_deterministic(self):
        delays_a = [
            RetryPolicy(jitter="full", rng=random.Random(7)).delay_for(i)
            for i in range(4)
        ]
        delays_b = [
            RetryPolicy(jitter="full", rng=random.Random(7)).delay_for(i)
            for i in range(4)
        ]
        assert delays_a == delays_b
        for i, delay in enumerate(delays_a):
            assert 0.0 <= delay <= RetryPolicy().backoff_cap(i)

    def test_call_retries_transient_until_success(self):
        policy = _policy()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientStorageError("brownout")
            return "done"

        assert policy.call(flaky) == "done"
        assert len(calls) == 3
        # Exact deterministic delay sequence: one sleep per scheduled retry.
        assert policy.recorded_sleeps == [
            pytest.approx(0.1),
            pytest.approx(0.2),
        ]

    def test_exhaustion_chains_last_error(self):
        policy = _policy(max_attempts=3)

        def always_down():
            raise TransientStorageError("still down")

        with pytest.raises(RetryExhaustedError, match="3 attempts") as info:
            policy.call(always_down)
        assert isinstance(info.value.__cause__, TransientStorageError)
        assert isinstance(info.value, StorageError)  # storage-class for callers

    def test_persistent_errors_never_retried(self):
        policy = _policy()
        calls = []

        def missing():
            calls.append(1)
            raise StorageError("object not found")

        with pytest.raises(StorageError, match="not found"):
            policy.call(missing)
        assert len(calls) == 1
        assert policy.recorded_sleeps == []

    def test_on_retry_hook_sees_each_scheduled_retry(self):
        policy = _policy(max_attempts=3)
        seen = []

        def always_down():
            raise TransientStorageError("nope")

        with pytest.raises(RetryExhaustedError):
            policy.call(always_down, on_retry=lambda i, e: seen.append((i, str(e))))
        assert seen == [(0, "nope"), (1, "nope")]

    def test_pause_refuses_to_sleep_past_deadline(self):
        clock = FakeClock()
        policy = _policy(base_delay=1.0, max_delay=1.0)
        deadline = Deadline(0.5, clock=clock)
        with pytest.raises(DeadlineExceeded, match="cannot absorb"):
            policy.pause(0, deadline)
        assert policy.recorded_sleeps == []  # the budget was not burned

    def test_expired_deadline_stops_attempts(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        calls = []
        with pytest.raises(DeadlineExceeded):
            _policy().call(lambda: calls.append(1), deadline=deadline)
        assert calls == []

    def test_ambient_deadline_honored(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded):
                _policy().call(lambda: "unreachable")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter="bogus")
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay=-0.1)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=clock)
        for _ in range(2):
            breaker.failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1
        with pytest.raises(CircuitOpenError, match="3 consecutive"):
            breaker.before()

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.failure()
        breaker.success()
        breaker.failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        breaker.failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.before()  # probe traffic admitted
        breaker.success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        breaker.failure()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2

    def test_call_counts_only_transient_class_errors(self):
        breaker = CircuitBreaker(failure_threshold=1)

        def missing():
            raise StorageError("no such object")

        with pytest.raises(StorageError):
            breaker.call(missing)
        assert breaker.state == CircuitBreaker.CLOSED  # an answer, not an outage

        def down():
            raise TransientStorageError("brownout")

        with pytest.raises(TransientStorageError):
            breaker.call(down)
        assert breaker.state == CircuitBreaker.OPEN


# ---------------------------------------------------------------------------
# FlakyBackend deterministic fault schedules
# ---------------------------------------------------------------------------


class TestFlakySchedules:
    def test_write_window_fails_then_heals(self):
        flaky = FlakyBackend(InMemoryBackend())
        flaky.arm_schedule("write", "error", first=1, count=2)
        for expected_failure in (True, True, False, False):
            if expected_failure:
                with pytest.raises(TransientStorageError):
                    flaky.write("obj", b"data")
            else:
                flaky.write("obj", b"data")
        assert flaky.read("obj") == b"data"
        assert flaky.faults_injected == 2

    def test_offset_window(self):
        flaky = FlakyBackend(InMemoryBackend())
        flaky.arm_schedule("write", "error", first=3, count=1)
        flaky.write("a", b"x")
        flaky.write("b", b"x")
        with pytest.raises(TransientStorageError):
            flaky.write("c", b"x")
        flaky.write("c", b"x")

    def test_periodic_storm_repeats_deterministically(self):
        flaky = FlakyBackend(InMemoryBackend())
        flaky.arm_schedule("write", "error", first=1, count=1, period=3)
        outcomes = []
        for i in range(9):
            try:
                flaky.write(f"obj-{i}", b"x")
                outcomes.append("ok")
            except TransientStorageError:
                outcomes.append("fail")
        assert outcomes == ["fail", "ok", "ok"] * 3

    def test_period_shorter_than_count_rejected(self):
        flaky = FlakyBackend(InMemoryBackend())
        with pytest.raises(ConfigError, match="never heal"):
            flaky.arm_schedule("write", "error", count=3, period=2)

    def test_disarm_clears_schedules(self):
        flaky = FlakyBackend(InMemoryBackend())
        flaky.arm_schedule("write", "error", first=1, count=100)
        flaky.disarm()
        flaky.write("obj", b"fine")
        assert flaky.read("obj") == b"fine"

    def test_schedule_replaces_oneshot_and_vice_versa(self):
        flaky = FlakyBackend(InMemoryBackend())
        flaky.arm("error", fail_on_write=1)
        flaky.arm_schedule("write", "error", first=2, count=1)
        flaky.write("a", b"x")  # ordinal 1: one-shot was superseded
        with pytest.raises(TransientStorageError):
            flaky.write("b", b"x")


# ---------------------------------------------------------------------------
# ReliableBackend: the policies wired across the storage contract
# ---------------------------------------------------------------------------


class TestReliableBackend:
    def test_recovers_within_policy(self):
        flaky = FlakyBackend(InMemoryBackend())
        flaky.write("obj", b"payload")
        flaky.arm_schedule("read", "error", first=1, count=2)
        backend = ReliableBackend(flaky, retry=_policy())
        assert backend.read("obj") == b"payload"
        assert backend.stats.retries == 2
        assert backend.stats.recovered_ops == 1
        assert backend.stats.exhausted_ops == 0

    def test_exhaustion_surfaces_and_counts(self):
        flaky = FlakyBackend(InMemoryBackend())
        flaky.write("obj", b"payload")
        flaky.arm_schedule("read", "error", first=1, count=100)
        backend = ReliableBackend(flaky, retry=_policy(max_attempts=3))
        with pytest.raises(RetryExhaustedError):
            backend.read("obj")
        assert backend.stats.exhausted_ops == 1
        assert backend.stats.recovered_ops == 0

    def test_persistent_miss_is_not_retried(self):
        backend = ReliableBackend(InMemoryBackend(), retry=_policy())
        with pytest.raises(StorageError):
            backend.read("no-such-object")
        assert backend.stats.retries == 0
        assert backend.stats.exhausted_ops == 0

    def test_breaker_rejects_after_exhaustion_streak(self):
        flaky = FlakyBackend(InMemoryBackend())
        flaky.write("obj", b"payload")
        flaky.arm_schedule("read", "error", first=1, count=10_000)
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=30.0, clock=clock)
        backend = ReliableBackend(
            flaky, retry=_policy(max_attempts=2), breaker=breaker
        )
        for _ in range(2):
            with pytest.raises(RetryExhaustedError):
                backend.read("obj")
        with pytest.raises(CircuitOpenError):
            backend.read("obj")
        assert backend.stats.rejected_ops == 1
        # After the reset window, the probe goes through to a healed backend.
        flaky.disarm()
        clock.advance(30.0)
        assert backend.read("obj") == b"payload"
        assert breaker.state == CircuitBreaker.CLOSED

    def test_total_sleep_bounded_by_worst_case(self):
        flaky = FlakyBackend(InMemoryBackend())
        flaky.write("obj", b"payload")
        flaky.arm_schedule("read", "error", first=1, count=3)
        policy = _policy(max_attempts=4, jitter="full", rng=random.Random(11))
        backend = ReliableBackend(flaky, retry=policy)
        assert backend.read("obj") == b"payload"
        assert sum(policy.recorded_sleeps) <= policy.worst_case_delay()

    def test_write_path_recovers_too(self):
        flaky = FlakyBackend(InMemoryBackend())
        flaky.arm_schedule("write", "error", first=1, count=1)
        backend = ReliableBackend(flaky, retry=_policy())
        backend.write("obj", b"through the storm")
        assert backend.read("obj") == b"through the storm"
        assert backend.stats.recovered_ops == 1


# ---------------------------------------------------------------------------
# Restore pipeline: per-block retry and re-verify
# ---------------------------------------------------------------------------


def _snapshot(step: int, size: int = 256) -> TrainingSnapshot:
    rng = np.random.default_rng(step)
    return TrainingSnapshot(
        step=step,
        params=rng.normal(size=size),
        optimizer_state={"lr": 0.05},
        rng_state={"seed": step},
        model_fingerprint="reliability-model",
    )


class TestRestoreRetry:
    def _store(self, flaky: FlakyBackend) -> ChunkStore:
        return ChunkStore(
            flaky,
            block_bytes=512,
            retry=RetryPolicy(
                max_attempts=4, base_delay=0.0, jitter="none", sleep=lambda _s: None
            ),
        )

    def test_transient_fetch_failures_recovered(self):
        flaky = FlakyBackend(InMemoryBackend())
        store = self._store(flaky)
        snap = _snapshot(1)
        store.save_snapshot("job", snap)
        # Ordinal 1 is the manifest read; fail the first two chunk fetches.
        flaky.arm_schedule("read", "error", first=2, count=2)
        restored = store.load_snapshot("job")
        assert restored.step == snap.step
        assert restored.params.tobytes() == snap.params.tobytes()

    def test_corrupt_fetch_reverified_after_refetch(self):
        flaky = FlakyBackend(InMemoryBackend())
        store = self._store(flaky)
        snap = _snapshot(2)
        store.save_snapshot("job", snap)
        # One lying fetch: the pipeline must catch the checksum mismatch and
        # re-fetch fresh bytes instead of surfacing garbage or failing.
        flaky.arm_read("bitflip", fail_on_read=2)
        restored = store.load_snapshot("job")
        assert restored.params.tobytes() == snap.params.tobytes()

    def test_unretried_store_still_fails_fast(self):
        flaky = FlakyBackend(InMemoryBackend())
        store = ChunkStore(flaky, block_bytes=512)  # no policy
        store.save_snapshot("job", _snapshot(3))
        flaky.arm_schedule("read", "error", first=2, count=2)
        with pytest.raises(TransientStorageError):
            store.load_snapshot("job")
