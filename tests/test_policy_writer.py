"""Unit tests for interval policies and the inline writer."""

import time

import numpy as np
import pytest

from repro.core.policy import (
    AdaptiveOverheadPolicy,
    EveryKSteps,
    FixedTimeInterval,
    YoungDalyPolicy,
    young_daly_interval,
    young_interval,
)
from repro.errors import ConfigError
from repro.faults.injector import SimulatedClock
from repro.service.pool import InlineWriter


class TestYoungDalyFormulas:
    def test_young_known_value(self):
        # sqrt(2 * 10 * 7200) = 379.47...
        assert young_interval(10, 7200) == pytest.approx(379.473, abs=0.01)

    def test_daly_close_to_young_for_small_delta(self):
        young = young_interval(1, 100000)
        daly = young_daly_interval(1, 100000)
        assert abs(daly - young) / young < 0.01

    def test_daly_caps_at_mtbf_for_huge_cost(self):
        assert young_daly_interval(10000, 100) == 100

    def test_zero_cost_zero_interval(self):
        assert young_daly_interval(0.0, 100) == 0.0

    def test_interval_grows_with_mtbf(self):
        intervals = [young_daly_interval(10, m) for m in (100, 1000, 10000)]
        assert intervals == sorted(intervals)

    def test_interval_grows_with_cost(self):
        intervals = [young_daly_interval(c, 10000) for c in (1, 10, 100)]
        assert intervals == sorted(intervals)

    def test_validation(self):
        with pytest.raises(ConfigError):
            young_interval(-1, 100)
        with pytest.raises(ConfigError):
            young_daly_interval(1, 0)

    def test_daly_interval_is_near_optimal(self):
        """The Daly interval should (approximately) minimize the analytic
        makespan among a dense sweep of alternatives."""
        from repro.faults.daly import expected_makespan

        work, cost, restart, mtbf = 36000.0, 30.0, 60.0, 3600.0
        star = young_daly_interval(cost, mtbf)
        best = expected_makespan(work, star, cost, restart, mtbf)
        for interval in np.linspace(60, 7200, 120):
            assert best <= expected_makespan(
                work, float(interval), cost, restart, mtbf
            ) * 1.01


class TestPolicies:
    def test_every_k_steps(self):
        policy = EveryKSteps(3)
        fires = [s for s in range(1, 10) if policy.should_checkpoint(s, 0.0)]
        assert fires == [3, 6, 9]

    def test_every_k_validation(self):
        with pytest.raises(ConfigError):
            EveryKSteps(0)

    def test_fixed_time_interval(self):
        clock = SimulatedClock()
        policy = FixedTimeInterval(10.0, clock=clock)
        assert not policy.should_checkpoint(1, clock.now)
        clock.advance(10.0)
        assert policy.should_checkpoint(2, clock.now)
        policy.record_checkpoint(clock.now, 1.0)
        assert not policy.should_checkpoint(3, clock.now)

    def test_fixed_time_validation(self):
        with pytest.raises(ConfigError):
            FixedTimeInterval(0.0)

    def test_young_daly_policy_fires_at_interval(self):
        clock = SimulatedClock()
        policy = YoungDalyPolicy(
            mtbf_seconds=7200, initial_cost_estimate=10.0, clock=clock
        )
        target = policy.interval_seconds
        clock.advance(target - 1)
        assert not policy.should_checkpoint(1, clock.now)
        clock.advance(2)
        assert policy.should_checkpoint(2, clock.now)

    def test_young_daly_policy_adapts_to_observed_cost(self):
        clock = SimulatedClock()
        policy = YoungDalyPolicy(
            mtbf_seconds=7200, initial_cost_estimate=1.0, clock=clock
        )
        before = policy.interval_seconds
        for _ in range(20):
            policy.record_checkpoint(clock.now, 50.0)
        assert policy.interval_seconds > before
        assert policy.mean_cost > 1.0

    def test_young_daly_interval_at_least_cost(self):
        policy = YoungDalyPolicy(
            mtbf_seconds=10.0, initial_cost_estimate=100.0,
            clock=SimulatedClock(),
        )
        assert policy.interval_seconds >= policy.mean_cost

    def test_adaptive_overhead_math(self):
        clock = SimulatedClock()
        policy = AdaptiveOverheadPolicy(
            target_overhead=0.05, initial_cost_estimate=0.2, clock=clock
        )
        assert policy.interval_seconds == pytest.approx(4.0)
        clock.advance(3.9)
        assert not policy.should_checkpoint(1, clock.now)
        clock.advance(0.2)
        assert policy.should_checkpoint(2, clock.now)

    def test_adaptive_overhead_validation(self):
        with pytest.raises(ConfigError):
            AdaptiveOverheadPolicy(target_overhead=0.0)
        with pytest.raises(ConfigError):
            AdaptiveOverheadPolicy(initial_cost_estimate=0.0)

    def test_policies_observe_step_is_optional_noop(self):
        EveryKSteps(2).observe_step(1, 0.5)  # must not raise


class TestSyncWriter:
    def test_executes_inline(self):
        writer = InlineWriter()
        ran = []
        writer.submit(lambda: ran.append(1))
        assert ran == [1]
        assert writer.stats.tasks == 1
        assert writer.pending == 0

    def test_drain_and_close_are_noops(self):
        writer = InlineWriter()
        writer.drain()
        writer.close()

    def test_blocked_equals_total_time(self):
        writer = InlineWriter()
        writer.submit(lambda: time.sleep(0.01))
        assert writer.stats.blocked_seconds == pytest.approx(
            writer.stats.seconds, rel=0.5
        )


class TestObservedCostWiring:
    """Young–Daly re-derives its interval from pool-observed save cost."""

    def test_cost_source_overrides_running_mean(self):
        clock = SimulatedClock()
        policy = YoungDalyPolicy(
            mtbf_seconds=10000.0, initial_cost_estimate=1.0, clock=clock
        )
        base_interval = policy.interval_seconds
        observed = {"value": None}
        policy.attach_cost_source(lambda: observed["value"])
        # Source empty: running mean still governs.
        assert policy.interval_seconds == base_interval
        # Contention quadruples the observed save cost: sqrt scaling doubles
        # the interval.
        observed["value"] = 4.0
        assert policy.mean_cost == 4.0
        assert policy.interval_seconds == pytest.approx(
            2 * base_interval, rel=0.15
        )
        # Source drying up (non-positive) falls back again.
        observed["value"] = 0.0
        assert policy.mean_cost == 1.0

    def test_channel_records_recent_save_durations(self):
        from repro.service.pool import WriterPool

        pool = WriterPool(workers=1)
        try:
            channel = pool.channel("job0", max_pending=4)
            assert channel.observed_save_seconds() is None
            for _ in range(3):
                channel.submit(lambda: time.sleep(0.01))
            channel.drain()
            observed = channel.observed_save_seconds()
            assert observed is not None and observed >= 0.01
            assert len(channel.recent_task_seconds) == 3
        finally:
            pool.close()

    def test_service_manager_attaches_pool_cost_source(self):
        from repro.service.chunkstore import ChunkStore
        from repro.service.manager import ServiceCheckpointManager
        from repro.service.pool import WriterPool
        from repro.storage.memory import InMemoryBackend

        store = ChunkStore(InMemoryBackend(), block_bytes=512)
        pool = WriterPool(workers=1)
        try:
            channel = pool.channel("job0", max_pending=4)
            clock = SimulatedClock()
            policy = YoungDalyPolicy(
                mtbf_seconds=1000.0, initial_cost_estimate=0.5, clock=clock
            )
            ServiceCheckpointManager(store, "job0", channel, policy=policy)
            assert policy._cost_source is not None
            # Before any save the policy falls back to its initial estimate.
            assert policy.mean_cost == 0.5
            # Simulate the pool finishing saves of known duration.
            channel.recent_task_seconds.extend([0.2, 0.4])
            assert policy.mean_cost == pytest.approx(0.3)
            expected = max(
                young_daly_interval(0.3, 1000.0), 0.3
            )
            assert policy.interval_seconds == pytest.approx(expected)
        finally:
            pool.close()

    def test_interval_tracks_contention_window(self):
        """A brownout-slowed pool widens the interval; recovery narrows it."""
        from repro.service.pool import WriterPool

        pool = WriterPool(workers=1)
        try:
            channel = pool.channel("job0", max_pending=4)
            clock = SimulatedClock()
            policy = YoungDalyPolicy(
                mtbf_seconds=400.0, initial_cost_estimate=0.01, clock=clock
            )
            policy.attach_cost_source(channel.observed_save_seconds)
            channel.recent_task_seconds.extend([0.01] * 4)
            calm = policy.interval_seconds
            channel.recent_task_seconds.extend([1.0] * 16)  # window is 16
            stormy = policy.interval_seconds
            assert stormy > calm * 5
            channel.recent_task_seconds.extend([0.01] * 16)
            assert policy.interval_seconds == pytest.approx(calm)
        finally:
            pool.close()
