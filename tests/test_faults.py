"""Unit tests for failure injection, the Daly models, and the harness."""

import numpy as np
import pytest

from repro.core.policy import EveryKSteps
from repro.errors import ConfigError
from repro.faults.daly import (
    expected_makespan,
    mean_simulated_makespan,
    no_checkpoint_makespan,
    simulate_makespan,
)
from repro.faults.harness import run_with_failures
from repro.faults.injector import (
    CrashAtStep,
    PoissonStepFailures,
    SimulatedClock,
    SimulatedFailure,
)
from repro.service.manager import ServiceCheckpointManager
from tests.test_trainer import make_classifier_trainer, make_vqe_trainer


class TestSimulatedClock:
    def test_advance(self):
        clock = SimulatedClock(5.0)
        assert clock() == 5.0
        clock.advance(2.5)
        assert clock.now == 7.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ConfigError):
            SimulatedClock().advance(-1.0)


class TestCrashAtStep:
    def test_crashes_at_requested_step(self):
        trainer = make_vqe_trainer()
        with pytest.raises(SimulatedFailure) as excinfo:
            trainer.run(10, hooks=[CrashAtStep(4)])
        assert excinfo.value.step == 4
        assert trainer.step_count == 4

    def test_each_crash_step_fires_once(self):
        hook = CrashAtStep([2, 5])
        trainer = make_vqe_trainer()
        with pytest.raises(SimulatedFailure):
            trainer.run(10, hooks=[hook])
        with pytest.raises(SimulatedFailure):
            trainer.run(10, hooks=[hook])
        trainer.run(5, hooks=[hook])  # exhausted: no more crashes
        assert hook.crashes == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            CrashAtStep(0)


class TestPoissonStepFailures:
    def test_deterministic_schedule(self):
        def failures_with_seed(seed):
            hook = PoissonStepFailures(10.0, seed=seed, fixed_step_seconds=1.0)
            trainer = make_vqe_trainer()
            crashed_at = []
            for _ in range(50):
                try:
                    trainer.run(1, hooks=[hook])
                except SimulatedFailure as failure:
                    crashed_at.append(failure.step)
            return crashed_at

        assert failures_with_seed(3) == failures_with_seed(3)

    def test_failure_rate_matches_mtbf(self):
        hook = PoissonStepFailures(20.0, seed=0, fixed_step_seconds=1.0)
        trainer = make_vqe_trainer()
        failures = 0
        steps = 300
        for _ in range(steps):
            try:
                trainer.run(1, hooks=[hook])
            except SimulatedFailure:
                failures += 1
        rate = failures / steps
        expected = 1.0 - np.exp(-1.0 / 20.0)
        assert abs(rate - expected) < 0.03

    def test_validation(self):
        with pytest.raises(ConfigError):
            PoissonStepFailures(0.0)
        with pytest.raises(ConfigError):
            PoissonStepFailures(10.0, fixed_step_seconds=0.0)


class TestDalyModels:
    def test_analytic_matches_simulation(self):
        rng = np.random.default_rng(0)
        analytic = expected_makespan(3600, 600, 10, 30, 7200)
        simulated = mean_simulated_makespan(
            3600, 600, 10, 30, 7200, rng, samples=4000
        )
        assert abs(simulated - analytic) / analytic < 0.05

    def test_no_checkpoint_matches_simulation(self):
        rng = np.random.default_rng(1)
        analytic = no_checkpoint_makespan(1000, 50, 2000)
        simulated = mean_simulated_makespan(
            1000, None, 0, 50, 2000, rng, samples=4000
        )
        assert abs(simulated - analytic) / analytic < 0.05

    def test_failure_free_limit(self):
        # MTBF >> work: makespan approaches work + checkpoint overhead.
        makespan = expected_makespan(1000, 100, 1, 0, 1e9)
        assert makespan == pytest.approx(1010, rel=1e-3)

    def test_checkpointing_beats_none_under_frequent_failures(self):
        work, cost, restart, mtbf = 4 * 3600, 30, 120, 1800
        with_ckpt = expected_makespan(work, 600, cost, restart, mtbf)
        without = no_checkpoint_makespan(work, restart, mtbf)
        assert with_ckpt < without / 100

    def test_makespan_increases_as_mtbf_shrinks(self):
        values = [
            expected_makespan(3600, 600, 10, 30, mtbf)
            for mtbf in (36000, 7200, 1800)
        ]
        assert values == sorted(values)

    def test_simulation_no_failures_is_deterministic_work(self):
        rng = np.random.default_rng(2)
        # MTBF astronomically large: exactly work + checkpoints on all
        # segments except the last.
        makespan = simulate_makespan(100, 25, 5, 0, 1e15, rng)
        assert makespan == pytest.approx(100 + 3 * 5)

    def test_simulation_guard_rail(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError, match="exceeded"):
            simulate_makespan(1000, None, 0, 0, 1.0, rng, max_makespan=10_000)

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            expected_makespan(0, 10, 1, 1, 100)
        with pytest.raises(ConfigError):
            expected_makespan(10, 0, 1, 1, 100)
        with pytest.raises(ConfigError):
            no_checkpoint_makespan(10, -1, 100)
        with pytest.raises(ConfigError):
            simulate_makespan(10, 0, 1, 1, 100, rng)
        with pytest.raises(ConfigError):
            mean_simulated_makespan(10, None, 0, 0, 100, rng, samples=0)


class TestHarness:
    def _factory(self):
        return lambda: make_classifier_trainer()

    def test_completes_without_failures(self, memory_store):
        result = run_with_failures(
            self._factory(),
            memory_store,
            lambda s: ServiceCheckpointManager(s, policy=EveryKSteps(3)),
            target_steps=6,
        )
        assert result.final_step == 6
        assert result.failures == 0
        assert result.wasted_steps == 0

    def test_crash_recover_loses_only_uncheckpointed_steps(self, memory_store):
        result = run_with_failures(
            self._factory(),
            memory_store,
            lambda s: ServiceCheckpointManager(s, policy=EveryKSteps(3)),
            target_steps=10,
            failure_hooks=[CrashAtStep(5)],
        )
        assert result.final_step == 10
        assert result.failures == 1
        # crashed at 5, last checkpoint at 3 -> steps 4..5 redone
        assert result.wasted_steps == 2
        assert result.resumed_from_steps == [3]

    def test_no_checkpointing_restarts_from_scratch(self, memory_store):
        result = run_with_failures(
            self._factory(),
            memory_store,
            None,
            target_steps=8,
            failure_hooks=[CrashAtStep(5)],
        )
        assert result.final_step == 8
        assert result.wasted_steps == 5

    def test_final_state_matches_uninterrupted_run(self, memory_store):
        reference = make_classifier_trainer()
        reference.run(10)
        run_with_failures(
            self._factory(),
            memory_store,
            lambda s: ServiceCheckpointManager(s, policy=EveryKSteps(2)),
            target_steps=10,
            failure_hooks=[CrashAtStep([3, 7])],
        )
        final = memory_store.load_snapshot("default")
        assert np.array_equal(final.params, reference.params)
        assert np.array_equal(
            final.loss_history, np.asarray(reference.loss_history)
        )

    def test_multiple_crashes(self, memory_store):
        result = run_with_failures(
            self._factory(),
            memory_store,
            lambda s: ServiceCheckpointManager(s, policy=EveryKSteps(2)),
            target_steps=12,
            failure_hooks=[CrashAtStep([3, 6, 9])],
        )
        assert result.final_step == 12
        assert result.failures == 3

    def test_max_failures_guard(self, memory_store):
        class AlwaysCrash:
            def on_step_end(self, trainer, info):
                raise SimulatedFailure(trainer.step_count)

        with pytest.raises(ConfigError, match="exceeded"):
            run_with_failures(
                self._factory(),
                memory_store,
                None,
                target_steps=5,
                failure_hooks=[AlwaysCrash()],
                max_failures=5,
            )

    def test_target_validation(self, memory_store):
        with pytest.raises(ConfigError):
            run_with_failures(self._factory(), memory_store, None, 0)
