"""Unit tests for the trainer: determinism, capture/restore, hooks."""

import numpy as np
import pytest

from repro.errors import ConfigError, IncompatibleCheckpointError
from repro.ml.dataset import make_moons
from repro.ml.models import VariationalClassifier, VQEModel
from repro.ml.optimizers import SGD, AdaGrad, Adam, RMSProp
from repro.ml.trainer import Trainer, TrainerConfig
from repro.quantum.observables import Hamiltonian
from repro.quantum.templates import hardware_efficient


def make_classifier_trainer(seed=11, shots=None, lr=0.05):
    rng = np.random.default_rng(7)
    dataset = make_moons(24, rng, noise=0.1)
    model = VariationalClassifier(hardware_efficient(2, 1))
    config = TrainerConfig(batch_size=6, seed=seed, shots=shots)
    return Trainer(model, Adam(lr=lr), dataset, config)


def make_vqe_trainer(seed=3, capture_statevector=False):
    model = VQEModel(hardware_efficient(2, 2), Hamiltonian.h2_minimal())
    config = TrainerConfig(seed=seed, capture_statevector=capture_statevector)
    return Trainer(model, Adam(lr=0.1), config=config)


class RecordingHook:
    def __init__(self):
        self.events = []

    def on_run_start(self, trainer):
        self.events.append(("start", trainer.step_count))

    def on_step_end(self, trainer, info):
        self.events.append(("step", info.step))

    def on_run_end(self, trainer):
        self.events.append(("end", trainer.step_count))


class ExplodingHook:
    def on_step_end(self, trainer, info):
        raise RuntimeError("boom")


class TestBasics:
    def test_run_advances_steps(self):
        trainer = make_vqe_trainer()
        reports = trainer.run(5)
        assert trainer.step_count == 5
        assert [r.step for r in reports] == [1, 2, 3, 4, 5]

    def test_loss_history_grows(self):
        trainer = make_vqe_trainer()
        trainer.run(4)
        assert len(trainer.loss_history) == 4
        assert trainer.last_loss == trainer.loss_history[-1]

    def test_last_loss_none_before_training(self):
        assert make_vqe_trainer().last_loss is None

    def test_vqe_loss_decreases(self):
        trainer = make_vqe_trainer()
        trainer.run(60)
        assert trainer.loss_history[-1] < trainer.loss_history[0]

    def test_classifier_trains(self):
        trainer = make_classifier_trainer()
        trainer.run(10)
        assert len(trainer.loss_history) == 10

    def test_deterministic_given_seed(self):
        a = make_classifier_trainer()
        b = make_classifier_trainer()
        a.run(6)
        b.run(6)
        assert np.array_equal(a.params, b.params)

    def test_different_seed_differs(self):
        a = make_classifier_trainer(seed=1)
        b = make_classifier_trainer(seed=2)
        a.run(4)
        b.run(4)
        assert not np.array_equal(a.params, b.params)

    def test_wall_time_accumulates(self):
        trainer = make_vqe_trainer()
        trainer.run(3)
        assert trainer.wall_time > 0

    def test_explicit_params_respected(self):
        model = VQEModel(hardware_efficient(2, 1), Hamiltonian.h2_minimal())
        params = np.full(model.n_params, 0.25)
        trainer = Trainer(model, SGD(lr=0.1), params=params)
        assert np.array_equal(trainer.params, params)
        params[0] = 99.0  # caller's array must not alias
        assert trainer.params[0] == 0.25

    def test_params_shape_validated(self):
        model = VQEModel(hardware_efficient(2, 1), Hamiltonian.h2_minimal())
        with pytest.raises(ConfigError):
            Trainer(model, SGD(), params=np.zeros(3))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainerConfig(shots=0)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigError):
            make_vqe_trainer().run(-1)


class TestHooks:
    def test_hook_lifecycle(self):
        trainer = make_vqe_trainer()
        hook = RecordingHook()
        trainer.run(3, hooks=[hook])
        assert hook.events[0] == ("start", 0)
        assert hook.events[-1] == ("end", 3)
        assert [e for e in hook.events if e[0] == "step"] == [
            ("step", 1),
            ("step", 2),
            ("step", 3),
        ]

    def test_hook_exception_propagates_but_run_end_fires(self):
        trainer = make_vqe_trainer()
        recorder = RecordingHook()
        with pytest.raises(RuntimeError, match="boom"):
            trainer.run(5, hooks=[ExplodingHook(), recorder])
        assert ("end", 1) in recorder.events

    def test_partial_hooks_allowed(self):
        class OnlyStep:
            def __init__(self):
                self.count = 0

            def on_step_end(self, trainer, info):
                self.count += 1

        hook = OnlyStep()
        make_vqe_trainer().run(2, hooks=[hook])
        assert hook.count == 2


class TestCaptureRestore:
    @pytest.mark.parametrize("shots", [None, 128])
    def test_bitwise_resume_classifier(self, shots):
        reference = make_classifier_trainer(shots=shots)
        reference.run(10)

        first = make_classifier_trainer(shots=shots)
        first.run(4)
        snapshot = first.capture()

        second = make_classifier_trainer(shots=shots)
        second.restore(snapshot)
        second.run(6)
        assert np.array_equal(second.params, reference.params)
        assert second.loss_history == reference.loss_history

    def test_bitwise_resume_vqe(self):
        reference = make_vqe_trainer()
        reference.run(12)
        first = make_vqe_trainer()
        first.run(5)
        snapshot = first.capture()
        second = make_vqe_trainer()
        second.restore(snapshot)
        second.run(7)
        assert np.array_equal(second.params, reference.params)

    def test_capture_is_deep_copy(self):
        trainer = make_vqe_trainer()
        trainer.run(2)
        snapshot = trainer.capture()
        trainer.run(2)
        assert snapshot.step == 2
        assert len(snapshot.loss_history) == 2

    @pytest.mark.parametrize("lite", [False, True])
    @pytest.mark.parametrize(
        "optimizer",
        [
            lambda: SGD(lr=0.1, momentum=0.9),
            lambda: Adam(lr=0.1, amsgrad=True),
            lambda: RMSProp(lr=0.05, momentum=0.5),
            lambda: AdaGrad(lr=0.1),
        ],
    )
    def test_capture_owns_everything_it_holds(self, optimizer, lite):
        """``capture`` is the one place that guarantees ownership: the
        service manager queues its result without another copy, so nothing
        the trainer does afterwards, in place or not, may reach it."""
        dataset = make_moons(24, np.random.default_rng(7), noise=0.1)
        trainer = Trainer(
            VariationalClassifier(hardware_efficient(2, 1)),
            optimizer(),
            dataset,
            TrainerConfig(batch_size=6, seed=11, capture_statevector=True),
        )
        trainer.model.statevector = lambda params: np.full(
            4, 0.5, dtype=np.complex128
        )
        trainer.run(3)
        snapshot = trainer.capture(lite=lite)
        frozen = snapshot.copy()
        assert (snapshot.statevector is None) == lite

        # in-place mutation of every array the trainer and optimizer hold
        trainer.params += 1.0
        for value in vars(trainer.optimizer).values():
            if isinstance(value, np.ndarray):
                value += 1.0
        trainer.optimizer.t += 5
        trainer.sampler._permutation[:] = trainer.sampler._permutation[::-1]
        trainer.loss_history.append(123.0)
        trainer.rng.standard_normal(8)
        trainer.run(4)  # and the ordinary way: more training

        assert snapshot == frozen
        held = [snapshot.params, snapshot.loss_history]
        held += [
            v for v in snapshot.optimizer_state["slots"].values()
            if isinstance(v, np.ndarray)
        ]
        held.append(snapshot.sampler_state["permutation"])
        live = [trainer.params, trainer.sampler._permutation] + [
            v for v in vars(trainer.optimizer).values()
            if isinstance(v, np.ndarray)
        ]
        assert not any(np.shares_memory(a, b) for a in held for b in live)

    def test_capture_includes_statevector_when_configured(self):
        trainer = make_vqe_trainer(capture_statevector=True)
        trainer.run(1)
        assert trainer.capture().statevector is not None

    def test_capture_omits_statevector_by_default(self):
        trainer = make_vqe_trainer()
        trainer.run(1)
        assert trainer.capture().statevector is None

    def test_restore_rejects_other_model(self):
        vqe = make_vqe_trainer()
        vqe.run(2)
        classifier = make_classifier_trainer()
        with pytest.raises(IncompatibleCheckpointError):
            classifier.restore(vqe.capture())

    def test_restore_rejects_sampler_state_without_dataset(self):
        classifier = make_classifier_trainer()
        classifier.run(2)
        snapshot = classifier.capture()
        model = classifier.model
        bare = Trainer(model, Adam(lr=0.05), config=TrainerConfig(seed=11))
        with pytest.raises(ConfigError):
            bare.restore(snapshot)

    def test_restore_resets_step_count(self):
        trainer = make_vqe_trainer()
        trainer.run(6)
        snapshot = trainer.capture()
        trainer.run(4)
        trainer.restore(snapshot)
        assert trainer.step_count == 6
        assert len(trainer.loss_history) == 6

    def test_wall_time_restored(self):
        trainer = make_vqe_trainer()
        trainer.run(3)
        snapshot = trainer.capture()
        fresh = make_vqe_trainer()
        fresh.restore(snapshot)
        assert fresh.wall_time == snapshot.wall_time
