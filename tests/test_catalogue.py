"""The workload catalogue (repro.ml.catalogue): one recipe per trainer."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.ml.catalogue import (
    BUILTIN_WORKLOADS,
    build_trainer,
    checked,
    parameters,
)


class TestTrainerFactories:
    def test_classifier_trainer_deterministic(self):
        a = build_trainer("classifier", qubits=4, samples=16, seed=3)
        b = build_trainer("classifier", qubits=4, samples=16, seed=3)
        a.run(3)
        b.run(3)
        np.testing.assert_array_equal(a.params, b.params)

    def test_classifier_workload_shapes(self):
        trainer = build_trainer("classifier", qubits=4, samples=20)
        assert len(trainer.dataset) == 20
        assert trainer.model.n_qubits == 4

    def test_vqe_trainer_captures_statevector(self):
        trainer = build_trainer("vqe", qubits=4, seed=2)
        trainer.run(1)
        snapshot = trainer.capture()
        assert snapshot.statevector is not None
        assert snapshot.statevector.shape == (16,)

    def test_vqe_trainer_loss_decreases(self):
        trainer = build_trainer("vqe", qubits=4, seed=2)
        reports = trainer.run(12)
        assert reports[-1].loss < reports[0].loss


class TestParameters:
    def test_a_factory_builds_a_fresh_trainer_each_call(self):
        factory = BUILTIN_WORKLOADS["classifier"]({"qubits": 2, "samples": 8})
        first, second = factory(), factory()
        first.run(2)
        assert first is not second and second.step_count == 0

    def test_defaults_fill_what_is_not_given(self):
        trainer = build_trainer("classifier")
        defaults = BUILTIN_WORKLOADS["classifier"].defaults
        assert trainer.model.n_qubits == defaults["qubits"]
        assert len(trainer.dataset) == defaults["samples"]
        assert trainer.config.shots is None  # shots 0: exact values

    def test_shots_reach_the_trainer(self):
        trainer = build_trainer("classifier", qubits=2, shots=1024)
        assert trainer.config.shots == 1024

    def test_an_int_is_taken_where_a_float_is_wanted(self):
        assert type(checked("lr", 1, float)) is float
        factory = BUILTIN_WORKLOADS["classifier"]({"lr": 1})
        assert type(factory.keywords["lr"]) is float

    @pytest.mark.parametrize(
        "workload, params, key",
        [
            ("classifier", {"qubtis": 3}, "qubtis"),
            ("vqe", {"samples": 8}, "samples"),
            ("vqe", {"layers": 2}, "layers"),
            ("classifier", {"qubits": 2.0}, "qubits"),
            ("classifier", {"qubits": True}, "qubits"),
            ("classifier", {"lr": "0.1"}, "lr"),
            ("classifier", {"gradient_method": 1}, "gradient_method"),
        ],
    )
    def test_unknown_key_or_wrong_type_is_refused(self, workload, params, key):
        with pytest.raises(ConfigError, match=key):
            BUILTIN_WORKLOADS[workload](params)

    def test_shared_parameters_agree_on_their_type(self):
        # `qckpt daemon submit` derives one typed flag per parameter name.
        for key, defaults in parameters().items():
            kinds = {type(default) for default in defaults.values()}
            assert len(kinds) == 1, (key, defaults)
        assert set(parameters()["qubits"]) == {"classifier", "vqe"}
