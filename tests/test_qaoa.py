"""Tests for the QAOA MaxCut model (shared-parameter workload)."""

import networkx as nx
import numpy as np
import pytest

from repro.autodiff.finite_difference import finite_difference_gradient
from repro.autodiff.parameter_shift import parameter_shift_gradient
from repro.core.policy import EveryKSteps
from repro.errors import ConfigError
from repro.ml.models import QAOAMaxCutModel
from repro.ml.optimizers import Adam
from repro.ml.trainer import Trainer, TrainerConfig
from repro.service.manager import ServiceCheckpointManager

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


class TestConstruction:
    def test_edge_normalization_orders_and_sorts(self):
        a = QAOAMaxCutModel(3, [(2, 1), (1, 0), (2, 0)])
        b = QAOAMaxCutModel(3, [(0, 1), (0, 2), (1, 2)])
        assert a.edges == b.edges
        assert a.fingerprint() == b.fingerprint()

    def test_weighted_edges(self):
        model = QAOAMaxCutModel(2, [(0, 1, 2.5)])
        assert model.cut_value([0, 1]) == 2.5
        assert model.max_cut_brute_force() == 2.5

    def test_rejects_self_loop(self):
        with pytest.raises(ConfigError):
            QAOAMaxCutModel(2, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ConfigError):
            QAOAMaxCutModel(2, [(0, 2)])

    def test_rejects_empty_graph(self):
        with pytest.raises(ConfigError):
            QAOAMaxCutModel(3, [])

    def test_rejects_bad_edge_arity(self):
        with pytest.raises(ConfigError):
            QAOAMaxCutModel(3, [(0, 1, 1.0, 2.0)])

    def test_rejects_zero_layers(self):
        with pytest.raises(ConfigError):
            QAOAMaxCutModel(3, TRIANGLE, n_layers=0)

    def test_parameter_count_is_two_per_layer(self):
        model = QAOAMaxCutModel(5, [(0, 1), (2, 3)], n_layers=4)
        assert model.n_params == 8

    def test_from_networkx_with_weights(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=3.0)
        graph.add_edge("b", "c")
        model = QAOAMaxCutModel.from_networkx(graph, n_layers=1)
        assert model.n_qubits == 3
        assert model.max_cut_brute_force() == 4.0

    def test_fingerprint_depends_on_weights(self):
        a = QAOAMaxCutModel(2, [(0, 1, 1.0)])
        b = QAOAMaxCutModel(2, [(0, 1, 2.0)])
        assert a.fingerprint() != b.fingerprint()


class TestCutSemantics:
    def test_cut_value_triangle(self):
        model = QAOAMaxCutModel(3, TRIANGLE)
        assert model.cut_value([0, 0, 0]) == 0.0
        assert model.cut_value([0, 1, 1]) == 2.0
        assert model.cut_value([0, 1, 0]) == 2.0

    def test_cut_value_length_check(self):
        model = QAOAMaxCutModel(3, TRIANGLE)
        with pytest.raises(ConfigError):
            model.cut_value([0, 1])

    def test_brute_force_triangle(self):
        assert QAOAMaxCutModel(3, TRIANGLE).max_cut_brute_force() == 2.0

    def test_brute_force_bipartite_cuts_everything(self):
        model = QAOAMaxCutModel.from_networkx(nx.complete_bipartite_graph(2, 3))
        assert model.max_cut_brute_force() == 6.0

    def test_hamiltonian_minimum_is_negative_maxcut(self):
        model = QAOAMaxCutModel(3, TRIANGLE)
        ground = model.hamiltonian.ground_energy(3)
        assert ground == pytest.approx(-model.max_cut_brute_force(), abs=1e-9)

    def test_expected_cut_is_negated_energy(self, rng):
        model = QAOAMaxCutModel(3, TRIANGLE, n_layers=2)
        params = model.init_params(rng)
        assert model.expected_cut(params) == pytest.approx(
            -model.energy(params), abs=1e-12
        )


class TestGradients:
    def test_adjoint_matches_finite_difference(self, rng):
        model = QAOAMaxCutModel(4, [(0, 1), (1, 2), (2, 3), (3, 0)], n_layers=2)
        params = 0.4 * rng.standard_normal(model.n_params)
        _, grads = model.loss_and_grad(params)
        numeric = finite_difference_gradient(
            model.ansatz, params, model.hamiltonian
        )
        np.testing.assert_allclose(grads, numeric, atol=1e-6)

    def test_shared_parameters_shift_rule(self, rng):
        # gamma/beta feed many gates; the shift rule must sum occurrences.
        model = QAOAMaxCutModel(3, TRIANGLE, n_layers=1)
        params = 0.4 * rng.standard_normal(model.n_params)
        shift = parameter_shift_gradient(model.ansatz, params, model.hamiltonian)
        _, adjoint = model.loss_and_grad(params)
        np.testing.assert_allclose(shift, adjoint, atol=1e-10)

    def test_shot_mode_requires_rng(self, rng):
        model = QAOAMaxCutModel(3, TRIANGLE)
        with pytest.raises(ConfigError):
            model.loss_and_grad(model.init_params(rng), shots=64)

    def test_shot_gradient_is_unbiased_estimate(self, rng):
        model = QAOAMaxCutModel(3, TRIANGLE, n_layers=1)
        params = 0.4 * rng.standard_normal(model.n_params)
        loss, grads = model.loss_and_grad(params, shots=4096, rng=rng)
        exact_loss, exact_grads = model.loss_and_grad(params)
        assert loss == pytest.approx(exact_loss, abs=0.2)
        np.testing.assert_allclose(grads, exact_grads, atol=0.5)


class TestTraining:
    def test_training_approaches_optimum(self):
        model = QAOAMaxCutModel.from_networkx(nx.cycle_graph(6), n_layers=3)
        trainer = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=3))
        trainer.run(60)
        ratio = model.expected_cut(trainer.params) / model.max_cut_brute_force()
        assert ratio > 0.9

    def test_sample_cut_finds_optimum_after_training(self, rng):
        model = QAOAMaxCutModel.from_networkx(nx.cycle_graph(6), n_layers=3)
        trainer = Trainer(model, Adam(lr=0.1), config=TrainerConfig(seed=3))
        trainer.run(60)
        bits, value = model.sample_cut(trainer.params, shots=256, rng=rng)
        assert value == model.max_cut_brute_force()
        assert model.cut_value(bits) == value

    def test_exact_resume(self, memory_store):
        model = QAOAMaxCutModel(4, [(0, 1), (1, 2), (2, 3)], n_layers=2)
        config = TrainerConfig(seed=5)
        reference = Trainer(model, Adam(lr=0.1), config=config)
        reference.run(12)

        trainer = Trainer(model, Adam(lr=0.1), config=config)
        manager = ServiceCheckpointManager(
            memory_store, policy=EveryKSteps(4)
        )
        trainer.run(8, hooks=[manager])
        manager.close()

        resumed = Trainer(model, Adam(lr=0.1), config=config)
        assert manager.resume(resumed) is not None
        assert resumed.step_count == 8
        resumed.run(4)
        np.testing.assert_array_equal(resumed.params, reference.params)

    def test_statevector_provider_for_checkpointing(self, rng):
        model = QAOAMaxCutModel(3, TRIANGLE)
        params = model.init_params(rng)
        state = model.statevector(params)
        assert state.shape == (8,)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
