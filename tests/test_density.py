"""Tests for the density-matrix engine, noisy gradients, and NoisyVQEModel."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autodiff.density_shift import (
    density_parameter_shift_gradient,
    execute_density_with_overrides,
)
from repro.errors import CircuitError, ConfigError, GradientError
from repro.ml.models import NoisyVQEModel, VQEModel
from repro.ml.optimizers import Adam
from repro.ml.trainer import Trainer, TrainerConfig
from repro.quantum.circuit import Circuit
from repro.quantum.density import (
    DensityMatrixSimulator,
    apply_circuit_density,
    apply_gate_density,
    apply_kraus_density,
    density_from_statevector,
    density_nbytes,
    expectation_density,
    fidelity_density,
    is_density_matrix,
    maximally_mixed,
    n_qubits_of_density,
    partial_trace,
    probabilities_density,
    purity,
    von_neumann_entropy,
    zero_density,
)
from repro.quantum.gates import CNOT, HADAMARD, PAULI_X
from repro.quantum.haar import haar_state
from repro.quantum.noise import NoiseModel, depolarizing_kraus, run_noisy
from repro.quantum.observables import Hamiltonian, PauliString, Projector
from repro.quantum.statevector import apply_circuit, probabilities, zero_state
from repro.quantum.templates import hardware_efficient

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_circuit_state(n: int, layers: int, seed: int):
    rng = np.random.default_rng(seed)
    circuit = hardware_efficient(n, layers)
    params = 0.3 * rng.standard_normal(circuit.n_params)
    return circuit, params


# ---------------------------------------------------------------------------
# Construction / validation
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_zero_density(self):
        rho = zero_density(3)
        assert rho.shape == (8, 8)
        assert rho[0, 0] == 1.0
        assert np.trace(rho) == pytest.approx(1.0)

    def test_zero_density_rejects_bad_width(self):
        with pytest.raises(CircuitError):
            zero_density(0)

    def test_density_from_statevector(self, rng):
        psi = haar_state(3, rng)
        rho = density_from_statevector(psi)
        assert is_density_matrix(rho)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = maximally_mixed(3)
        assert purity(rho) == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(3.0, abs=1e-10)

    def test_n_qubits_of_density_validation(self):
        with pytest.raises(CircuitError):
            n_qubits_of_density(np.zeros((4, 2), dtype=np.complex128))
        with pytest.raises(CircuitError):
            n_qubits_of_density(np.zeros((3, 3), dtype=np.complex128))
        with pytest.raises(CircuitError):
            n_qubits_of_density(np.zeros(4, dtype=np.complex128))

    def test_is_density_matrix_rejects_non_hermitian(self):
        rho = zero_density(2)
        rho[0, 1] = 1.0
        assert not is_density_matrix(rho)

    def test_is_density_matrix_rejects_wrong_trace(self):
        assert not is_density_matrix(2.0 * zero_density(2))

    def test_is_density_matrix_rejects_negative(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(np.complex128)
        assert not is_density_matrix(rho)

    def test_density_nbytes_scaling(self):
        assert density_nbytes(10) == 4**10 * 16
        assert density_nbytes(11) == 4 * density_nbytes(10)


# ---------------------------------------------------------------------------
# Unitary evolution agrees with the statevector engine
# ---------------------------------------------------------------------------


class TestUnitaryEvolution:
    def test_single_gate(self):
        rho = apply_gate_density(zero_density(1), HADAMARD, (0,))
        assert rho[0, 0] == pytest.approx(0.5)
        assert rho[0, 1] == pytest.approx(0.5)

    def test_gate_shape_validation(self):
        with pytest.raises(CircuitError):
            apply_gate_density(zero_density(2), HADAMARD, (0, 1))

    def test_circuit_matches_statevector(self):
        circuit, params = _random_circuit_state(4, 2, seed=9)
        psi = apply_circuit(circuit, params)
        rho = apply_circuit_density(circuit, params)
        np.testing.assert_allclose(
            rho, density_from_statevector(psi), atol=1e-12
        )

    def test_entangling_gate_on_noncontiguous_wires(self):
        circuit = Circuit(3).h(0).cnot(0, 2)
        psi = apply_circuit(circuit)
        rho = apply_circuit_density(circuit)
        np.testing.assert_allclose(
            rho, density_from_statevector(psi), atol=1e-12
        )

    def test_initial_state_width_check(self):
        circuit = Circuit(3).h(0)
        with pytest.raises(CircuitError):
            apply_circuit_density(circuit, initial=zero_density(2))

    def test_probabilities_match_statevector(self):
        circuit, params = _random_circuit_state(3, 2, seed=4)
        psi = apply_circuit(circuit, params)
        rho = apply_circuit_density(circuit, params)
        np.testing.assert_allclose(
            probabilities_density(rho), probabilities(psi), atol=1e-12
        )
        np.testing.assert_allclose(
            probabilities_density(rho, wires=(2, 0)),
            probabilities(psi, wires=(2, 0)),
            atol=1e-12,
        )

    def test_probabilities_wire_validation(self):
        rho = zero_density(2)
        with pytest.raises(CircuitError):
            probabilities_density(rho, wires=(0, 0))
        with pytest.raises(CircuitError):
            probabilities_density(rho, wires=(5,))


# ---------------------------------------------------------------------------
# Kraus channels
# ---------------------------------------------------------------------------


class TestKrausChannels:
    def test_trace_preserved(self):
        rho = apply_gate_density(zero_density(2), HADAMARD, (0,))
        out = apply_kraus_density(rho, depolarizing_kraus(0.3), (0,))
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert is_density_matrix(out)

    def test_full_depolarizing_reaches_maximally_mixed(self):
        rho = zero_density(1)
        out = apply_kraus_density(rho, depolarizing_kraus(0.75), (0,))
        np.testing.assert_allclose(out, maximally_mixed(1), atol=1e-12)

    def test_empty_kraus_rejected(self):
        with pytest.raises(CircuitError):
            apply_kraus_density(zero_density(1), [], (0,))

    def test_noise_reduces_purity(self):
        circuit, params = _random_circuit_state(3, 1, seed=2)
        clean = apply_circuit_density(circuit, params)
        noisy = apply_circuit_density(
            circuit, params, noise=NoiseModel(depolarizing=0.1)
        )
        assert purity(noisy) < purity(clean)

    def test_trivial_noise_model_is_identity(self):
        circuit, params = _random_circuit_state(3, 1, seed=2)
        clean = apply_circuit_density(circuit, params)
        trivial = apply_circuit_density(circuit, params, noise=NoiseModel())
        np.testing.assert_allclose(clean, trivial, atol=1e-14)

    def test_trajectory_average_converges_to_exact(self):
        circuit, params = _random_circuit_state(2, 1, seed=6)
        noise = NoiseModel(depolarizing=0.1)
        hamiltonian = Hamiltonian.transverse_field_ising(2, 1.0, 0.8)
        exact = expectation_density(
            apply_circuit_density(circuit, params, noise=noise), hamiltonian
        )
        rng = np.random.default_rng(123)
        samples = [
            float(hamiltonian.expectation(run_noisy(circuit, params, noise, rng)))
            for _ in range(3000)
        ]
        error = abs(np.mean(samples) - exact)
        tolerance = 5 * np.std(samples) / np.sqrt(len(samples))
        assert error < tolerance


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------


class TestExpectations:
    def test_pauli_expectation_matches_pure(self, rng):
        circuit, params = _random_circuit_state(3, 2, seed=7)
        psi = apply_circuit(circuit, params)
        rho = density_from_statevector(psi)
        for label in ("Z0", "X1 Z2", "Y0 X1 Z2"):
            observable = PauliString.from_label(label, coeff=0.7)
            assert expectation_density(rho, observable) == pytest.approx(
                observable.expectation(psi), abs=1e-10
            )

    def test_hamiltonian_expectation_matches_pure(self):
        circuit, params = _random_circuit_state(4, 2, seed=8)
        psi = apply_circuit(circuit, params)
        rho = density_from_statevector(psi)
        hamiltonian = Hamiltonian.heisenberg_chain(4, 1.0)
        assert expectation_density(rho, hamiltonian) == pytest.approx(
            hamiltonian.expectation(psi), abs=1e-10
        )

    def test_projector_expectation(self, rng):
        psi = haar_state(3, rng)
        rho = density_from_statevector(psi)
        assert expectation_density(rho, Projector(psi)) == pytest.approx(
            1.0, abs=1e-10
        )
        other = haar_state(3, rng)
        assert expectation_density(rho, Projector(other)) == pytest.approx(
            float(abs(np.vdot(other, psi)) ** 2), abs=1e-10
        )

    def test_identity_pauli_string(self):
        rho = maximally_mixed(2)
        assert expectation_density(rho, PauliString.identity(3.0)) == (
            pytest.approx(3.0, abs=1e-12)
        )


# ---------------------------------------------------------------------------
# Partial trace / fidelity / entropy
# ---------------------------------------------------------------------------


class TestReduction:
    def test_bell_state_reduction_is_mixed(self):
        circuit = Circuit(2).h(0).cnot(0, 1)
        rho = apply_circuit_density(circuit)
        reduced = partial_trace(rho, [0])
        np.testing.assert_allclose(reduced, maximally_mixed(1), atol=1e-12)

    def test_product_state_reduction_is_pure(self):
        circuit = Circuit(2).h(0)
        rho = apply_circuit_density(circuit)
        assert purity(partial_trace(rho, [0])) == pytest.approx(1.0, abs=1e-12)

    def test_partial_trace_wire_order(self, rng):
        psi = haar_state(3, rng)
        rho = density_from_statevector(psi)
        ab = partial_trace(rho, [0, 1])
        ba = partial_trace(rho, [1, 0])
        # Swapping the kept wires permutes the reduced matrix via SWAP.
        from repro.quantum.gates import SWAP

        np.testing.assert_allclose(SWAP @ ab @ SWAP, ba, atol=1e-12)

    def test_partial_trace_validation(self):
        rho = zero_density(2)
        with pytest.raises(CircuitError):
            partial_trace(rho, [])
        with pytest.raises(CircuitError):
            partial_trace(rho, [0, 0])
        with pytest.raises(CircuitError):
            partial_trace(rho, [3])

    def test_uhlmann_fidelity_pure_states(self, rng):
        a, b = haar_state(3, rng), haar_state(3, rng)
        expected = float(abs(np.vdot(a, b)) ** 2)
        assert fidelity_density(
            density_from_statevector(a), density_from_statevector(b)
        ) == pytest.approx(expected, abs=1e-7)

    def test_fidelity_mixed_vs_pure(self):
        rho = maximally_mixed(2)
        sigma = zero_density(2)
        assert fidelity_density(rho, sigma) == pytest.approx(0.25, abs=1e-10)

    def test_fidelity_shape_mismatch(self):
        with pytest.raises(CircuitError):
            fidelity_density(zero_density(2), zero_density(3))

    def test_entropy_pure_state_is_zero(self, rng):
        rho = density_from_statevector(haar_state(3, rng))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Simulator facade
# ---------------------------------------------------------------------------


class TestDensityMatrixSimulator:
    def test_noiseless_matches_statevector_sim(self):
        circuit, params = _random_circuit_state(3, 2, seed=5)
        hamiltonian = Hamiltonian.transverse_field_ising(3, 1.0, 0.8)
        dm = DensityMatrixSimulator()
        assert dm.expectation(circuit, params, hamiltonian) == pytest.approx(
            hamiltonian.expectation(apply_circuit(circuit, params)), abs=1e-10
        )

    def test_noise_model_fixed_at_construction(self):
        circuit, params = _random_circuit_state(2, 1, seed=5)
        noisy = DensityMatrixSimulator(NoiseModel(depolarizing=0.2))
        clean = DensityMatrixSimulator()
        observable = PauliString.from_label("Z0")
        assert abs(noisy.expectation(circuit, params, observable)) < abs(
            clean.expectation(circuit, params, observable)
        ) + 1e-12

    def test_expectations_batch(self):
        circuit, params = _random_circuit_state(2, 1, seed=5)
        dm = DensityMatrixSimulator()
        observables = [PauliString.from_label("Z0"), PauliString.from_label("Z1")]
        batch = dm.expectations(circuit, params, observables)
        singles = [dm.expectation(circuit, params, o) for o in observables]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        circuit, params = _random_circuit_state(3, 1, seed=5)
        dm = DensityMatrixSimulator(NoiseModel(amplitude_damping=0.1))
        probs = dm.probabilities(circuit, params)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert (probs >= -1e-12).all()


# ---------------------------------------------------------------------------
# Noisy gradients
# ---------------------------------------------------------------------------


class TestDensityShiftGradient:
    def _finite_difference(self, model, params, eps=1e-6):
        grads = np.zeros_like(params)
        for i in range(params.size):
            shift = np.zeros_like(params)
            shift[i] = eps
            grads[i] = (model.energy(params + shift) - model.energy(params - shift)) / (
                2 * eps
            )
        return grads

    def test_matches_finite_difference(self):
        model = NoisyVQEModel(
            hardware_efficient(3, 1),
            Hamiltonian.transverse_field_ising(3, 1.0, 0.8),
            NoiseModel(depolarizing=0.05, amplitude_damping=0.02),
        )
        params = model.init_params(np.random.default_rng(2))
        _, grads = model.loss_and_grad(params)
        np.testing.assert_allclose(
            grads, self._finite_difference(model, params), atol=1e-7
        )

    def test_noiseless_matches_statevector_shift(self, rng):
        circuit, params = _random_circuit_state(3, 1, seed=3)
        hamiltonian = Hamiltonian.transverse_field_ising(3, 1.0, 0.8)
        from repro.autodiff.parameter_shift import parameter_shift_gradient

        dense = density_parameter_shift_gradient(circuit, params, hamiltonian)
        pure = parameter_shift_gradient(circuit, params, hamiltonian)
        np.testing.assert_allclose(dense, pure, atol=1e-10)

    def test_four_term_rule_under_noise(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.crx(0, 1, circuit.new_param())
        observable = PauliString.from_label("Z1")
        noise = NoiseModel(phase_flip=0.05)
        params = np.array([0.7])

        def energy(values):
            return execute_density_with_overrides(
                circuit, values, observable, noise=noise
            )

        eps = 1e-6
        expected = (energy(params + eps) - energy(params - eps)) / (2 * eps)
        grads = density_parameter_shift_gradient(
            circuit, params, observable, noise=noise
        )
        assert grads[0] == pytest.approx(expected, abs=1e-7)

    def test_initial_density_width_check(self):
        circuit = Circuit(2).h(0)
        with pytest.raises(GradientError):
            execute_density_with_overrides(
                circuit,
                np.zeros(0),
                PauliString.from_label("Z0"),
                initial=zero_density(3),
            )


# ---------------------------------------------------------------------------
# NoisyVQEModel + trainer integration
# ---------------------------------------------------------------------------


class TestNoisyVQEModel:
    def _model(self, depolarizing=0.03):
        return NoisyVQEModel(
            hardware_efficient(2, 1),
            Hamiltonian.transverse_field_ising(2, 1.0, 0.8),
            NoiseModel(depolarizing=depolarizing),
        )

    def test_rejects_wide_hamiltonian(self):
        with pytest.raises(ConfigError):
            NoisyVQEModel(
                hardware_efficient(2, 1),
                Hamiltonian.transverse_field_ising(3, 1.0, 0.8),
                NoiseModel(),
            )

    def test_rejects_shot_mode(self):
        model = self._model()
        with pytest.raises(ConfigError):
            model.loss_and_grad(np.zeros(model.n_params), shots=100)

    def test_fingerprint_depends_on_noise(self):
        assert self._model(0.03).fingerprint() != self._model(0.05).fingerprint()

    def test_noisy_energy_above_noiseless_ground(self):
        model = self._model(depolarizing=0.1)
        clean = VQEModel(model.ansatz, model.hamiltonian)
        rng = np.random.default_rng(0)
        params = model.init_params(rng)
        # Depolarizing noise pulls expectations toward 0, so the noisy energy
        # cannot undercut the true ground energy.
        ground = model.hamiltonian.ground_energy(2)
        assert model.energy(params) >= ground - 1e-9
        assert clean.energy(params) >= ground - 1e-9

    def test_training_reduces_energy(self):
        model = self._model()
        trainer = Trainer(
            model,
            Adam(lr=0.1),
            config=TrainerConfig(seed=11, capture_statevector=True),
        )
        first = trainer.train_step().loss
        for _ in range(14):
            last = trainer.train_step().loss
        assert last < first

    def test_snapshot_carries_density_matrix(self):
        model = self._model()
        trainer = Trainer(
            model,
            Adam(lr=0.1),
            config=TrainerConfig(seed=11, capture_statevector=True),
        )
        trainer.train_step()
        snapshot = trainer.capture()
        assert snapshot.statevector is None
        rho = snapshot.extra["density_matrix"]
        assert rho.shape == (4, 4)
        assert is_density_matrix(rho)

    def test_exact_resume(self, memory_store):
        from repro.core.policy import EveryKSteps
        from repro.service.manager import ServiceCheckpointManager

        model = self._model()
        config = TrainerConfig(seed=21)
        trainer = Trainer(model, Adam(lr=0.1), config=config)
        manager = ServiceCheckpointManager(
            memory_store, policy=EveryKSteps(2)
        )
        trainer.run(4, hooks=[manager])
        manager.close()
        trainer.run(3)

        resumed = Trainer(self._model(), Adam(lr=0.1), config=config)
        assert manager.resume(resumed) is not None
        assert resumed.step_count == 4
        resumed.run(3)
        np.testing.assert_array_equal(resumed.params, trainer.params)


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------


@_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p=st.floats(min_value=0.0, max_value=0.5),
)
def test_property_channels_preserve_trace_and_positivity(seed, p):
    circuit, params = _random_circuit_state(2, 1, seed=seed)
    rho = apply_circuit_density(
        circuit, params, noise=NoiseModel(depolarizing=p, amplitude_damping=p / 2)
    )
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert is_density_matrix(rho, atol=1e-8)


@_SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_purity_bounds(seed):
    circuit, params = _random_circuit_state(2, 1, seed=seed)
    rho = apply_circuit_density(circuit, params, noise=NoiseModel(depolarizing=0.2))
    value = purity(rho)
    assert 1.0 / 4.0 - 1e-9 <= value <= 1.0 + 1e-9
