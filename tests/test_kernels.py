"""Property tests: the fast execution engine against the reference kernel.

The tensor-contraction :func:`repro.quantum.statevector.apply_gate` is the
machine-precision oracle.  These tests drive the fast in-place kernels,
single-qubit fusion, matrix caching, and the batched execution paths across
every registered gate, random circuits, random wire orders (including
reversed-wire two-qubit gates), and both gradient engines.
"""

import numpy as np
import pytest

from repro.autodiff.finite_difference import finite_difference_gradient
from repro.autodiff.parameter_shift import parameter_shift_gradient
from repro.quantum import gates as G
from repro.quantum import kernels
from repro.quantum.circuit import Circuit
from repro.quantum.haar import haar_state, random_circuit
from repro.quantum.observables import Hamiltonian, PauliString, Projector
from repro.quantum.statevector import apply_gate, zero_state
from repro.quantum.templates import hardware_efficient, qaoa_maxcut

ATOL = 1e-12


def reference_run(circuit, params=None, initial_state=None):
    """Per-gate tensordot execution (the seed path)."""
    values = np.zeros(circuit.n_params) if params is None else np.asarray(params)
    state = (
        zero_state(circuit.n_qubits)
        if initial_state is None
        else np.array(initial_state, dtype=np.complex128, copy=True)
    )
    for op in circuit.ops:
        state = apply_gate(state, op.matrix(values), op.wires, circuit.n_qubits)
    return state


def random_params(spec, rng):
    return tuple(float(x) for x in rng.uniform(0, 2 * np.pi, spec.n_params))


class TestKernelsMatchReference:
    @pytest.mark.parametrize("gate", sorted(G.REGISTRY))
    def test_every_registered_gate(self, gate, rng):
        """Each gate on random wires of random states matches the oracle."""
        spec = G.REGISTRY[gate]
        for n in range(spec.n_wires, spec.n_wires + 3):
            for _ in range(3):
                wires = tuple(
                    int(w) for w in rng.choice(n, spec.n_wires, replace=False)
                )
                params = random_params(spec, rng)
                circuit = Circuit(n).append(gate, wires, params)
                initial = haar_state(n, rng)
                fast = kernels.run(circuit, initial_state=initial)
                ref = reference_run(circuit, initial_state=initial)
                assert np.allclose(fast, ref, atol=ATOL), (gate, n, wires)

    def test_reversed_wire_two_qubit_gates(self, rng):
        """(b, a) wire order must transpose the kernel's quarter views."""
        for gate in ["cnot", "cz", "swap", "iswap", "crx", "cry", "crz", "xx"]:
            spec = G.REGISTRY[gate]
            circuit = Circuit(3)
            circuit.append(gate, (2, 0), random_params(spec, rng))
            initial = haar_state(3, rng)
            fast = kernels.run(circuit, initial_state=initial)
            ref = reference_run(circuit, initial_state=initial)
            assert np.allclose(fast, ref, atol=ATOL), gate

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits(self, seed):
        """Random 1-8 qubit circuits, fused and unfused, match the oracle."""
        rng = np.random.default_rng(seed)
        n = 1 + seed % 8
        circuit = random_circuit(n, 25, rng, parametric=bool(seed % 2))
        initial = haar_state(n, rng)
        ref = reference_run(circuit, initial_state=initial)
        fused = kernels.run(circuit, initial_state=initial, fuse=True)
        unfused = kernels.run(circuit, initial_state=initial, fuse=False)
        assert np.allclose(fused, ref, atol=ATOL)
        assert np.allclose(unfused, ref, atol=ATOL)

    def test_three_qubit_gates(self, rng):
        """Toffoli/Fredkin exercise the specialized 3-qubit permutation kernel."""
        circuit = Circuit(4)
        circuit.h(0).toffoli(0, 1, 3).append("fredkin", (3, 0, 2))
        initial = haar_state(4, rng)
        fast = kernels.run(circuit, initial_state=initial)
        ref = reference_run(circuit, initial_state=initial)
        assert np.allclose(fast, ref, atol=ATOL)

    @pytest.mark.parametrize("gate", ["toffoli", "fredkin"])
    def test_three_qubit_kernel_every_wire_order(self, gate, rng):
        """All 3! orderings of 3 wires on 3-5 qubits match the oracle."""
        from itertools import permutations

        for n in (3, 4, 5):
            base = tuple(int(w) for w in rng.choice(n, 3, replace=False))
            for wires in permutations(base):
                circuit = Circuit(n).append(gate, wires, ())
                initial = haar_state(n, rng)
                fast = kernels.run(circuit, initial_state=initial)
                ref = reference_run(circuit, initial_state=initial)
                assert np.allclose(fast, ref, atol=ATOL), (gate, n, wires)

    def test_three_qubit_dense_kernel_matches_reference(self, rng):
        """Random dense, diagonal, and batched 8x8 matrices match the oracle."""
        n = 5
        z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        unitary, _ = np.linalg.qr(z)
        diagonal = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
        for matrix in (unitary, diagonal):
            for wires in ((0, 2, 4), (4, 1, 3), (3, 4, 0)):
                initial = haar_state(n, rng)
                fast = initial.copy()
                kernels.apply_matrix_inplace(fast, matrix, wires, n)
                ref = apply_gate(initial, matrix, wires, n)
                assert np.allclose(fast, ref, atol=ATOL), wires
        # Per-column (B, 8, 8) stacks on an amplitude-major batch.
        batch = 4
        stacks = np.stack(
            [np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
             for _ in range(batch)]
        )
        states = np.stack([haar_state(n, rng) for _ in range(batch)], axis=1)
        fast = states.copy()
        wires = (4, 0, 2)
        kernels.apply_matrix_inplace(fast, stacks, wires, n, tail=batch)
        for b in range(batch):
            ref = apply_gate(np.ascontiguousarray(states[:, b]), stacks[b], wires, n)
            assert np.allclose(fast[:, b], ref, atol=ATOL), b

    def test_fusion_across_interleaved_entanglers(self, rng):
        """Pending 1q products must flush correctly at 2q barriers."""
        circuit = Circuit(3)
        t = circuit.new_param()
        circuit.rx(0, 0.3).rz(0, 0.7).ry(1, t).h(2)
        circuit.cnot(0, 1).rz(0, 1.1).s(1).cz(1, 2).rx(2, t).t(2)
        params = [0.9]
        fast = kernels.run(circuit, params)
        ref = reference_run(circuit, params)
        assert np.allclose(fast, ref, atol=ATOL)

    def test_run_with_overrides_matches_reference(self, rng):
        circuit = hardware_efficient(3, 2)
        params = rng.uniform(0, np.pi, circuit.n_params)
        overrides = {0: [(0, 2.2)], 5: [(0, -0.4)]}
        fast = kernels.run(circuit, params, overrides=overrides)
        bound = Circuit(circuit.n_qubits)
        for position, op in enumerate(circuit.ops):
            resolved = list(op.resolve(params))
            for slot, value in overrides.get(position, ()):
                resolved[slot] = value
            bound.append(op.gate, op.wires, tuple(resolved))
        assert np.allclose(fast, reference_run(bound), atol=ATOL)


class TestBatchedExecution:
    def test_run_batch_matches_individual_runs(self, rng):
        circuit = hardware_efficient(4, 2)
        params_batch = rng.uniform(0, np.pi, (7, circuit.n_params))
        states = kernels.run_batch(circuit, params_batch)
        assert states.shape == (7, 2**4)
        for row, params in zip(states, params_batch):
            assert np.allclose(row, reference_run(circuit, params), atol=ATOL)

    def test_run_batch_column_layout(self, rng):
        circuit = hardware_efficient(3, 1)
        params_batch = rng.uniform(0, np.pi, (5, circuit.n_params))
        rows = kernels.run_batch(circuit, params_batch)
        cols = kernels.run_batch(circuit, params_batch, columns=True)
        assert cols.shape == (2**3, 5)
        assert np.allclose(cols.T, rows, atol=ATOL)

    def test_run_batch_with_initial_state(self, rng):
        circuit = hardware_efficient(3, 1)
        params_batch = rng.uniform(0, np.pi, (4, circuit.n_params))
        initial = haar_state(3, rng)
        states = kernels.run_batch(circuit, params_batch, initial_state=initial)
        for row, params in zip(states, params_batch):
            expected = reference_run(circuit, params, initial_state=initial)
            assert np.allclose(row, expected, atol=ATOL)

    def test_run_shifted_batch_matches_per_element_runs(self, rng):
        """Base-plus-column-correction equals direct substitution."""
        circuit = hardware_efficient(4, 2)
        params = rng.uniform(0, np.pi, circuit.n_params)
        trainable = [pos for pos, _ in circuit.trainable_ops]
        batch = []
        for pos in trainable[:10]:
            batch.append({pos: [(0, float(rng.uniform(0, np.pi)))]})
        states = kernels.run_shifted_batch(circuit, params, batch)
        for element, row in zip(batch, states):
            direct = kernels.run(circuit, params, overrides=element)
            assert np.allclose(row, direct, atol=ATOL)

    def test_shifted_batch_multi_position_overrides(self, rng):
        """One element overriding several ops (the FD shape) stays exact."""
        circuit = qaoa_maxcut(4, [(0, 1), (1, 2), (2, 3)], 2)
        params = rng.uniform(0, np.pi, circuit.n_params)
        shared_positions = [
            pos
            for pos, op in circuit.trainable_ops
            if op.params[0].index == 0
        ]
        element = {pos: [(0, 1.234)] for pos in shared_positions}
        states = kernels.run_shifted_batch(circuit, params, [element, {}])
        direct = kernels.run(circuit, params, overrides=element)
        plain = kernels.run(circuit, params)
        assert np.allclose(states[0], direct, atol=ATOL)
        assert np.allclose(states[1], plain, atol=ATOL)

    def test_empty_batches(self):
        circuit = hardware_efficient(2, 1)
        assert kernels.run_shifted_batch(circuit, np.zeros(circuit.n_params), []).shape == (0, 4)
        assert kernels.run_batch(circuit, np.zeros((0, circuit.n_params))).shape == (0, 4)


class TestBatchedExpectations:
    def test_pauli_and_hamiltonian_batch_layouts(self, rng):
        h = Hamiltonian.transverse_field_ising(4, 1.0, 0.7)
        states = np.stack([haar_state(4, rng) for _ in range(5)])
        per_state = np.array([h.expectation(s) for s in states])
        assert np.allclose(h.expectation_batch(states), per_state, atol=ATOL)
        cols = np.ascontiguousarray(states.T)
        assert np.allclose(
            h.expectation_batch(cols, columns=True), per_state, atol=ATOL
        )

    def test_identity_term_batch(self, rng):
        obs = PauliString.identity(2.5)
        states = np.stack([haar_state(3, rng) for _ in range(4)])
        assert np.allclose(obs.expectation_batch(states), 2.5, atol=ATOL)

    def test_projector_batch_layouts(self, rng):
        target = haar_state(3, rng)
        proj = Projector(target, coeff=1.5)
        states = np.stack([haar_state(3, rng) for _ in range(4)])
        per_state = np.array([proj.expectation(s) for s in states])
        assert np.allclose(proj.expectation_batch(states), per_state, atol=ATOL)
        cols = np.ascontiguousarray(states.T)
        assert np.allclose(
            proj.expectation_batch(cols, columns=True), per_state, atol=ATOL
        )


class TestGradientParity:
    def _cases(self):
        rng = np.random.default_rng(17)
        hea = hardware_efficient(4, 2)
        qaoa = qaoa_maxcut(4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2)
        ctrl = Circuit(3)
        ctrl.h(0).crx(0, 1, ctrl.new_param()).cry(1, 2, ctrl.new_param())
        ctrl.crz(2, 0, ctrl.new_param())
        tfim = Hamiltonian.transverse_field_ising(3, 1.0, 0.6)
        tfim4 = Hamiltonian.transverse_field_ising(4, 1.0, 0.6)
        return [
            ("hea", hea, rng.uniform(0, np.pi, hea.n_params), tfim4),
            ("qaoa-shared", qaoa, rng.uniform(0, np.pi, qaoa.n_params), tfim4),
            ("four-term", ctrl, rng.uniform(0, np.pi, ctrl.n_params), tfim),
        ]

    def test_batched_shift_rule_matches_reference_engine(self):
        for name, circuit, params, obs in self._cases():
            fast = parameter_shift_gradient(circuit, params, obs)
            ref = parameter_shift_gradient(circuit, params, obs, engine="reference")
            assert np.allclose(fast, ref, atol=ATOL), name

    def test_batched_finite_difference_matches_reference_engine(self):
        for name, circuit, params, obs in self._cases():
            fast = finite_difference_gradient(circuit, params, obs)
            ref = finite_difference_gradient(
                circuit, params, obs, engine="reference"
            )
            assert np.allclose(fast, ref, atol=1e-7), name

    def test_batched_shift_rule_with_initial_state(self, rng):
        circuit = hardware_efficient(3, 1)
        params = rng.uniform(0, np.pi, circuit.n_params)
        initial = haar_state(3, rng)
        obs = Hamiltonian.transverse_field_ising(3, 1.0, 0.6)
        fast = parameter_shift_gradient(circuit, params, obs, initial_state=initial)
        ref = parameter_shift_gradient(
            circuit, params, obs, initial_state=initial, engine="reference"
        )
        assert np.allclose(fast, ref, atol=ATOL)

    def test_shot_based_batched_gradient_is_reproducible(self):
        circuit = hardware_efficient(2, 1)
        params = np.linspace(0.1, 0.9, circuit.n_params)
        obs = PauliString.from_label("Z0")
        a = parameter_shift_gradient(
            circuit, params, obs, shots=256, rng=np.random.default_rng(3)
        )
        b = parameter_shift_gradient(
            circuit, params, obs, shots=256, rng=np.random.default_rng(3)
        )
        assert np.array_equal(a, b)

    def test_shot_based_batched_gradient_converges(self):
        circuit = Circuit(1)
        circuit.ry(0, circuit.new_param())
        theta = 0.9
        grads = parameter_shift_gradient(
            circuit,
            [theta],
            PauliString.from_label("Z0"),
            shots=40000,
            rng=np.random.default_rng(11),
        )
        assert abs(grads[0] + np.sin(theta)) < 0.03


class TestMatrixCache:
    def test_cache_returns_frozen_shared_matrices(self):
        kernels.clear_caches()
        a = kernels.cached_matrix("rx", (0.5,))
        b = kernels.cached_matrix("rx", (0.5,))
        assert a is b
        assert not a.flags.writeable
        info = kernels.cache_info()
        assert info["matrix"]["hits"] >= 1

    def test_prime_circuit_cache(self):
        kernels.clear_caches()
        circuit = hardware_efficient(3, 1)
        kernels.prime_circuit_cache(circuit, np.zeros(circuit.n_params))
        assert kernels.cache_info()["matrix"]["currsize"] == len(
            set((op.gate, op.resolve(np.zeros(circuit.n_params))) for op in circuit.ops)
        )

    def test_caches_stay_bounded_over_moving_parameters(self):
        # An optimizer never revisits a parameter vector: every step's trained
        # gates are new keys.  The caches must hold their bound regardless.
        kernels.clear_caches()
        bound = kernels.MATRIX_CACHE_SIZE
        for k in range(3 * bound):
            kernels.cached_matrix("ry", (1e-3 * k,))
            kernels.cached_derivative("ry", (1e-3 * k,), 0)
        info = kernels.cache_info()
        assert info["matrix"]["maxsize"] == info["derivative"]["maxsize"] == bound
        assert info["matrix"]["currsize"] <= bound
        assert info["derivative"]["currsize"] <= bound

    def test_gradients_of_a_circuit_larger_than_the_cache(self):
        # More distinct gates than the cache holds: every lookup of the sweep
        # evicts, and the gradients must not notice.
        from repro.autodiff import adjoint_gradient

        kernels.clear_caches()
        n_fixed = kernels.MATRIX_CACHE_SIZE + 64
        circuit = Circuit(3)
        trained = circuit.new_params(6)
        for k in range(n_fixed):
            (circuit.rx if k % 2 else circuit.rz)(k % 3, 0.01 + 1e-4 * k)
            if k % (n_fixed // 6) == 0 and trained:
                circuit.ry(k % 3, trained.pop())
                circuit.cnot(k % 3, (k + 1) % 3)
        assert not trained
        params = np.linspace(0.2, 1.4, circuit.n_params)
        obs = Hamiltonian.transverse_field_ising(3, 1.0, 0.6)
        ref = parameter_shift_gradient(circuit, params, obs, engine="reference")
        assert np.allclose(
            parameter_shift_gradient(circuit, params, obs), ref, atol=1e-9
        )
        assert np.allclose(adjoint_gradient(circuit, params, obs), ref, atol=1e-9)
        assert kernels.cache_info()["matrix"]["currsize"] <= kernels.MATRIX_CACHE_SIZE

    def test_cached_derivative_matches_gates_module(self):
        d_cached = kernels.cached_derivative("ry", (0.7,), 0)
        d_direct = G.derivative_for("ry", (0.7,), 0)
        assert np.allclose(d_cached, d_direct, atol=0)
