"""Canonical workloads for the evaluation.

The gradient workload and snapshots of controlled size/structure the
benchmark modules need are defined here once so figures are comparable to
each other; their trainers come from the catalogue
(:mod:`repro.ml.catalogue`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.snapshot import TrainingSnapshot
from repro.ml.optimizers import Adam
from repro.ml.rng import capture_rng_state
from repro.quantum.circuit import Circuit
from repro.quantum.haar import haar_state
from repro.quantum.observables import Hamiltonian
from repro.quantum.statevector import apply_circuit
from repro.quantum.templates import hardware_efficient, initial_parameters

DEFAULT_LAYERS = 4


def gradient_workload(
    n_qubits: int = 12,
    n_layers: int = DEFAULT_LAYERS,
    seed: int = 0,
) -> Tuple[Circuit, np.ndarray, Hamiltonian]:
    """The gradient-throughput workload the substrate benchmarks time.

    A hardware-efficient ansatz with a TFIM observable — the shape whose
    parameter-shift gradient costs ``2 * n_params`` circuit executions and is
    what the batched execution engine accelerates.
    """
    circuit = hardware_efficient(n_qubits, n_layers)
    params = initial_parameters(circuit, np.random.default_rng(seed))
    hamiltonian = Hamiltonian.transverse_field_ising(n_qubits, 1.0, 0.8)
    return circuit, params, hamiltonian


def hea_param_count(n_qubits: int, n_layers: int = DEFAULT_LAYERS) -> int:
    """Parameter count of the canonical hardware-efficient ansatz."""
    return hardware_efficient(n_qubits, n_layers).n_params


def synthetic_snapshot(
    n_qubits: int,
    seed: int = 0,
    n_layers: int = DEFAULT_LAYERS,
    statevector_kind: str = "haar",
    history_len: int = 200,
) -> TrainingSnapshot:
    """A snapshot of realistic shape for size/codec experiments.

    ``statevector_kind``:

    * ``"haar"`` — generic (incompressible) state,
    * ``"ansatz"`` — shallow-circuit state: amplitudes are *small* but not
      zero, so byte codecs barely compress it (their mantissas are still
      full-entropy) — lossy transforms and MPS are the tools for these,
    * ``"sparse"`` — low-excitation (W-state-like) superposition: all but
      ``n+1`` amplitudes are exactly zero, the case where byte codecs
      collapse the zero runs,
    * ``"none"`` — omit the statevector (parameters-only footprint).
    """
    rng = np.random.default_rng(seed)
    n_params = hea_param_count(n_qubits, n_layers)
    params = 0.1 * rng.standard_normal(n_params)

    optimizer = Adam(lr=0.05)
    optimizer.step(params, rng.standard_normal(n_params))

    if statevector_kind == "haar":
        statevector = haar_state(n_qubits, rng)
    elif statevector_kind == "ansatz":
        circuit = hardware_efficient(n_qubits, 1)
        statevector = apply_circuit(
            circuit, 0.1 * rng.standard_normal(circuit.n_params)
        )
    elif statevector_kind == "sparse":
        statevector = sparse_excitation_state(n_qubits, rng)
    elif statevector_kind == "none":
        statevector = None
    else:
        raise ValueError(f"unknown statevector_kind {statevector_kind!r}")

    return TrainingSnapshot(
        step=history_len,
        params=params,
        optimizer_state=optimizer.state_dict(),
        rng_state=capture_rng_state(rng),
        model_fingerprint="synthetic-" + str(n_qubits),
        loss_history=rng.standard_normal(history_len).cumsum(),
        statevector=statevector,
    )


def sparse_excitation_state(
    n_qubits: int, rng: np.random.Generator
) -> np.ndarray:
    """Random superposition over the ≤1-excitation subspace (n+1 amplitudes).

    Particle-number-conserving ansätze (chemistry workloads) live in such
    subspaces; the dense amplitude vector is mostly exact zeros, which is the
    regime where lossless byte codecs actually pay off.
    """
    dim = 2**n_qubits
    state = np.zeros(dim, dtype=np.complex128)
    indices = [0] + [1 << k for k in range(n_qubits)]
    weights = rng.standard_normal(len(indices)) + 1j * rng.standard_normal(
        len(indices)
    )
    state[indices] = weights / np.linalg.norm(weights)
    return state


def footprint_breakdown(n_qubits: int, n_layers: int = DEFAULT_LAYERS) -> dict:
    """Raw byte sizes of each snapshot component for Fig. 1."""
    n_params = hea_param_count(n_qubits, n_layers)
    params_bytes = n_params * 8
    adam_bytes = 3 * n_params * 8  # m, v, vmax
    statevector_bytes = (2**n_qubits) * 16
    return {
        "n_qubits": n_qubits,
        "n_params": n_params,
        "params_bytes": params_bytes,
        "optimizer_bytes": adam_bytes,
        "statevector_bytes": statevector_bytes,
        "total_bytes": params_bytes + adam_bytes + statevector_bytes,
    }
