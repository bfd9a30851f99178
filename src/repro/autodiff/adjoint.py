"""Adjoint differentiation for statevector simulation.

Computes exact gradients in two sweeps over the circuit instead of the
O(#params) executions the shift rule needs.  Derivation: with
``E = <psi0| U1†..UN† O UN..U1 |psi0>``,

    dE/dtheta_k = 2 Re( <phi_k| dU_k |psi_{k-1}> ),
    |psi_{k-1}> = U_{k-1}..U1 |psi0>,
    |phi_k>     = U_{k+1}†..UN† O |psi_N>.

The backward sweep maintains ``psi`` and ``phi`` with one gate application
each per operation, plus one derivative-matrix application per trainable
slot.  Requires a Hermitian observable and an exact statevector (no shots).

Gate applications run on the in-place kernels of
:mod:`repro.quantum.kernels`; gate and derivative matrices come from its
per-``(gate, params)`` caches, so the forward pass, the unitary undo, and the
adjoint undo of the same operation resolve the matrix once.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GradientError
from repro.quantum import kernels as _kernels
from repro.quantum.circuit import Circuit, Param
from repro.quantum.observables import Hamiltonian, PauliString, Projector
from repro.quantum.statevector import (
    COMPLEX_DTYPE,
    zero_state,
)


def _apply_observable(observable, state: np.ndarray) -> np.ndarray:
    """Return ``O |state>`` for a PauliString or Hamiltonian."""
    if isinstance(observable, (PauliString, Projector)):
        return observable.apply(state)
    if isinstance(observable, Hamiltonian):
        out = np.zeros_like(state)
        for term in observable.terms:
            out += term.apply(state)
        return out
    raise GradientError(f"unsupported observable type {type(observable).__name__}")


def adjoint_gradient(
    circuit: Circuit,
    params,
    observable,
    initial_state: Optional[np.ndarray] = None,
    return_value: bool = False,
):
    """Exact gradient of ``<observable>``; optionally also the value.

    Returns ``grads`` or ``(value, grads)`` when ``return_value`` is true.
    """
    values = np.asarray(params, dtype=np.float64)
    n = circuit.n_qubits
    psi = (
        zero_state(n)
        if initial_state is None
        else np.array(initial_state, dtype=COMPLEX_DTYPE, copy=True)
    )
    scratch = _kernels.make_scratch(psi.size)
    for op in circuit.ops:
        _kernels.apply_matrix_inplace(
            psi, _kernels.cached_matrix(op.gate, op.resolve(values)), op.wires, n, scratch
        )

    lam = _apply_observable(observable, psi)
    value = float(np.vdot(psi, lam).real)
    grads = np.zeros(max(circuit.n_params, values.size))

    for op in reversed(circuit.ops):
        resolved = op.resolve(values)
        # Made contiguous once here: the compiled tier would otherwise copy
        # the transposed view in both applications below.
        dagger = np.ascontiguousarray(
            _kernels.cached_matrix(op.gate, resolved).conj().T
        )
        _kernels.apply_matrix_inplace(psi, dagger, op.wires, n, scratch)
        if op.is_trainable:
            for slot, value_ref in enumerate(op.params):
                if not isinstance(value_ref, Param):
                    continue
                derivative = _kernels.cached_derivative(op.gate, resolved, slot)
                mu = psi.copy()
                _kernels.apply_matrix_inplace(mu, derivative, op.wires, n, scratch)
                grads[value_ref.index] += 2.0 * float(np.vdot(lam, mu).real)
        _kernels.apply_matrix_inplace(lam, dagger, op.wires, n, scratch)

    grads = grads[: circuit.n_params] if circuit.n_params else grads
    if return_value:
        return value, grads
    return grads
