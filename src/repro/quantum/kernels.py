"""Fast statevector execution engine: in-place kernels, caching, batching.

This module is the performance substrate under :mod:`repro.quantum.statevector`
and the shift-rule differentiators.  It replaces the reference
``tensordot`` + ``moveaxis`` + contiguous-copy gate application with three
layers:

1. **Specialized kernels** — 1-, 2-, and 3-qubit gates are applied by slicing
   the state into strided views at the target bit positions and updating
   amplitude tuples in place, with fast paths for diagonal matrices (``rz``,
   ``cz``, ``phase``) and phase-permutation matrices (``x``, ``cnot``,
   ``swap``, ``iswap``, ``toffoli``, ``fredkin``).  Gates on four or more
   wires fall back to the exact ``tensordot`` reference contraction.
   Adjacent single-qubit gates on the same wire are fused into one 2x2
   matmul before application.
2. **Matrix caching** — resolved gate matrices are cached per
   ``(gate, resolved-params)`` so the ``2P`` shifted executions of a gradient,
   each of which changes exactly one gate, stop rebuilding ``P`` unchanged
   matrices per run.  Analytic derivative matrices are cached the same way for
   the adjoint differentiator.
3. **Batched execution** — :func:`run_batch` and :func:`run_shifted_batch`
   stack ``B`` statevectors into one array and apply each gate across the
   whole batch in one vectorized operation.  Internally the batch axis is the
   *trailing* axis (``(2**n, B)``, amplitude-major) so that every kernel view
   touches contiguous blocks of at least ``B`` elements regardless of which
   wire the gate hits; row-major ``(B, 2**n)`` results are produced at the
   boundary on request.

State layout matches :mod:`repro.quantum.statevector`: qubit 0 is the most
significant bit of the basis index, so wire ``w`` of an ``n``-qubit state is
bit ``n - 1 - w``.  All kernels mutate their array argument in place.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CircuitError
from repro.quantum import gates as _gates
from repro.quantum.circuit import Circuit

COMPLEX_DTYPE = np.complex128

# overrides: {op_position: [(param_slot, value), ...]} — same shape the
# shift-rule differentiators use.
Overrides = Dict[int, List[Tuple[int, float]]]


# ---------------------------------------------------------------------------
# Engine-tier binding
# ---------------------------------------------------------------------------

# The compiled kernel tier (repro.quantum.engines.compiled) installs its
# ctypes facade here; hot kernels try it first and fall through to numpy when
# it is absent or an array is not eligible.  Selection is lazy: the first
# execution entry point resolves the QCKPT_ENGINE ladder via
# repro.quantum.engines, so importing this module never triggers a C build.
_COMPILED = None
_engine_resolved = False


def _set_compiled_kernels(lib) -> None:
    """Install (or clear) the compiled kernel facade; marks the tier chosen."""
    global _COMPILED, _engine_resolved
    _COMPILED = lib
    _engine_resolved = True


def _reset_engine_binding() -> None:
    """Forget the tier so the next execution re-resolves the ladder (tests)."""
    global _COMPILED, _engine_resolved
    _COMPILED = None
    _engine_resolved = False


def _ensure_engine() -> None:
    if not _engine_resolved:
        from repro.quantum import engines

        engines.active_engine()


# ---------------------------------------------------------------------------
# Matrix caching
# ---------------------------------------------------------------------------


# Entries per cache.  A trained gate's ``(gate, params)`` key never repeats once
# the optimizer has moved, so any bound fills with dead entries at a step's
# gates per step; at 16384 the pair of caches grew to 12 MiB and pushed the
# fleet benchmark's ``peak_rss_mb`` over its bound.  The hit ratio is flat
# from 1024 to 4096 (0.937-0.943 on the e2e fleet stream).
MATRIX_CACHE_SIZE = 2048


@lru_cache(maxsize=MATRIX_CACHE_SIZE)
def cached_matrix(gate: str, params: Tuple[float, ...]) -> np.ndarray:
    """Resolved gate matrix, cached per ``(gate, params)`` and frozen."""
    matrix = _gates.matrix_for(gate, params)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=MATRIX_CACHE_SIZE)
def cached_derivative(gate: str, params: Tuple[float, ...], k: int) -> np.ndarray:
    """Analytic gate derivative, cached per ``(gate, params, k)`` and frozen."""
    matrix = _gates.derivative_for(gate, params, k)
    matrix.setflags(write=False)
    return matrix


def cache_info(all_workers: bool = False) -> dict:
    """Hit/miss statistics of the matrix and derivative caches.

    ``all_workers=True`` additionally collects the same statistics from every
    live gradient-shard worker process (keyed ``"workers"``: a list of
    per-worker dicts), so tests can assert that cache priming actually
    happened inside shards and memory tooling sees the whole footprint.
    """
    info = {
        "matrix": cached_matrix.cache_info()._asdict(),
        "derivative": cached_derivative.cache_info()._asdict(),
    }
    if all_workers:
        from repro.quantum.engines import sharding

        info["workers"] = sharding.worker_cache_info()
    return info


# Other modules (e.g. the diagonal-sign cache in repro.quantum.observables)
# register their cache_clear callables here so clear_caches drops them too.
_EXTRA_CACHE_CLEARERS: List = []


def register_cache_clearer(clearer) -> None:
    """Register a zero-argument callable to run on :func:`clear_caches`."""
    _EXTRA_CACHE_CLEARERS.append(clearer)


def clear_caches(all_workers: bool = False) -> None:
    """Drop all engine caches (used by tests and memory-pressure tooling).

    ``all_workers=True`` also clears the caches of every live gradient-shard
    worker process, so a memory-pressure drop reaches the whole fan-out.
    """
    cached_matrix.cache_clear()
    cached_derivative.cache_clear()
    for clearer in _EXTRA_CACHE_CLEARERS:
        clearer()
    if all_workers:
        from repro.quantum.engines import sharding

        sharding.clear_worker_caches()


def prime_circuit_cache(circuit: Circuit, values: Sequence[float]) -> None:
    """Warm the matrix cache with every gate of ``circuit`` at ``values``.

    Called by the trainer at construction so the first step does not pay the
    cold-cache matrix builds for fixed and constant-parameter gates.  The
    cache holds :data:`MATRIX_CACHE_SIZE` entries, so of a longer circuit only
    the last that many stay primed.
    """
    values = np.asarray(values, dtype=np.float64)
    for op in circuit.ops:
        cached_matrix(op.gate, op.resolve(values))


# ---------------------------------------------------------------------------
# Scratch management
# ---------------------------------------------------------------------------

# The 2-qubit general kernel needs four quarter-state buffers for the old
# amplitudes plus one accumulator quarter: 5/4 of the state size.


def make_scratch(state_size: int) -> np.ndarray:
    """Scratch buffer sized for every kernel on a ``state_size`` array."""
    return np.empty(state_size + (state_size >> 2) + 4, dtype=COMPLEX_DTYPE)


def _scratch_for(states: np.ndarray, scratch: Optional[np.ndarray]) -> np.ndarray:
    if scratch is None or scratch.size < states.size + (states.size >> 2):
        return make_scratch(states.size)
    return scratch


# ---------------------------------------------------------------------------
# 1-qubit kernels
# ---------------------------------------------------------------------------


def _apply_1q(
    states: np.ndarray,
    matrix: np.ndarray,
    wire: int,
    n: int,
    scratch: Optional[np.ndarray] = None,
    tail: int = 1,
) -> None:
    """Apply a 2x2 matrix to ``wire`` in place.

    ``tail`` is the number of trailing batch columns: 1 for a flat ``(2**n,)``
    state or a row-major batch (whose leading axis folds into the view), ``B``
    for an amplitude-major ``(2**n, B)`` batch.
    """
    if _COMPILED is not None and _COMPILED.apply_1q(states, matrix, wire, n, tail):
        return
    psi = states.reshape(-1, 1 << wire, 2, (1 << (n - wire - 1)) * tail)
    a = psi[:, :, 0, :]
    b = psi[:, :, 1, :]
    m00, m01 = matrix[0, 0], matrix[0, 1]
    m10, m11 = matrix[1, 0], matrix[1, 1]
    if m01 == 0 and m10 == 0:  # diagonal (rz, z, s, t, phase, ...)
        if m00 != 1:
            a *= m00
        if m11 != 1:
            b *= m11
        return
    scratch = _scratch_for(states, scratch)
    half = states.size >> 1
    s0 = scratch[:half].reshape(a.shape)
    if m00 == 0 and m11 == 0:  # anti-diagonal (x, y)
        s0[...] = a
        np.multiply(b, m01, out=a)
        np.multiply(s0, m10, out=b)
        return
    if tail == 1 and psi.shape[-1] >= 64:
        # General case, large contiguous inner blocks: one broadcast 2x2
        # matmul into scratch, then copy back.  zgemm on contiguous blocks
        # beats the equivalent chain of strided ufunc passes.  Restricted to
        # tail == 1 (flat states, row-major batches): zgemm results are not
        # invariant to the number of columns, and amplitude-major batches
        # must produce bitwise-identical columns regardless of batch width
        # so that gradient shards merge to exactly the single-process result.
        stacked = psi.reshape(-1, 2, psi.shape[-1])
        out = scratch[: states.size].reshape(stacked.shape)
        np.matmul(matrix, stacked, out=out)
        stacked[...] = out
        return
    # General case, small inner blocks (high wires of a flat state): strided
    # ufunc updates of the amplitude-pair halves through scratch.
    s1 = scratch[half : 2 * half].reshape(a.shape)
    np.multiply(a, m00, out=s0)
    np.multiply(b, m01, out=s1)
    s0 += s1  # s0 = new a, computed from the old halves
    np.multiply(a, m10, out=s1)
    b *= m11
    b += s1
    a[...] = s0


def _apply_1q_column_matrices(
    states: np.ndarray, matrices: np.ndarray, wire: int, n: int
) -> None:
    """Per-column 2x2 matrices on a ``(2**n, B)`` batch: ``matrices`` is (B, 2, 2)."""
    batch = matrices.shape[0]
    psi = states.reshape(1 << wire, 2, 1 << (n - wire - 1), batch)
    psi[...] = np.einsum("bij,xjyb->xiyb", matrices, psi)


# ---------------------------------------------------------------------------
# 2-qubit kernels
# ---------------------------------------------------------------------------


def _two_qubit_views(
    states: np.ndarray, wires: Sequence[int], n: int, tail: int = 1
):
    """Quarter-state views indexed by the gate's basis index on ``wires``."""
    w0, w1 = wires
    i, j = (w0, w1) if w0 < w1 else (w1, w0)
    psi = states.reshape(
        -1, 1 << i, 2, 1 << (j - i - 1), 2, (1 << (n - j - 1)) * tail
    )
    views = [
        psi[:, :, 0, :, 0, :],
        psi[:, :, 0, :, 1, :],
        psi[:, :, 1, :, 0, :],
        psi[:, :, 1, :, 1, :],
    ]
    if w0 > w1:
        # Matrix index is bit(w0)*2 + bit(w1); with reversed wires the middle
        # two quarter-views swap roles.
        views = [views[0], views[2], views[1], views[3]]
    return views


def _apply_phase_permutation(
    views: List[np.ndarray],
    perm: np.ndarray,
    phases: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Apply ``new[k] = phases[k] * old[perm[k]]`` cycle-by-cycle in place."""
    done = [False] * len(views)
    tmp = scratch[: views[0].size].reshape(views[0].shape)
    for start in range(len(views)):
        if done[start]:
            continue
        cycle = [start]
        nxt = int(perm[start])
        while nxt != start:
            cycle.append(nxt)
            nxt = int(perm[nxt])
        for k in cycle:
            done[k] = True
        if len(cycle) == 1:
            if phases[start] != 1:
                views[start] *= phases[start]
            continue
        tmp[...] = views[cycle[0]]
        for idx, target in enumerate(cycle):
            source = views[cycle[idx + 1]] if idx + 1 < len(cycle) else tmp
            if phases[target] != 1:
                np.multiply(source, phases[target], out=views[target])
            else:
                views[target][...] = source


def _apply_2q(
    states: np.ndarray,
    matrix: np.ndarray,
    wires: Sequence[int],
    n: int,
    scratch: Optional[np.ndarray] = None,
    tail: int = 1,
) -> None:
    """Apply a 4x4 matrix to ``wires`` in place (see :func:`_apply_1q`)."""
    if _COMPILED is not None and _COMPILED.apply_2q(states, matrix, wires, n, tail):
        return
    views = _two_qubit_views(states, wires, n, tail)
    nonzero = matrix != 0
    quarter = states.size >> 2
    if not np.any(nonzero & ~np.eye(4, dtype=bool)):  # diagonal (cz, zz, crz)
        for k in range(4):
            mk = matrix[k, k]
            if mk != 1:
                views[k] *= mk
        return
    scratch = _scratch_for(states, scratch)
    rows = nonzero.sum(axis=1)
    cols = nonzero.sum(axis=0)
    if np.all(rows == 1) and np.all(cols == 1):  # cnot, swap, iswap, ...
        perm = nonzero.argmax(axis=1)
        phases = matrix[np.arange(4), perm]
        _apply_phase_permutation(views, perm, phases, scratch)
        return
    olds = []
    for k in range(4):
        buf = scratch[k * quarter : (k + 1) * quarter].reshape(views[0].shape)
        buf[...] = views[k]
        olds.append(buf)
    acc = scratch[4 * quarter : 5 * quarter].reshape(views[0].shape)
    for k in range(4):
        np.multiply(olds[0], matrix[k, 0], out=views[k])
        for l in range(1, 4):
            if matrix[k, l] != 0:
                np.multiply(olds[l], matrix[k, l], out=acc)
                views[k] += acc


def _apply_2q_column_matrices(
    states: np.ndarray, matrices: np.ndarray, wires: Sequence[int], n: int
) -> None:
    """Per-column 4x4 matrices on a ``(2**n, B)`` batch: ``matrices`` is (B, 4, 4)."""
    batch = matrices.shape[0]
    w0, w1 = wires
    i, j = (w0, w1) if w0 < w1 else (w1, w0)
    psi = states.reshape(
        1 << i, 2, 1 << (j - i - 1), 2, 1 << (n - j - 1), batch
    )
    tensors = matrices.reshape(batch, 2, 2, 2, 2)
    if w0 < w1:
        psi[...] = np.einsum("bijkl,xkylzb->xiyjzb", tensors, psi)
    else:
        psi[...] = np.einsum("bjilk,xkylzb->xiyjzb", tensors, psi)


# ---------------------------------------------------------------------------
# 3-qubit kernels
# ---------------------------------------------------------------------------


def _three_qubit_views(
    states: np.ndarray, wires: Sequence[int], n: int, tail: int = 1
) -> List[np.ndarray]:
    """Eighth-state views indexed by the gate's basis index on ``wires``.

    The matrix basis index is ``bit(wires[0])*4 + bit(wires[1])*2 +
    bit(wires[2])``, so arbitrary wire orderings reduce to picking each
    wire's bit out of the index.
    """
    s0, s1, s2 = sorted(wires)
    psi = states.reshape(
        -1,
        1 << s0,
        2,
        1 << (s1 - s0 - 1),
        2,
        1 << (s2 - s1 - 1),
        2,
        (1 << (n - s2 - 1)) * tail,
    )
    views = []
    for index in range(8):
        bit = {w: (index >> (2 - j)) & 1 for j, w in enumerate(wires)}
        views.append(psi[:, :, bit[s0], :, bit[s1], :, bit[s2], :])
    return views


def _apply_3q(
    states: np.ndarray,
    matrix: np.ndarray,
    wires: Sequence[int],
    n: int,
    scratch: Optional[np.ndarray] = None,
    tail: int = 1,
) -> None:
    """Apply an 8x8 matrix to ``wires`` in place (see :func:`_apply_1q`).

    Fast paths mirror the 2-qubit kernel: diagonal matrices (``ccz``-style
    phases) scale the eight views, phase-permutation matrices (``toffoli``,
    ``fredkin``) relabel them cycle-by-cycle, and the general dense case runs
    the 8x8 row expansion through eighth-state scratch buffers.
    """
    views = _three_qubit_views(states, wires, n, tail)
    nonzero = matrix != 0
    if not np.any(nonzero & ~np.eye(8, dtype=bool)):  # diagonal
        for k in range(8):
            mk = matrix[k, k]
            if mk != 1:
                views[k] *= mk
        return
    scratch = _scratch_for(states, scratch)
    rows = nonzero.sum(axis=1)
    cols = nonzero.sum(axis=0)
    if np.all(rows == 1) and np.all(cols == 1):  # toffoli, fredkin, ...
        perm = nonzero.argmax(axis=1)
        phases = matrix[np.arange(8), perm]
        _apply_phase_permutation(views, perm, phases, scratch)
        return
    # General dense 8x8: eight old-eighth buffers plus one accumulator is
    # 9/8 of the state — within the 5/4 scratch every kernel shares.
    eighth = states.size >> 3
    olds = []
    for k in range(8):
        buf = scratch[k * eighth : (k + 1) * eighth].reshape(views[0].shape)
        buf[...] = views[k]
        olds.append(buf)
    acc = scratch[8 * eighth : 9 * eighth].reshape(views[0].shape)
    for k in range(8):
        np.multiply(olds[0], matrix[k, 0], out=views[k])
        for l in range(1, 8):
            if matrix[k, l] != 0:
                np.multiply(olds[l], matrix[k, l], out=acc)
                views[k] += acc


def _apply_3q_column_matrices(
    states: np.ndarray, matrices: np.ndarray, wires: Sequence[int], n: int
) -> None:
    """Per-column 8x8 matrices on a ``(2**n, B)`` batch: ``matrices`` is (B, 8, 8)."""
    batch = matrices.shape[0]
    s0, s1, s2 = sorted(wires)
    psi = states.reshape(
        1 << s0,
        2,
        1 << (s1 - s0 - 1),
        2,
        1 << (s2 - s1 - 1),
        2,
        1 << (n - s2 - 1),
        batch,
    )
    tensors = matrices.reshape(batch, 2, 2, 2, 2, 2, 2)
    outs = dict(zip(wires, "ijk"))
    ins = dict(zip(wires, "uvs"))
    tensor_sub = (
        "b"
        + "".join(outs[w] for w in wires)
        + "".join(ins[w] for w in wires)
    )
    in_sub = "x" + ins[s0] + "y" + ins[s1] + "z" + ins[s2] + "wb"
    out_sub = "x" + outs[s0] + "y" + outs[s1] + "z" + outs[s2] + "wb"
    psi[...] = np.einsum(f"{tensor_sub},{in_sub}->{out_sub}", tensors, psi)


# ---------------------------------------------------------------------------
# k-qubit reference fallback (k >= 4)
# ---------------------------------------------------------------------------


def _apply_kq_single(state: np.ndarray, matrix: np.ndarray, wires, n: int) -> None:
    k = len(wires)
    gate = matrix.reshape((2,) * (2 * k))
    psi = state.reshape((2,) * n)
    moved = np.tensordot(gate, psi, axes=(list(range(k, 2 * k)), list(wires)))
    state[...] = np.moveaxis(moved, range(k), wires).reshape(-1)


def _apply_kq_reference(
    states: np.ndarray,
    matrix: np.ndarray,
    wires: Sequence[int],
    n: int,
    tail: int = 1,
) -> None:
    """Exact tensor-contraction fallback for gates on four or more wires."""
    dim = 1 << n
    if tail > 1:
        columns = states.reshape(dim, tail)
        for b in range(tail):
            col = np.ascontiguousarray(columns[:, b])
            per_column = matrix[b] if matrix.ndim == 3 else matrix
            _apply_kq_single(col, per_column, wires, n)
            columns[:, b] = col
        return
    flat = states.reshape(-1, dim)
    for row in range(flat.shape[0]):
        per_row = matrix[row] if matrix.ndim == 3 else matrix
        _apply_kq_single(flat[row], per_row, wires, n)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def apply_matrix_inplace(
    states: np.ndarray,
    matrix: np.ndarray,
    wires: Sequence[int],
    n: int,
    scratch: Optional[np.ndarray] = None,
    tail: int = 1,
) -> None:
    """Apply one gate matrix in place to a state array.

    ``states`` is a flat ``(2**n,)`` state, a row-major ``(B, 2**n)`` batch
    (``tail=1``), or an amplitude-major ``(2**n, B)`` batch (``tail=B``).
    ``matrix`` is a single ``(2**k, 2**k)`` matrix applied uniformly, or — on
    amplitude-major batches — a ``(B, 2**k, 2**k)`` stack of per-column
    matrices.
    """
    # Resolve the engine tier here, not only in the batch entry points:
    # direct callers (the adjoint sweep) must run on the same kernels as
    # everything else, or gradient bits would depend on which code path
    # happened to execute first in the process.
    _ensure_engine()
    k = len(wires)
    if matrix.ndim == 3:
        if k == 1:
            _apply_1q_column_matrices(states, matrix, wires[0], n)
        elif k == 2:
            _apply_2q_column_matrices(states, matrix, wires, n)
        elif k == 3:
            _apply_3q_column_matrices(states, matrix, wires, n)
        else:
            _apply_kq_reference(states, matrix, wires, n, tail)
        return
    if k == 1:
        _apply_1q(states, matrix, wires[0], n, scratch, tail)
    elif k == 2:
        _apply_2q(states, matrix, wires, n, scratch, tail)
    elif k == 3:
        _apply_3q(states, matrix, wires, n, scratch, tail)
    else:
        _apply_kq_reference(states, matrix, wires, n, tail)


# ---------------------------------------------------------------------------
# Circuit compilation: matrix resolution + single-qubit fusion
# ---------------------------------------------------------------------------

# Stream items: ("dense", matrix, wires) applies a shared matrix (or a
# per-column stack) to the whole batch; ("rows", [(column, matrix), ...],
# wires) patches individual batch columns in place.
_DENSE = "dense"
_ROWS = "rows"


def _override_matrices(
    op, position: int, resolved: Tuple[float, ...], batch_overrides: Sequence[Overrides]
) -> List[Tuple[int, np.ndarray]]:
    """(column, overridden matrix) for every batch element overriding this op."""
    out = []
    for column, element in enumerate(batch_overrides):
        entry = element.get(position)
        if not entry:
            continue
        patched = list(resolved)
        for slot, value in entry:
            patched[slot] = float(value)
        out.append((column, cached_matrix(op.gate, tuple(patched))))
    return out


def _stream_ops(
    circuit: Circuit,
    values: np.ndarray,
    batch_overrides: Optional[Sequence[Overrides]] = None,
    batch_values: Optional[np.ndarray] = None,
    fuse: bool = True,
) -> List[Tuple[str, object, Tuple[int, ...]]]:
    """Compile a circuit into a fused stream of kernel applications.

    ``batch_values`` (one full parameter vector per batch element) turns
    trainable ops into ``(B, 2**k, 2**k)`` matrix stacks; ops whose resolved
    parameters agree across the batch keep a single shared (cached) matrix.

    ``batch_overrides`` (one occurrence-override dict per batch element)
    instead applies the shared *base* matrix batch-wide and patches the few
    overridden columns with a correction ``R @ P^-1`` — of the ``B`` shifted
    executions of a gradient only two (or four) columns differ at any one op,
    so stacking per-element matrices for everyone would serialize the sweep
    through ``einsum``.  Single-qubit fusion runs *through* overridden ops:
    alongside the pending base product ``P`` on each wire, the stream keeps
    each deviating column's own product ``R`` and emits the column
    corrections at flush time, so a gradient batch fuses exactly as well as a
    plain run.
    """
    single = batch_overrides is not None and len(batch_overrides) == 1

    out: List[Tuple[str, object, Tuple[int, ...]]] = []
    # wire -> [base product P, {column: that column's own product R}]
    pending: Dict[int, List] = {}

    def flush(wire: int) -> None:
        entry = pending.pop(wire, None)
        if entry is None:
            return
        base, columns = entry
        out.append((_DENSE, base, (wire,)))
        if columns:
            # Base products are products of unitaries: the conjugate
            # transpose is the exact inverse.
            base_inv = base.conj().T
            out.append(
                (_ROWS, [(c, R @ base_inv) for c, R in columns.items()], (wire,))
            )

    for position, op in enumerate(circuit.ops):
        column_mats: List[Tuple[int, np.ndarray]] = []
        if batch_values is not None:
            resolved_rows = [op.resolve(row) for row in batch_values]
            if op.is_trainable and any(r != resolved_rows[0] for r in resolved_rows):
                matrix = np.stack(
                    [cached_matrix(op.gate, r) for r in resolved_rows]
                )
            else:
                matrix = cached_matrix(op.gate, resolved_rows[0])
        else:
            resolved = op.resolve(values)
            if batch_overrides is not None:
                column_mats = _override_matrices(
                    op, position, resolved, batch_overrides
                )
            if single and column_mats:
                # One batch element: substitute the override directly, no
                # base-plus-correction split needed.
                matrix = column_mats[0][1]
                column_mats = []
            else:
                matrix = cached_matrix(op.gate, resolved)
        wires = op.wires
        if fuse and len(wires) == 1:
            w = wires[0]
            prev, columns = pending.get(w, (None, {}))
            overriding = dict(column_mats)
            new_columns = {}
            for c, override in overriding.items():
                before = columns.get(c, prev)
                new_columns[c] = override if before is None else override @ before
            for c, product in columns.items():
                if c not in overriding:
                    new_columns[c] = matrix @ product
            pending[w] = [matrix if prev is None else matrix @ prev, new_columns]
        else:
            for w in wires:
                flush(w)
            out.append((_DENSE, matrix, wires))
            if column_mats:
                base_inv = matrix.conj().T  # gate matrices are unitary
                out.append(
                    (_ROWS, [(c, m @ base_inv) for c, m in column_mats], wires)
                )
    for w in list(pending):
        flush(w)
    return out


def _apply_stream(
    states: np.ndarray,
    stream: Sequence[Tuple[str, object, Tuple[int, ...]]],
    n: int,
    tail: int = 1,
) -> np.ndarray:
    """Run a compiled stream over a flat state or amplitude-major batch."""
    scratch = make_scratch(states.size)
    dim = 1 << n
    columns = states.reshape(dim, -1)
    for kind, payload, wires in stream:
        if kind == _DENSE:
            apply_matrix_inplace(states, payload, wires, n, scratch, tail)
        else:
            for column, matrix in payload:
                # Batch columns are strided; patch through a contiguous copy.
                col = np.ascontiguousarray(columns[:, column])
                apply_matrix_inplace(col, matrix, wires, n, scratch)
                columns[:, column] = col
    return states


# ---------------------------------------------------------------------------
# Execution entry points
# ---------------------------------------------------------------------------


def _check_values(circuit: Circuit, params) -> np.ndarray:
    if params is None:
        params = np.zeros(0)
    values = np.asarray(params, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] < circuit.n_params:
        raise CircuitError(
            f"circuit expects >= {circuit.n_params} parameters, "
            f"got shape {values.shape}"
        )
    return values


def _initial_columns(
    circuit: Circuit, batch: int, initial_state: Optional[np.ndarray]
) -> np.ndarray:
    """Amplitude-major ``(2**n, B)`` initial batch."""
    dim = 1 << circuit.n_qubits
    if initial_state is None:
        states = np.zeros((dim, batch), dtype=COMPLEX_DTYPE)
        states[0, :] = 1.0
        return states
    initial_state = np.asarray(initial_state)
    if initial_state.shape != (dim,):
        raise CircuitError(
            f"initial state has shape {initial_state.shape}, "
            f"circuit expects ({dim},)"
        )
    return np.repeat(
        initial_state.astype(COMPLEX_DTYPE, copy=False)[:, None], batch, axis=1
    )


def run(
    circuit: Circuit,
    params=None,
    initial_state: Optional[np.ndarray] = None,
    overrides: Optional[Overrides] = None,
    fuse: bool = True,
) -> np.ndarray:
    """Execute ``circuit`` through the fast engine; returns the final state.

    ``overrides`` optionally replaces individual parameter slots of specific
    operation occurrences (the shift-rule contract of
    :mod:`repro.autodiff._execute`).
    """
    _ensure_engine()
    values = _check_values(circuit, params)
    batch_overrides = [overrides] if overrides else None
    stream = _stream_ops(circuit, values, batch_overrides=batch_overrides, fuse=fuse)
    dim = 1 << circuit.n_qubits
    if initial_state is None:
        state = np.zeros(dim, dtype=COMPLEX_DTYPE)
        state[0] = 1.0
    else:
        initial_state = np.asarray(initial_state)
        if initial_state.shape != (dim,):
            raise CircuitError(
                f"initial state has shape {initial_state.shape}, "
                f"circuit expects ({dim},)"
            )
        state = np.array(initial_state, dtype=COMPLEX_DTYPE, copy=True)
    _apply_stream(state, stream, circuit.n_qubits)
    return state


def run_batch(
    circuit: Circuit,
    params_batch,
    initial_state: Optional[np.ndarray] = None,
    fuse: bool = True,
    columns: bool = False,
) -> np.ndarray:
    """Execute ``circuit`` for ``B`` parameter vectors as one batched sweep.

    Gates whose resolved parameters agree across the batch (fixed gates,
    constant encodings) are applied with one vectorized kernel invocation; the
    rest use one batched ``einsum`` each.  Returns ``(B, 2**n)`` row-major
    states, or the internal amplitude-major ``(2**n, B)`` array when
    ``columns`` is true.
    """
    _ensure_engine()
    params_batch = np.asarray(params_batch, dtype=np.float64)
    if params_batch.ndim != 2 or params_batch.shape[1] < circuit.n_params:
        raise CircuitError(
            f"params_batch must have shape (B, >={circuit.n_params}), "
            f"got {params_batch.shape}"
        )
    batch = params_batch.shape[0]
    dim = 1 << circuit.n_qubits
    if batch == 0:
        empty = np.zeros((dim, 0), dtype=COMPLEX_DTYPE)
        return empty if columns else empty.T
    stream = _stream_ops(
        circuit, params_batch[0], batch_values=params_batch, fuse=fuse
    )
    states = _initial_columns(circuit, batch, initial_state)
    _apply_stream(states, stream, circuit.n_qubits, tail=batch)
    return states if columns else np.ascontiguousarray(states.T)


def run_shifted_batch(
    circuit: Circuit,
    params,
    batch_overrides: Sequence[Overrides],
    initial_state: Optional[np.ndarray] = None,
    fuse: bool = True,
    columns: bool = False,
) -> np.ndarray:
    """Execute one circuit under ``B`` occurrence-override sets as one batch.

    This is the engine under the batched parameter-shift gradient: all shifted
    executions share every gate except the overridden occurrence, so the whole
    gradient reduces to one batched sweep over the circuit.  Returns
    ``(B, 2**n)`` row-major states, or amplitude-major ``(2**n, B)`` when
    ``columns`` is true.
    """
    _ensure_engine()
    values = _check_values(circuit, params)
    dim = 1 << circuit.n_qubits
    if not batch_overrides:
        empty = np.zeros((dim, 0), dtype=COMPLEX_DTYPE)
        return empty if columns else empty.T
    stream = _stream_ops(
        circuit, values, batch_overrides=list(batch_overrides), fuse=fuse
    )
    states = _initial_columns(circuit, len(batch_overrides), initial_state)
    _apply_stream(states, stream, circuit.n_qubits, tail=len(batch_overrides))
    return states if columns else np.ascontiguousarray(states.T)
