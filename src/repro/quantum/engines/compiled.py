"""Compiled kernel tier: C builds of the hot paths, loaded via ``ctypes``.

The container bakes in no numba/cffi, so this tier leans on what every build
host already has: a C compiler.  On first probe the embedded source below is
compiled to a shared object (cached on disk keyed by source hash, so later
processes just ``dlopen``) and wrapped in :class:`CompiledKernels`.  If no
working compiler exists, the tier reports unavailable with a reason and the
engine ladder stays on numpy — availability is a property of the host, never
an import error.

Bitwise parity contract: each C kernel mirrors the *exact* elementwise
operation order of its numpy counterpart in :mod:`repro.quantum.kernels` —
the same branch conditions (diagonal / anti-diagonal / permutation /
general), the same ``!= 1`` multiply skips, the same ``!= 0`` accumulate
skips, the same naive complex-multiply formula numpy's ufuncs use, and the
same ``new_b = b*m11 + a*m10`` term order.  Compiled with
``-ffp-contract=off`` so no fused multiply-adds change rounding.  A
load-time self-test asserts bitwise equality against the numpy oracle on
randomized states; any deviation (exotic compiler, aggressive default
flags) marks the tier unavailable rather than silently changing results.

Also exported: ``xor_to`` (the XOR-delta decoder of :mod:`repro.core.delta`)
and ``fnv1a64`` (the fast pre-filter digest for :mod:`repro.core.hashing`).

The library is loaded through two handles, ``ctypes.PyDLL`` (a call keeps
the interpreter lock) and ``ctypes.CDLL`` (a call releases it); the size of
a call picks the handle (:data:`RELEASE_GIL_MIN_WORK`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Optional, Sequence

import numpy as np

_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>

/* complex128 amplitudes as interleaved doubles.  Scalar complex products
 * use the naive (ar*br - ai*bi, ar*bi + ai*br) formula -- the same one
 * numpy's complex128 ufuncs use -- and the translation unit is built with
 * -ffp-contract=off, so every kernel below is bitwise-identical to the
 * numpy elementwise path it mirrors. */

#define CMUL(rr, ri, ar, ai, br, bi) \
    do { rr = (ar)*(br) - (ai)*(bi); ri = (ar)*(bi) + (ai)*(br); } while (0)

static int is_zero(const double *m, int k) {
    return m[2*k] == 0.0 && m[2*k+1] == 0.0;
}

static int is_one(const double *m, int k) {
    return m[2*k] == 1.0 && m[2*k+1] == 0.0;
}

/* 1q gate on [m_count][2][block] complex; m = 4 complex entries row-major. */
void qk_apply_1q(double *psi, long m_count, long block, const double *m) {
    const double m00r = m[0], m00i = m[1], m01r = m[2], m01i = m[3];
    const double m10r = m[4], m10i = m[5], m11r = m[6], m11i = m[7];
    const long stride = 4 * block; /* 2*block complex */
    if (is_zero(m, 1) && is_zero(m, 2)) { /* diagonal */
        const int scale_a = !is_one(m, 0), scale_b = !is_one(m, 3);
        if (!scale_a && !scale_b) return;
        for (long g = 0; g < m_count; g++) {
            double *a = psi + (size_t)g * stride;
            double *b = a + 2 * block;
            for (long j = 0; j < 2 * block; j += 2) {
                if (scale_a) {
                    double ar = a[j], ai = a[j+1];
                    CMUL(a[j], a[j+1], ar, ai, m00r, m00i);
                }
                if (scale_b) {
                    double br = b[j], bi = b[j+1];
                    CMUL(b[j], b[j+1], br, bi, m11r, m11i);
                }
            }
        }
        return;
    }
    if (is_zero(m, 0) && is_zero(m, 3)) { /* anti-diagonal */
        for (long g = 0; g < m_count; g++) {
            double *a = psi + (size_t)g * stride;
            double *b = a + 2 * block;
            for (long j = 0; j < 2 * block; j += 2) {
                double ar = a[j], ai = a[j+1];
                double br = b[j], bi = b[j+1];
                CMUL(a[j], a[j+1], br, bi, m01r, m01i);
                CMUL(b[j], b[j+1], ar, ai, m10r, m10i);
            }
        }
        return;
    }
    for (long g = 0; g < m_count; g++) { /* general dense */
        double *a = psi + (size_t)g * stride;
        double *b = a + 2 * block;
        for (long j = 0; j < 2 * block; j += 2) {
            double ar = a[j], ai = a[j+1];
            double br = b[j], bi = b[j+1];
            double t0r, t0i, t1r, t1i, t2r, t2i, t3r, t3i;
            CMUL(t0r, t0i, ar, ai, m00r, m00i);
            CMUL(t1r, t1i, br, bi, m01r, m01i);
            CMUL(t2r, t2i, br, bi, m11r, m11i);
            CMUL(t3r, t3i, ar, ai, m10r, m10i);
            a[j] = t0r + t1r; a[j+1] = t0i + t1i;
            b[j] = t2r + t3r; b[j+1] = t2i + t3i;
        }
    }
}

/* 2q gate on [m_count][2][mid][2][block] complex; m = 16 complex entries
 * row-major.  vmap maps matrix basis index -> quarter-view index and is
 * {0,1,2,3} for ascending wires, {0,2,1,3} when the gate's wires are
 * reversed (matrix index is bit(w0)*2 + bit(w1)).  Returns 1 when handled;
 * general dense 4x4 matrices return 0 so the caller runs the numpy path --
 * numpy's mixed SIMD/scalar ufunc loops round the dense accumulation
 * differently in the last ulp, and cross-tier parity wins over the rare
 * dense-4x4 speedup. */
int qk_apply_2q(double *psi, long m_count, long mid, long block,
                const double *m, const long *vmap) {
    long offs[4]; /* double offset of each matrix-indexed view in a group */
    for (int k = 0; k < 4; k++) {
        long v = vmap[k];
        offs[k] = ((v >> 1) * mid * 2 + (v & 1)) * 2 * block;
    }
    const long group = 2 * mid * 2 * block * 2; /* doubles per m-group */
    int offdiag = 0;
    for (int k = 0; k < 4; k++)
        for (int l = 0; l < 4; l++)
            if (k != l && !is_zero(m, 4*k + l)) offdiag = 1;
    if (!offdiag) { /* diagonal (cz, zz, crz) */
        for (int k = 0; k < 4; k++) {
            if (is_one(m, 4*k + k)) continue;
            const double pr = m[2*(4*k+k)], pi = m[2*(4*k+k)+1];
            for (long g = 0; g < m_count; g++) {
                double *base = psi + (size_t)g * group + offs[k];
                for (long t = 0; t < mid; t++) {
                    double *v = base + t * 4 * block;
                    for (long j = 0; j < 2 * block; j += 2) {
                        double vr = v[j], vi = v[j+1];
                        CMUL(v[j], v[j+1], vr, vi, pr, pi);
                    }
                }
            }
        }
        return 1;
    }
    int rows[4] = {0, 0, 0, 0}, cols[4] = {0, 0, 0, 0};
    int perm[4];
    for (int k = 0; k < 4; k++)
        for (int l = 0; l < 4; l++)
            if (!is_zero(m, 4*k + l)) { rows[k]++; cols[l]++; perm[k] = l; }
    int is_perm = 1;
    for (int k = 0; k < 4; k++)
        if (rows[k] != 1 || cols[k] != 1) is_perm = 0;
    if (is_perm) { /* phase permutation (cnot, swap, iswap, ...) */
        int copy[4];
        double pr[4], pi[4];
        for (int k = 0; k < 4; k++) {
            copy[k] = is_one(m, 4*k + perm[k]);
            pr[k] = m[2*(4*k + perm[k])];
            pi[k] = m[2*(4*k + perm[k]) + 1];
        }
        for (long g = 0; g < m_count; g++) {
            double *base = psi + (size_t)g * group;
            for (long t = 0; t < mid; t++) {
                for (long j = 0; j < 2 * block; j += 2) {
                    double oldr[4], oldi[4];
                    for (int k = 0; k < 4; k++) {
                        const double *v = base + offs[k] + t * 4 * block;
                        oldr[k] = v[j]; oldi[k] = v[j+1];
                    }
                    for (int k = 0; k < 4; k++) {
                        double *v = base + offs[k] + t * 4 * block;
                        if (k == perm[k] && copy[k]) continue;
                        if (copy[k]) { v[j] = oldr[perm[k]]; v[j+1] = oldi[perm[k]]; }
                        else CMUL(v[j], v[j+1], oldr[perm[k]], oldi[perm[k]], pr[k], pi[k]);
                    }
                }
            }
        }
        return 1;
    }
    return 0; /* general dense 4x4: numpy path */
}

/* out = a ^ b over n bytes -- one pass, no copy of either operand. */
void qk_xor3(unsigned char *out, const unsigned char *a,
             const unsigned char *b, long n) {
    long i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t x, y;
        __builtin_memcpy(&x, a + i, 8);
        __builtin_memcpy(&y, b + i, 8);
        x ^= y;
        __builtin_memcpy(out + i, &x, 8);
    }
    for (; i < n; i++) out[i] = a[i] ^ b[i];
}

/* FNV-1a 64-bit: the cheap content pre-filter digest for dedup. */
uint64_t qk_fnv1a64(const unsigned char *p, long n) {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (long i = 0; i < n; i++) {
        h ^= p[i];
        h *= 0x100000001B3ULL;
    }
    return h;
}
"""

#: Flags chosen for bitwise parity: no FP contraction (no FMA reassociation),
#: no errno bookkeeping; -march=native is attempted and dropped on failure.
_BASE_FLAGS = ["-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC"]

CC_ENV = "QCKPT_CC"
CACHE_ENV = "QCKPT_ENGINE_CACHE"

_lock = threading.RLock()
_probed = False
_library: Optional["CompiledKernels"] = None
_reason = "not probed yet"


def _find_compiler() -> Optional[str]:
    override = os.environ.get(CC_ENV, "").strip()
    candidates = [override] if override else ["cc", "gcc", "clang"]
    for name in candidates:
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    configured = os.environ.get(CACHE_ENV, "").strip()
    if configured:
        return configured
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"qckpt-engines-{uid}")


def _build(compiler: str) -> str:
    """Compile the embedded source into the on-disk cache; returns .so path."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"qckpt_kernels_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    os.makedirs(cache, exist_ok=True)
    src_path = os.path.join(cache, f"qckpt_kernels_{digest}.c")
    with open(src_path, "w") as fh:
        fh.write(_SOURCE)
    tmp_path = so_path + f".tmp.{os.getpid()}"
    for flags in ([*_BASE_FLAGS, "-march=native"], _BASE_FLAGS):
        proc = subprocess.run(
            [compiler, *flags, src_path, "-o", tmp_path],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode == 0:
            os.replace(tmp_path, so_path)  # atomic vs concurrent builders
            return so_path
    raise RuntimeError(
        f"{compiler} failed: {proc.stderr.strip().splitlines()[-1] if proc.stderr else 'unknown error'}"
    )


_VOID_P, _LONG = ctypes.c_void_p, ctypes.c_long

#: Work of a call -- amplitudes for the gate kernels (``states.size``, so a
#: batch counts its columns), bytes for ``xor_to`` / ``fnv1a64`` -- from
#: which it releases the interpreter lock.  Smaller calls keep it.  Measured
#: on the 2-CPU reference box at the sizes the e2e benchmark runs:
#:
#: * 2^8-2^10 (the daemon's 8q classifier step, 448 calls of 1-2 us):
#:   releasing beside threads queued for the lock costs ~25 us of futex
#:   traffic per call -- the step's thread-CPU time beside a saturated
#:   ``WriterPool(2)`` is 16.1 ms against 5.0 ms alone, (16.1 - 5.0) / 448;
#:   keeping it, 3.7 against 3.5 ms, and ``fleet8_daemon`` does 2.5x the
#:   useful steps/s (``BENCH_substrate.json`` ``contended_step`` gates this).
#: * 2^12 (``vqe12_crashloop``, 3 us kernels, a writer busy a quarter of
#:   the time, so the hand-off is rarely contended): keeping the lock lets
#:   the writer in only at the interpreter's 5 ms switch interval.  Ten
#:   seed-paired runs, kept -> released: ``service.pool.queue_wait_ms`` 21
#:   -> 0.9, ``save_commit_p50_ms`` 53 -> 35, ``ckpt_overhead_ratio`` 1.029
#:   -> 1.017 (9 of 10), useful steps/s 67.3 -> 69.7 (7 of 10).
#: * 2^16 (``vqe16_bigstate``, 40-60 us kernels) and 64 KiB ``fnv1a64``
#:   blocks: no difference either way; released, so that other threads and a
#:   column-partitioning thread pool can run beside a long kernel.
#:
#: Nothing runs between 2^10 and 2^12, so the constant sits at the smallest
#: size measured where releasing is the better side.
RELEASE_GIL_MIN_WORK = 1 << 12


def _bind(dlls, name: str, restype, argtypes):
    """``name`` from each handle, indexed by "releases the lock"."""
    functions = []
    for dll in dlls:
        function = getattr(dll, name)
        function.restype = restype
        function.argtypes = argtypes
        functions.append(function)
    return tuple(functions)


class CompiledKernels:
    """ctypes facade over the compiled library.

    ``apply_1q``/``apply_2q`` return ``True`` when the compiled kernel
    handled the update and ``False`` when the array is not eligible
    (wrong dtype / non-contiguous), in which case the caller falls through
    to the numpy path.

    ``kept`` and ``released`` are the same library through ``ctypes.PyDLL``
    and ``ctypes.CDLL``; every function slot holds the pair and a call
    indexes it with ``work >= RELEASE_GIL_MIN_WORK``.  Both run the same
    machine code, so the choice cannot change a result bit.  ``calls`` counts
    the calls on each side (plain integers: two threads on the releasing
    side may lose an increment, which a tally can afford).

    Arrays cross as plain addresses (``arr.ctypes.data``): building a
    ``POINTER(c_double)`` per argument through ``data_as`` -> ``ctypes.cast``
    cost more than the small kernels themselves.
    """

    def __init__(self, kept, released, so_path: str):
        self.so_path = so_path
        self.calls = [0, 0]  # [kept, released]
        self._dlls = dlls = (kept, released)
        self._k1q = _bind(dlls, "qk_apply_1q", None, [_VOID_P, _LONG, _LONG, _VOID_P])
        self._k2q = _bind(
            dlls,
            "qk_apply_2q",
            ctypes.c_int,
            [_VOID_P, _LONG, _LONG, _LONG, _VOID_P, _VOID_P],
        )
        self._xor3 = _bind(dlls, "qk_xor3", None, [_VOID_P, _VOID_P, _VOID_P, _LONG])
        self._fnv = _bind(dlls, "qk_fnv1a64", ctypes.c_uint64, [_VOID_P, _LONG])
        # indexed by "wires reversed"
        self._vmaps = (
            (ctypes.c_long * 4)(0, 1, 2, 3),
            (ctypes.c_long * 4)(0, 2, 1, 3),
        )

    def _side(self, work: int) -> bool:
        released = work >= RELEASE_GIL_MIN_WORK
        self.calls[released] += 1
        return released

    @staticmethod
    def _eligible(states: np.ndarray, matrix: np.ndarray) -> bool:
        return (
            states.dtype == np.complex128
            and states.flags["C_CONTIGUOUS"]
            and matrix.dtype == np.complex128
        )

    def apply_1q(
        self, states: np.ndarray, matrix: np.ndarray, wire: int, n: int, tail: int
    ) -> bool:
        if not self._eligible(states, matrix):
            return False
        if not matrix.flags["C_CONTIGUOUS"]:
            matrix = np.ascontiguousarray(matrix)
        block = (1 << (n - wire - 1)) * tail
        self._k1q[self._side(states.size)](
            states.ctypes.data,
            states.size // (2 * block),
            block,
            matrix.ctypes.data,
        )
        return True

    def apply_2q(
        self,
        states: np.ndarray,
        matrix: np.ndarray,
        wires: Sequence[int],
        n: int,
        tail: int,
    ) -> bool:
        if not self._eligible(states, matrix):
            return False
        if not matrix.flags["C_CONTIGUOUS"]:
            matrix = np.ascontiguousarray(matrix)
        w0, w1 = wires
        i, j = (w0, w1) if w0 < w1 else (w1, w0)
        block = (1 << (n - j - 1)) * tail
        mid = 1 << (j - i - 1)
        handled = self._k2q[self._side(states.size)](
            states.ctypes.data,
            states.size // (4 * mid * block),
            mid,
            block,
            matrix.ctypes.data,
            self._vmaps[w0 > w1],
        )
        return bool(handled)

    def xor_to(self, out: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
        """``out = a ^ b`` over uint8 arrays in one pass; False when not eligible."""
        arrays = (out, a, b)
        if any(
            arr.dtype != np.uint8 or not arr.flags["C_CONTIGUOUS"]
            for arr in arrays
        ) or not (out.size == a.size == b.size):
            return False
        self._xor3[self._side(out.size)](
            out.ctypes.data, a.ctypes.data, b.ctypes.data, out.size
        )
        return True

    def fnv1a64(self, data) -> int:
        """FNV-1a 64 over a bytes-like object (accepts memoryview)."""
        view = memoryview(data)
        if not view.c_contiguous:
            view = memoryview(bytes(view))
        n = view.nbytes
        if n == 0:
            return 0xCBF29CE484222325
        # np.frombuffer is zero-copy even over read-only buffers, unlike
        # ctypes' from_buffer (writable-only) / from_buffer_copy (copies).
        arr = np.frombuffer(view, dtype=np.uint8).reshape(-1)
        return int(self._fnv[self._side(n)](arr.ctypes.data, n))


def _self_test(lib: CompiledKernels) -> Optional[str]:
    """Bitwise parity check of both handles against the numpy oracle; returns
    the failure reason.  The check's arrays are small, so each handle is
    tested as a facade of its own with that handle on both sides."""
    for name, dll in zip(("lock-keeping", "lock-releasing"), lib._dlls):
        failure = _parity_failure(CompiledKernels(dll, dll, lib.so_path))
        if failure is not None:
            return f"{name} handle: {failure}"
    return None


def _parity_failure(lib: CompiledKernels) -> Optional[str]:
    rng = np.random.default_rng(20250807)
    n, tail = 5, 6
    dim = 1 << n

    def fresh():
        raw = rng.standard_normal((dim, tail)) + 1j * rng.standard_normal((dim, tail))
        return np.ascontiguousarray(raw.astype(np.complex128))

    theta = 0.7853981
    cos, sin = np.cos(theta / 2), np.sin(theta / 2)
    ry = np.array([[cos, -sin], [sin, cos]], dtype=np.complex128)
    rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]).astype(np.complex128)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    cnot = np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]
    crz = np.diag([1, 1, np.exp(-0.5j * theta), np.exp(0.5j * theta)]).astype(
        np.complex128
    )
    dense4 = np.asarray(
        np.kron(ry, rz) @ cnot, dtype=np.complex128
    )  # no zero entries, exercises the general 4x4 path

    def oracle_1q(states, matrix, wire):
        block = 1 << (n - wire - 1)
        psi = states.reshape(-1, 1 << wire, 2, block * tail)
        a, b = psi[:, :, 0, :], psi[:, :, 1, :]
        m00, m01 = matrix[0, 0], matrix[0, 1]
        m10, m11 = matrix[1, 0], matrix[1, 1]
        if m01 == 0 and m10 == 0:
            if m00 != 1:
                a *= m00
            if m11 != 1:
                b *= m11
            return
        if m00 == 0 and m11 == 0:
            s0 = a.copy()
            np.multiply(b, m01, out=a)
            np.multiply(s0, m10, out=b)
            return
        s0 = np.multiply(a, m00)
        s1 = np.multiply(b, m01)
        s0 += s1
        np.multiply(a, m10, out=s1)
        b *= m11
        b += s1
        a[...] = s0

    for wire, matrix in ((0, ry), (2, rz), (4, x), (1, ry)):
        got, want = fresh(), None
        want = got.copy()
        if not lib.apply_1q(got, matrix, wire, n, tail):
            return "apply_1q rejected an eligible array"
        oracle_1q(want, matrix, wire)
        if not np.array_equal(
            got.view(np.float64), want.view(np.float64)
        ):
            return f"apply_1q bitwise mismatch on wire {wire}"

    from repro.quantum import kernels as _k

    for wires, matrix in (((1, 3), cnot), ((3, 1), cnot), ((0, 4), crz)):
        got = fresh()
        want = got.copy()
        if not lib.apply_2q(got, matrix, wires, n, tail):
            return "apply_2q rejected an eligible array"
        _k._apply_2q(want, matrix, wires, n, tail=tail)
        if not np.array_equal(got.view(np.float64), want.view(np.float64)):
            return f"apply_2q bitwise mismatch on wires {wires}"
    probe = fresh()
    if lib.apply_2q(probe, dense4, (2, 0), n, tail):
        return "apply_2q claimed the general dense path (must defer to numpy)"

    blob = rng.integers(0, 256, size=1031, dtype=np.uint8)
    other = rng.integers(0, 256, size=1031, dtype=np.uint8)
    out3 = np.zeros_like(blob)
    if not lib.xor_to(out3, blob, other):
        return "xor_to rejected eligible arrays"
    if not np.array_equal(out3, blob ^ other):
        return "xor_to mismatch"

    payload = bytes(blob[:257])
    h = 0xCBF29CE484222325
    for byte in payload:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    if lib.fnv1a64(payload) != h:
        return "fnv1a64 mismatch"
    return None


def _probe() -> None:
    global _probed, _library, _reason
    compiler = _find_compiler()
    if compiler is None:
        _reason = "no C compiler found (set QCKPT_CC to override probing)"
        return
    try:
        so_path = _build(compiler)
        lib = CompiledKernels(ctypes.PyDLL(so_path), ctypes.CDLL(so_path), so_path)
    except (OSError, RuntimeError, subprocess.SubprocessError, AttributeError) as exc:
        _reason = f"build/load failed: {exc}"
        return
    failure = _self_test(lib)
    if failure is not None:
        _reason = f"self-test failed ({failure}); staying on numpy"
        return
    _library = lib
    _reason = "ok"


def kernel_library() -> Optional[CompiledKernels]:
    """The loaded compiled library, probing (build + self-test) once."""
    global _probed
    with _lock:
        if not _probed:
            _probed = True
            _probe()
        return _library


def available() -> bool:
    return kernel_library() is not None


def availability_reason() -> str:
    """Why the tier is (un)available — surfaced by ``engine_info`` and errors."""
    kernel_library()
    return _reason


def call_counts() -> Optional[dict]:
    """Calls made through each handle so far (``None`` before a library is
    loaded): which side of :data:`RELEASE_GIL_MIN_WORK` this process runs on."""
    with _lock:
        if _library is None:
            return None
        kept, released = _library.calls
    return {"kept": kept, "released": released}


def reset_probe() -> None:
    """Forget the probe result so tests can re-probe under a different env."""
    global _probed, _library, _reason
    with _lock:
        _probed = False
        _library = None
        _reason = "not probed yet"
