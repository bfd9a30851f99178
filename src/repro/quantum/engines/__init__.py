"""Execution-engine tiers and multi-process gradient sharding.

The fast statevector engine of :mod:`repro.quantum.kernels` has, until now,
been one implementation: vectorized numpy kernels.  This package turns the
engine into a *ladder of tiers* plus a fan-out axis:

* **numpy** — the pure-numpy kernels, always available, and the oracle every
  other tier is property-tested against.
* **compiled** — C builds of the hot 1q/2q gate kernels (plus the XOR-delta
  decoder and the fast content-hash primitive), compiled on first use with the host C
  compiler and loaded through ``ctypes`` (:mod:`repro.quantum.engines.compiled`).
  No third-party dependency: if the host has no working C compiler the tier
  reports unavailable and the ladder falls back to numpy.
* **sharding** — a multi-process shard executor for the embarrassingly
  parallel shifted-parameter batches of gradient evaluation
  (:mod:`repro.quantum.engines.sharding`), orthogonal to the tier choice:
  every worker runs whichever tier the parent selected.

Selection ladder (``QCKPT_ENGINE``): ``auto`` (default) picks ``compiled``
when the compiled library is importable and ``numpy`` otherwise; ``numpy``
and ``compiled`` force a tier (forcing ``compiled`` on a host without a C
compiler is a :class:`~repro.errors.ConfigError`, not a silent fallback).
The selection happens once per process, lazily, on the first kernel
execution — importing this package does not build anything.

Determinism contract: within one tier, gradient energies are **bitwise
invariant to batch width**, so splitting a shifted batch across shard
workers reproduces the single-process gradient bit-for-bit.  Across tiers,
results agree to floating-point round-off (the compiled kernels mirror the
numpy elementwise operations exactly and are bitwise-identical on the batch
paths; only flat-state BLAS paths may differ in the last ulp).

Observability: engine selection and shard fan-out are counted in a
process-global :class:`~repro.obs.metrics.MetricsRegistry` (``engine.*`` /
``shard.*`` series) that the fleet daemon folds into its ``metrics`` op, so
``qckpt metrics`` / ``qckpt top`` show which tier is live and how many
worker processes actually executed shifts.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry

TIER_NUMPY = "numpy"
TIER_COMPILED = "compiled"
AUTO = "auto"
_TIERS = (TIER_NUMPY, TIER_COMPILED)

#: Environment knobs (documented in docs/OPERATIONS.md).
ENGINE_ENV = "QCKPT_ENGINE"
WORKERS_ENV = "QCKPT_SHARD_WORKERS"

#: Process-global registry for ``engine.*`` / ``shard.*`` series.  The fleet
#: daemon merges this into its own snapshot, so operators see engine state
#: through the same ``qckpt metrics`` pipe as storage counters.
METRICS = MetricsRegistry()

_lock = threading.RLock()
_active: Optional[str] = None
_scope = threading.local()


def available_tiers() -> Dict[str, bool]:
    """Tier name -> availability (probing builds the compiled library)."""
    from repro.quantum.engines import compiled

    return {TIER_NUMPY: True, TIER_COMPILED: compiled.available()}


def _resolve_request(name: Optional[str]) -> str:
    requested = name if name is not None else os.environ.get(ENGINE_ENV, "")
    requested = (requested or AUTO).strip().lower()
    if requested not in (*_TIERS, AUTO):
        raise ConfigError(
            f"{ENGINE_ENV} must be one of numpy|compiled|auto, "
            f"got {requested!r}"
        )
    return requested


def select_engine(name: Optional[str] = None) -> str:
    """Select and activate a tier; returns the active tier name.

    ``name=None`` reads ``QCKPT_ENGINE`` (default ``auto``).  ``auto``
    resolves to ``compiled`` when the compiled library builds/loads on this
    host and ``numpy`` otherwise.  Explicitly requesting ``compiled`` on a
    host where it is unavailable raises :class:`ConfigError` naming the
    reason, so a fleet operator who *asked* for the fast tier is never
    silently downgraded.
    """
    from repro.quantum.engines import compiled

    requested = _resolve_request(name)
    with _lock:
        if requested == TIER_COMPILED and not compiled.available():
            raise ConfigError(
                f"QCKPT_ENGINE=compiled but the compiled kernel tier is "
                f"unavailable: {compiled.availability_reason()}"
            )
        if requested == AUTO:
            tier = TIER_COMPILED if compiled.available() else TIER_NUMPY
        else:
            tier = requested
        _activate(tier)
        return tier


#: Bytes :func:`_prime_malloc_thresholds` frees: a 16-qubit statevector.  A
#: process that trains that size raises the thresholds this far by itself,
#: so priming holds back no more memory than such a process already does.
_PRIME_BYTES = (1 << 16) * 16


def _prime_malloc_thresholds() -> None:
    """Free one 16-qubit statevector's worth of memory, so that glibc's
    malloc raises its self-adjusting thresholds when the engine starts and
    not whenever the process first happens to free a large buffer.

    glibc serves a request from ``mmap`` when it is at least the *mmap
    threshold* (128 KiB at first) and trims the top of the heap when more
    than the *trim threshold* is free there; freeing a mapped buffer raises
    the first to that buffer's size and the second to twice that.  A process
    that never frees more than 256 KiB therefore trims at 512 KiB, and a
    14-qubit step's few 256 KiB temporaries are trimmed away and
    page-faulted back on every step: 2280 faults and 21.5 ms a step (14q/2L
    VQE), 7 faults and 16.5 ms once this has run (thresholds 1 MiB, 2 MiB).
    Neighbours in the process feel it too: whether the e2e benchmark's
    yardstick (256 KiB numpy temporaries on the measured thread) takes 0 or
    96 faults a tick otherwise depends on what the program has left above
    them in the heap, and its clock reads 0.65 or 0.82 ms from one run to the
    next.  Other allocators ignore the hint.
    """
    np.empty(_PRIME_BYTES, dtype=np.uint8)


def _activate(tier: str) -> None:
    from repro.quantum import kernels
    from repro.quantum.engines import compiled

    global _active
    _prime_malloc_thresholds()
    kernels._set_compiled_kernels(
        compiled.kernel_library() if tier == TIER_COMPILED else None
    )
    _active = tier
    METRICS.counter("engine.selected", tier=tier).inc()
    METRICS.gauge("engine.compiled_available").set(
        1 if compiled.available() else 0
    )


def active_engine() -> str:
    """The live tier, selecting lazily (env ladder) on first use."""
    with _lock:
        if _active is None:
            return select_engine()
        return _active


def engine_info() -> Dict[str, object]:
    """Introspection bundle for benches, ``qckpt metrics`` and tests."""
    from repro.quantum.engines import compiled

    return {
        "active": active_engine(),
        "requested": _resolve_request(None),
        "compiled_available": compiled.available(),
        "compiled_reason": compiled.availability_reason(),
        "release_gil_min_work": compiled.RELEASE_GIL_MIN_WORK,
        "cpu_count": os.cpu_count(),
        "shard_workers": resolve_shard_workers(None),
    }


def storage_library():
    """Compiled library for storage fast paths, honoring the engine ladder.

    Returns the :class:`~repro.quantum.engines.compiled.CompiledKernels`
    facade when the ladder permits the compiled tier (``QCKPT_ENGINE`` is
    ``auto`` or ``compiled`` *and* the library builds on this host), else
    ``None``.  Never raises: storage callers (XOR-delta decoding, fast
    content digests) always have an exact numpy/python fallback, so a pinned
    ``QCKPT_ENGINE=numpy`` or a malformed env value simply means the
    fallback runs.
    """
    from repro.quantum.engines import compiled

    try:
        if _resolve_request(None) == TIER_NUMPY:
            return None
    except ConfigError:
        return None
    return compiled.kernel_library()


def reset_engine() -> None:
    """Forget the selection so the next use re-reads the environment (tests)."""
    from repro.quantum import kernels

    global _active
    with _lock:
        _active = None
        kernels._reset_engine_binding()


# ---------------------------------------------------------------------------
# Ambient execution scope (shard fan-out)
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def execution_scope(shard_workers: Optional[int] = None):
    """Thread-local scope carrying the gradient shard fan-out.

    The trainer (``TrainerConfig.shard_workers``) and the fleet scheduler
    (``FleetJobSpec.shard_workers``) wrap each training step in this scope;
    the shift-rule differentiators read it when their explicit
    ``shard_workers`` argument is ``None``.  Mirrors the thread-local
    ambient propagation of ``repro.reliability.deadline_scope``.

    ``shard_workers=None`` *inherits*: the scope is a no-op, so an enclosing
    scope (e.g. the fleet scheduler's per-job fan-out around a trainer whose
    own config leaves the knob unset) stays visible.  Pass 0 to explicitly
    force in-process execution inside an enclosing scope.
    """
    if shard_workers is None:
        yield
        return
    if shard_workers < 0:
        raise ConfigError(
            f"shard_workers must be >= 0, got {shard_workers}"
        )
    previous = getattr(_scope, "shard_workers", None)
    _scope.shard_workers = shard_workers
    try:
        yield
    finally:
        _scope.shard_workers = previous


def resolve_shard_workers(explicit: Optional[int]) -> int:
    """Effective worker count: explicit arg > ambient scope > env > 0 (off)."""
    if explicit is not None:
        return max(0, int(explicit))
    ambient = getattr(_scope, "shard_workers", None)
    if ambient is not None:
        return max(0, int(ambient))
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError as exc:
            raise ConfigError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from exc
    return 0


def metrics_snapshot() -> dict:
    """Snapshot of the engine/shard registry (for the daemon's metrics op).

    The compiled facade counts its calls in two plain integers (nothing on
    the kernel hot path touches the registry); they are read here and added
    to the returned snapshot as ``engine.kernel_calls{gil=kept|released}``.
    """
    from repro.quantum.engines import compiled

    snapshot = METRICS.snapshot()
    counts = compiled.call_counts()
    if counts is not None:
        snapshot["series"] = list(snapshot["series"]) + [
            {
                "name": "engine.kernel_calls",
                "labels": {"gil": side},
                "type": "counter",
                "epoch": snapshot["epoch"],
                "value": value,
            }
            for side, value in sorted(counts.items())
        ]
    return snapshot
