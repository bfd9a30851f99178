"""Decoding of the incremental (delta) checkpoints in QCKPT stores.

Nothing writes deltas any more; :class:`~repro.core.store.CheckpointStore`
still restores the chains earlier releases wrote.  A delta checkpoint
stores, per tensor, one exact encoding against its base checkpoint:

* ``"xor"`` — same shape/dtype: the XOR of the raw byte streams,
* ``"append"`` — 1-D, same dtype, the base a bitwise prefix of the current
  tensor: only the appended suffix (the loss-history case),
* ``"full"`` — anything else: the tensor whole.

Applying the delta to the base reproduces the current tensor bitwise.
Tensors absent from the current snapshot are recorded in ``removed``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import SerializationError

MODE_XOR = "xor"
MODE_APPEND = "append"
MODE_FULL = "full"


def _byte_view(array: np.ndarray) -> np.ndarray:
    """Flat ``uint8`` view of an array's raw bytes (no copy if contiguous)."""
    return np.ascontiguousarray(array).view(np.uint8).reshape(-1)


def _xor_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """XOR the raw bytes of two arrays directly into a fresh uint8 array.

    Operates on ``uint8`` views rather than materializing two intermediate
    ``bytes`` objects per tensor, which halves the allocations on the delta
    hot path.  When the compiled engine tier is live its one-pass
    ``qk_xor3`` kernel does the combine; XOR is exact either way, so the
    two paths are bitwise interchangeable.
    """
    left = _byte_view(a)
    right = _byte_view(b)
    if left.size != right.size:
        raise SerializationError(
            f"xor length mismatch: {left.size} vs {right.size}"
        )
    out = np.empty(left.size, dtype=np.uint8)
    from repro.quantum import engines

    lib = engines.storage_library()
    if lib is not None and lib.xor_to(out, left, right):
        return out
    np.bitwise_xor(left, right, out=out)
    return out


def apply_delta(
    base: Dict[str, np.ndarray],
    delta_tensors: Dict[str, np.ndarray],
    delta_meta: Dict,
) -> Dict[str, np.ndarray]:
    """Reconstruct the current tensor directory from base + delta."""
    try:
        entries: Dict[str, Dict] = delta_meta["entries"]
        removed: List[str] = delta_meta.get("removed", [])
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed delta metadata: {exc}") from exc

    current: Dict[str, np.ndarray] = {}
    for name, entry in entries.items():
        mode = entry.get("mode")
        if mode == MODE_FULL:
            current[name] = delta_tensors[name]
        elif mode == MODE_APPEND:
            base_array = base.get(name)
            if base_array is None:
                raise SerializationError(
                    f"delta references missing base tensor {name!r}"
                )
            dtype = np.dtype(entry["dtype"])
            base_size = int(entry["base_size"])
            if (
                base_array.dtype != dtype
                or base_array.ndim != 1
                or base_array.size != base_size
            ):
                raise SerializationError(
                    f"base tensor {name!r} has dtype/size "
                    f"{base_array.dtype}/{base_array.shape}, append delta "
                    f"expects {dtype}/({base_size},)"
                )
            suffix = delta_tensors[name]
            if suffix.dtype != dtype:
                raise SerializationError(
                    f"append suffix for {name!r} has dtype {suffix.dtype}, "
                    f"expected {dtype}"
                )
            current[name] = np.concatenate([base_array, suffix])
        elif mode == MODE_XOR:
            base_array = base.get(name)
            if base_array is None:
                raise SerializationError(
                    f"delta references missing base tensor {name!r}"
                )
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            if base_array.dtype != dtype or base_array.shape != shape:
                raise SerializationError(
                    f"base tensor {name!r} has dtype/shape "
                    f"{base_array.dtype}/{base_array.shape}, delta expects "
                    f"{dtype}/{shape}"
                )
            patched = _xor_arrays(base_array, delta_tensors[name])
            current[name] = patched.view(dtype).reshape(shape)
        else:
            raise SerializationError(f"unknown delta mode {mode!r} for {name!r}")
    for name in removed:
        current.pop(name, None)
    return current

