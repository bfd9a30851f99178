"""Byte codecs (lossless) and tensor transforms (possibly lossy).

Codecs operate on the serialized byte stream of each tensor chunk; transforms
operate on arrays before byte encoding and are *self-describing* (their
decode metadata is stored in the tensor directory).

The lossy transforms target the statevector, which dominates checkpoint size
beyond ~12 qubits:

* ``c64`` — complex128 → complex64 (precision halves, ~1e-7 amplitude error),
* ``f16-pair`` — complex128 → interleaved float16 (quarter size, ~1e-3),
* ``int8-block`` — blockwise absmax int8 quantization of the interleaved
  real/imag stream (eighth size; fidelity measured in Tab. 2).

Lossy restore renormalizes the statevector, so the decoded object is a valid
quantum state whose fidelity against the original quantifies the loss.
"""

from __future__ import annotations

import bz2
import lzma
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, SerializationError

# ---------------------------------------------------------------------------
# Byte codecs
# ---------------------------------------------------------------------------


# What a codec's probe says encoding one input will cost.  The chunk store
# picks its encode path from it; a codec may also act on it (zlib does).
STORED = "stored"  # no compression pass: the raw bytes, at most re-framed
CHEAP = "cheap"  # compresses in under 0.1 ms (an input under PROBE_MIN_BYTES)
COSTLY = "costly"  # compresses, at milliseconds per MiB

# Inputs shorter than this are compressed without probing.  Measured with
# zlib 1.2.13 on the 2-core reference box: zlib-6 on a block under 4 KiB
# takes under 0.1 ms (20 us at 768 bytes), less than a probe would save, and
# zlib's own block chooser already emits a stored block when such an input
# does not shrink.
PROBE_MIN_BYTES = 4096
# The probe deflates, at level 1, PROBE_WINDOWS evenly spaced windows that
# together hold 1/16 of the input and at most PROBE_MAX_SAMPLE bytes (each
# at least PROBE_MIN_WINDOW, so a 4 KiB input still gives deflate 1 KiB to
# find matches in): 0.04 ms per 64 KiB block, against 1.75 ms to deflate a
# dense amplitude block at level 6 and 0.03 ms to store it.  A whole-tensor
# caller (core.serialize) pays 0.35 ms for the capped sample of a 1 MiB
# statevector, against 32 ms to deflate it and 1.1 ms to store it.
PROBE_WINDOWS = 8
PROBE_MAX_SAMPLE = 1 << 14
PROBE_MIN_WINDOW = 128
# An input whose sample keeps more than 15/16 of its size is stored.  Dense
# amplitude blocks (Haar and ansatz states, optimizer slots) deflate to
# 0.96-0.98 and their samples to 0.97; a block that is half zeros samples at
# 0.50 and a sparse state at 0.01.  Storing one costs the 2-4% DEFLATE would
# have found; inflating a stored block takes 0.02 ms instead of 0.29 ms.
PROBE_STORED_ABOVE = 15 / 16


class Codec:
    """Lossless bytes→bytes codec."""

    name = "none"

    def probe(self, data) -> str:
        """What ``encode(data)`` will cost: ``STORED``, ``CHEAP`` or
        ``COSTLY``.  Pass the verdict to :meth:`encode` so a codec that
        inspects the bytes does so once."""
        return STORED

    def encode(self, data: bytes, verdict: Optional[str] = None) -> bytes:
        return data

    def decode(self, data: bytes) -> bytes:
        return data


class ZlibCodec(Codec):
    """DEFLATE at a fixed level, skipped for inputs that will not shrink.

    Every output is a valid zlib stream, so :meth:`decode` (and a bare
    ``zlib.decompress``) reads it whichever way it was encoded: an input the
    probe finds incompressible is framed as *stored* DEFLATE blocks
    (``zlib.compress(data, 0)``: the raw bytes plus 11 bytes, and 5 more per
    further 64 KiB) instead of being deflated for nothing.
    """

    def __init__(self, level: int):
        if not 1 <= level <= 9:
            raise ConfigError(f"zlib level must be in [1, 9], got {level}")
        self.level = level
        self.name = f"zlib-{level}"

    def probe(self, data) -> str:
        view = memoryview(data)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        total = len(view)
        if total < PROBE_MIN_BYTES:
            return CHEAP
        window = max(
            min(total >> 4, PROBE_MAX_SAMPLE) // PROBE_WINDOWS, PROBE_MIN_WINDOW
        )
        stride = (total - window) // (PROBE_WINDOWS - 1)
        sample = b"".join(
            [view[i * stride : i * stride + window] for i in range(PROBE_WINDOWS)]
        )
        if len(zlib.compress(sample, 1)) > PROBE_STORED_ABOVE * len(sample):
            return STORED
        return COSTLY

    def encode(self, data: bytes, verdict: Optional[str] = None) -> bytes:
        if verdict is None:
            verdict = self.probe(data)
        return zlib.compress(data, 0 if verdict == STORED else self.level)

    def decode(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise SerializationError(f"zlib decode failed: {exc}") from exc


class LzmaCodec(Codec):
    """LZMA/XZ: smallest output, slowest encode."""

    name = "lzma"

    def __init__(self, preset: int = 1):
        if not 0 <= preset <= 9:
            raise ConfigError(f"lzma preset must be in [0, 9], got {preset}")
        self.preset = preset
        if preset != 1:
            self.name = f"lzma-{preset}"

    def probe(self, data) -> str:
        return COSTLY  # lzma has no stored form to fall back to

    def encode(self, data: bytes, verdict: Optional[str] = None) -> bytes:
        return lzma.compress(data, preset=self.preset)

    def decode(self, data: bytes) -> bytes:
        try:
            return lzma.decompress(data)
        except lzma.LZMAError as exc:
            raise SerializationError(f"lzma decode failed: {exc}") from exc


class Bz2Codec(Codec):
    """bzip2 at a fixed compression level."""

    def __init__(self, level: int = 9):
        if not 1 <= level <= 9:
            raise ConfigError(f"bz2 level must be in [1, 9], got {level}")
        self.level = level
        self.name = "bz2" if level == 9 else f"bz2-{level}"

    def probe(self, data) -> str:
        return COSTLY  # bz2 has no stored form to fall back to

    def encode(self, data: bytes, verdict: Optional[str] = None) -> bytes:
        return bz2.compress(data, self.level)

    def decode(self, data: bytes) -> bytes:
        try:
            return bz2.decompress(data)
        except (OSError, ValueError) as exc:
            raise SerializationError(f"bz2 decode failed: {exc}") from exc


CODECS: Dict[str, Codec] = {}
for _codec in [
    Codec(),
    ZlibCodec(1),
    ZlibCodec(6),
    ZlibCodec(9),
    LzmaCodec(1),
    LzmaCodec(6),
    Bz2Codec(9),
]:
    CODECS[_codec.name] = _codec


def get_codec(name: str) -> Codec:
    """Look up a registered byte codec."""
    try:
        return CODECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown codec {name!r}; registered: {sorted(CODECS)}"
        ) from None


# ---------------------------------------------------------------------------
# Tensor transforms
# ---------------------------------------------------------------------------


class TensorTransform:
    """Array→array transform applied before byte encoding.

    ``encode`` returns the array to store plus JSON metadata that ``decode``
    needs.  The identity transform is the implicit default.
    """

    name = "identity"
    lossy = False

    def encode(self, array: np.ndarray) -> Tuple[np.ndarray, Dict]:
        return array, {}

    def decode(self, array: np.ndarray, meta: Dict) -> np.ndarray:
        return array


def _require_complex128(array: np.ndarray, name: str) -> None:
    if array.dtype != np.complex128 or array.ndim != 1:
        raise SerializationError(
            f"transform {name!r} requires a 1-D complex128 array, "
            f"got {array.dtype} with shape {array.shape}"
        )


def _renormalize(array: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(array)
    if norm > 0:
        array = array / norm
    return array


class Complex64Transform(TensorTransform):
    """complex128 → complex64 (half size, ~float32 amplitude precision)."""

    name = "c64"
    lossy = True

    def encode(self, array: np.ndarray) -> Tuple[np.ndarray, Dict]:
        _require_complex128(array, self.name)
        return array.astype(np.complex64), {}

    def decode(self, array: np.ndarray, meta: Dict) -> np.ndarray:
        return _renormalize(array.astype(np.complex128))


class Float16PairTransform(TensorTransform):
    """complex128 → interleaved (re, im) float16 stream (quarter size).

    Amplitudes are scaled by the absmax before the cast so the full float16
    dynamic range is used; the scale is stored in the metadata.
    """

    name = "f16-pair"
    lossy = True

    def encode(self, array: np.ndarray) -> Tuple[np.ndarray, Dict]:
        _require_complex128(array, self.name)
        interleaved = np.empty(2 * array.size, dtype=np.float64)
        interleaved[0::2] = array.real
        interleaved[1::2] = array.imag
        scale = float(np.max(np.abs(interleaved))) if array.size else 1.0
        if scale == 0.0:
            scale = 1.0
        return (interleaved / scale).astype(np.float16), {"scale": scale}

    def decode(self, array: np.ndarray, meta: Dict) -> np.ndarray:
        scale = float(meta.get("scale", 1.0))
        values = array.astype(np.float64) * scale
        out = values[0::2] + 1j * values[1::2]
        return _renormalize(out)


class Int8BlockTransform(TensorTransform):
    """Blockwise absmax int8 quantization of the interleaved stream.

    The interleaved real/imag float stream is cut into blocks of
    ``block_size`` values; each block is scaled by its absmax and rounded to
    int8.  Per-block scales live in the metadata (float64 list), giving an
    8.03x size reduction at ``block_size=4096``.
    """

    lossy = True

    def __init__(self, block_size: int = 4096):
        if block_size < 2:
            raise ConfigError(f"block_size must be >= 2, got {block_size}")
        self.block_size = int(block_size)
        self.name = (
            "int8-block"
            if block_size == 4096
            else f"int8-block-{block_size}"
        )

    def encode(self, array: np.ndarray) -> Tuple[np.ndarray, Dict]:
        _require_complex128(array, self.name)
        interleaved = np.empty(2 * array.size, dtype=np.float64)
        interleaved[0::2] = array.real
        interleaved[1::2] = array.imag
        # Zero-pad to whole blocks and quantize every block with one
        # vectorized absmax reduction (padding cannot raise a block's absmax).
        n_blocks = -(-interleaved.size // self.block_size) if interleaved.size else 0
        padded = np.zeros(n_blocks * self.block_size, dtype=np.float64)
        padded[: interleaved.size] = interleaved
        blocks = padded.reshape(n_blocks, self.block_size)
        block_scales = np.abs(blocks).max(axis=1)
        block_scales[block_scales == 0.0] = 1.0
        quantized_blocks = np.clip(
            np.round(blocks / block_scales[:, None] * 127.0), -127, 127
        ).astype(np.int8)
        quantized = quantized_blocks.reshape(-1)[: interleaved.size]
        return quantized, {
            "scales": [float(s) for s in block_scales],
            "block_size": self.block_size,
        }

    def decode(self, array: np.ndarray, meta: Dict) -> np.ndarray:
        scales = np.asarray(meta["scales"], dtype=np.float64)
        block_size = int(meta["block_size"])
        per_value = np.repeat(scales, block_size)[: array.size]
        values = array.astype(np.float64) / 127.0 * per_value
        out = values[0::2] + 1j * values[1::2]
        return _renormalize(out)


TRANSFORMS: Dict[str, TensorTransform] = {}
for _transform in [
    TensorTransform(),
    Complex64Transform(),
    Float16PairTransform(),
    Int8BlockTransform(),
]:
    TRANSFORMS[_transform.name] = _transform


def register_codec(codec: Codec, replace: bool = False) -> Codec:
    """Add a byte codec to the global registry (used by extensions)."""
    if codec.name in CODECS and not replace:
        raise ConfigError(f"codec {codec.name!r} is already registered")
    CODECS[codec.name] = codec
    return codec


def register_transform(
    transform: TensorTransform, replace: bool = False
) -> TensorTransform:
    """Add a tensor transform to the global registry (used by extensions).

    ``repro.mps.transform`` registers its MPS transforms through this hook at
    import time; importing any ``repro`` submodule triggers the package
    ``__init__`` which imports ``repro.mps``, so files written with extension
    transforms always decode.
    """
    if transform.name in TRANSFORMS and not replace:
        raise ConfigError(f"transform {transform.name!r} is already registered")
    TRANSFORMS[transform.name] = transform
    return transform


def get_transform(name: str) -> TensorTransform:
    """Look up a registered tensor transform."""
    try:
        return TRANSFORMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown transform {name!r}; registered: {sorted(TRANSFORMS)}"
        ) from None
