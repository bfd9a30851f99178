"""QCKPT v1: the pickle-free checkpoint container format.

Layout::

    +--------------------+----------------------------------------------+
    | magic   (8 bytes)  | b"QCKPT1\\n\\x00"                            |
    | hlen    (4 bytes)  | little-endian uint32 header length           |
    | header  (hlen)     | UTF-8 JSON: version, codec, meta, tensor dir |
    | payload            | concatenated encoded tensor chunks           |
    | footer  (32 bytes) | SHA-256 over everything before the footer    |
    +--------------------+----------------------------------------------+

Tensor directory entries record ``name, dtype, shape, offset, stored_nbytes,
raw_nbytes, crc32, transform, transform_meta``.  Decoding never executes
code: the header is JSON, tensors are ``np.frombuffer`` reconstructions, and
unknown codec/transform names fail loudly.  This is the safety property a
checkpoint loader must have (contrast: ``pickle``-based formats execute
arbitrary bytecode on load).
"""

from __future__ import annotations

import json
import math
import struct
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.codecs import get_codec, get_transform
from repro.core.integrity import (
    SHA256_NBYTES,
    crc32_of,
    sha256_of,
    verify_crc32,
    verify_sha256,
)
from repro.core.snapshot import TrainingSnapshot
from repro.errors import IntegrityError, SerializationError

MAGIC = b"QCKPT1\n\x00"
FORMAT_VERSION = 1

_ALLOWED_DTYPES = {
    "<f8", "<f4", "<f2",
    "<i8", "<i4", "<i2", "|i1",
    "<u8", "<u4", "<u2", "|u1",
    "<c16", "<c8",
    "|b1",
}


def _canonical_dtype(array: np.ndarray) -> Tuple[np.ndarray, str]:
    """Coerce to little-endian and return the dtype token to store."""
    dtype = array.dtype.newbyteorder("<") if array.dtype.byteorder == ">" else array.dtype
    if dtype != array.dtype:
        array = array.astype(dtype)
    token = np.dtype(dtype).str
    if token.startswith("="):
        token = "<" + token[1:]
    if token not in _ALLOWED_DTYPES:
        raise SerializationError(
            f"dtype {token!r} is not in the QCKPT dtype whitelist"
        )
    # ascontiguousarray alone would hand a 0-d tensor back as shape (1,).
    return np.ascontiguousarray(array).reshape(array.shape), token


def tensor_to_bytes(array: np.ndarray) -> Tuple[bytes, str, Tuple[int, ...]]:
    """Canonical raw encoding of one tensor: ``(bytes, dtype_token, shape)``.

    The canonical form (little-endian, contiguous, whitelisted dtype) is what
    both the QCKPT container and the service chunk store hash and persist —
    equal arrays always produce equal bytes, which is what makes
    content-addressed dedup sound.
    """
    if not isinstance(array, np.ndarray):
        raise SerializationError(
            f"expected ndarray, got {type(array).__name__}"
        )
    canonical, token = _canonical_dtype(array)
    return canonical.tobytes(), token, tuple(canonical.shape)


def empty_tensor(
    dtype_token: str, shape: Tuple[int, ...], raw_nbytes: int
) -> Tuple[np.ndarray, memoryview]:
    """A writable array for one stored tensor, and the flat byte view its
    ``raw_nbytes`` canonical bytes are written through.

    Validates against the dtype whitelist and requires every dim to be an
    explicit non-negative int whose product matches the byte count — a
    malicious ``-1`` dim from an untrusted directory must not let numpy
    "resolve" a truncated buffer into a silently wrong shape, and blocks
    that under- or over-fill the tensor must not come back short or padded.
    """
    if dtype_token not in _ALLOWED_DTYPES:
        raise IntegrityError(f"illegal tensor dtype {dtype_token!r}")
    dims = []
    for dim in shape:
        if not isinstance(dim, (int, np.integer)) or dim < 0:
            raise IntegrityError(f"illegal tensor shape {tuple(shape)!r}")
        dims.append(int(dim))
    dtype = np.dtype(dtype_token)
    expected = math.prod(dims) * dtype.itemsize
    if expected != raw_nbytes:
        raise IntegrityError(
            f"tensor bytes ({raw_nbytes}) do not match shape "
            f"{tuple(dims)!r} of dtype {dtype_token!r}"
        )
    array = np.empty(tuple(dims), dtype=dtype)
    return array, memoryview(array.reshape(-1).view(np.uint8))


def tensor_from_bytes(
    raw: bytes, dtype_token: str, shape: Tuple[int, ...]
) -> np.ndarray:
    """Inverse of :func:`tensor_to_bytes` (an array that owns its memory)."""
    array, dest = empty_tensor(dtype_token, shape, len(raw))
    dest[:] = raw
    return array


def pack_payload(
    meta: Dict,
    tensors: Dict[str, np.ndarray],
    codec: str = "zlib-6",
    transforms: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize a (JSON meta, tensor directory) pair to QCKPT bytes.

    ``transforms`` maps tensor names to transform names (e.g.
    ``{"statevector": "f16-pair"}``); unlisted tensors store losslessly.
    """
    codec_obj = get_codec(codec)
    transforms = transforms or {}
    for name in transforms:
        if name not in tensors:
            raise SerializationError(
                f"transform target {name!r} is not a tensor in this payload"
            )
    directory = []
    chunks = []
    offset = 0
    for name in sorted(tensors):
        array = tensors[name]
        if not isinstance(array, np.ndarray):
            raise SerializationError(
                f"tensor {name!r} is {type(array).__name__}, expected ndarray"
            )
        transform_name = transforms.get(name, "identity")
        transform = get_transform(transform_name)
        encoded_array, transform_meta = transform.encode(array)
        raw, dtype_token, shape = tensor_to_bytes(encoded_array)
        stored = codec_obj.encode(raw)
        directory.append(
            {
                "name": name,
                "dtype": dtype_token,
                "shape": list(shape),
                "offset": offset,
                "stored_nbytes": len(stored),
                "raw_nbytes": len(raw),
                "crc32": crc32_of(stored),
                "transform": transform_name,
                "transform_meta": transform_meta,
            }
        )
        chunks.append(stored)
        offset += len(stored)

    header = {
        "format_version": FORMAT_VERSION,
        "codec": codec_obj.name,
        "meta": meta,
        "tensors": directory,
    }
    try:
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"meta tree is not JSON-serializable: {exc}") from exc

    body = b"".join(
        [MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, *chunks]
    )
    return body + sha256_of(body)


def read_header(data: bytes) -> Tuple[Dict, int]:
    """Parse the header of the QCKPT file ``data``: ``(header,
    payload_offset)``.

    The one header parser: every check the bytes read from disk must pass
    before anything interprets them — magic, a header length inside the
    file, valid JSON, the format version.  The SHA-256 footer is the
    caller's to check (before this, when it wants integrity first).
    """
    header_start = len(MAGIC) + 4
    if len(data) < header_start + SHA256_NBYTES:
        raise IntegrityError(
            f"data of {len(data)} bytes is shorter than a minimal QCKPT file"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise IntegrityError("bad magic: not a QCKPT file")
    (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
    header_end = header_start + header_len
    if header_end > len(data) - SHA256_NBYTES:
        raise IntegrityError("header length exceeds file size")
    try:
        header = json.loads(data[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"header is not valid JSON: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported QCKPT format version {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    return header, header_end


def unpack_payload(
    data: bytes, verify: bool = True
) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Inverse of :func:`pack_payload`; validates checksums when ``verify``
    (the SHA-256 footer before the header is parsed)."""
    if verify:
        verify_sha256(
            data[:-SHA256_NBYTES], data[-SHA256_NBYTES:], label="QCKPT file"
        )
    header, payload_offset = read_header(data)
    codec_obj = get_codec(header["codec"])
    payload = data[payload_offset:-SHA256_NBYTES]

    tensors: Dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        start, length = int(entry["offset"]), int(entry["stored_nbytes"])
        stored = payload[start : start + length]
        tensors[entry["name"]] = _decode_directory_entry(
            entry, stored, codec_obj, verify
        )
    return header["meta"], tensors


def decode_stored_chunk(
    stored: bytes,
    crc32: Optional[int],
    raw_nbytes: int,
    codec_obj,
    label: str,
    verify: bool = True,
) -> bytes:
    """One stored (encoded) chunk → verified raw bytes.

    The shared decode step of every read path: CRC32 over the stored bytes
    (when recorded and ``verify``), codec decode, decoded-length check.
    Both the in-place unpackers here and the restore pipeline's block
    executor use it, so integrity rules cannot drift between paths.
    """
    if verify and crc32 is not None:
        verify_crc32(stored, int(crc32), label=label)
    raw = codec_obj.decode(stored)
    if len(raw) != int(raw_nbytes):
        raise IntegrityError(
            f"{label} decoded to {len(raw)} bytes, "
            f"directory says {raw_nbytes}"
        )
    return raw


def _decode_directory_entry(
    entry: Dict, stored: bytes, codec_obj, verify: bool
) -> np.ndarray:
    """Decode one tensor chunk against its directory entry."""
    name = entry["name"]
    if len(stored) != int(entry["stored_nbytes"]):
        raise IntegrityError(f"tensor {name!r} chunk is truncated")
    raw = decode_stored_chunk(
        stored,
        int(entry["crc32"]),
        int(entry["raw_nbytes"]),
        codec_obj,
        label=f"tensor {name!r}",
        verify=verify,
    )
    dtype_token = entry["dtype"]
    if dtype_token not in _ALLOWED_DTYPES:
        raise IntegrityError(f"tensor {name!r} has illegal dtype {dtype_token!r}")
    array = np.frombuffer(raw, dtype=np.dtype(dtype_token)).reshape(
        tuple(entry["shape"])
    )
    transform = get_transform(entry.get("transform", "identity"))
    return transform.decode(
        np.array(array, copy=True), entry.get("transform_meta", {})
    )


# ---------------------------------------------------------------------------
# Snapshot-level convenience API
# ---------------------------------------------------------------------------


def pack_snapshot(
    snapshot: TrainingSnapshot,
    codec: str = "zlib-6",
    transforms: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize a training snapshot to QCKPT bytes."""
    meta, tensors = snapshot.to_payload()
    return pack_payload(
        {"kind": "full", "snapshot": meta}, tensors, codec=codec, transforms=transforms
    )


def unpack_snapshot(data: bytes, verify: bool = True) -> TrainingSnapshot:
    """Deserialize QCKPT bytes produced by :func:`pack_snapshot`."""
    meta, tensors = unpack_payload(data, verify=verify)
    if meta.get("kind") != "full":
        raise SerializationError(
            f"expected a full snapshot, found kind {meta.get('kind')!r} "
            "(delta checkpoints must be resolved through a CheckpointStore)"
        )
    return TrainingSnapshot.from_payload(meta["snapshot"], tensors)

