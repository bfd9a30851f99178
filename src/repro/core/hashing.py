"""Fast content hashing over block streams.

The chunk store addresses every ``block_bytes``-sized piece of a tensor's
byte stream by SHA-256.  The original save path sliced the stream with
``raw[start:start+block_bytes]`` — one heap-allocated ``bytes`` copy per
block *before* any hashing happened.  :func:`iter_blocks` and
:func:`block_address_stream` replace that with one pass of zero-copy
``memoryview`` slices fed straight into the hash (``hashlib`` accepts any
buffer), so addressing a gigabyte stream allocates nothing but the digests.
The addresses are byte-for-byte identical to
:func:`repro.core.restore.content_address` of the copied block — the
property tests hold both against each other.

:func:`fast_digest` is the cheap non-cryptographic fingerprint (FNV-1a 64):
compiled C when the engine's compiled tier is available, pure Python
otherwise — both produce the same value, which the oracle tests pin.  A
fingerprint mismatch proves two payloads differ; a match proves nothing, so
it is only ever a *negative* pre-filter (skip work when content definitely
changed) and never a substitute for the SHA-256 address.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.restore import address_prefix, content_address

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def iter_blocks(buffer, block_bytes: int) -> Iterator[memoryview]:
    """Zero-copy ``memoryview`` slices of ``buffer``, ``block_bytes`` each.

    An empty buffer yields exactly one empty view — the chunk store stores
    an empty tensor as one empty block, and the iteration mirrors that.
    """
    view = memoryview(buffer)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    total = view.nbytes
    if total == 0:
        yield view[:0]
        return
    for start in range(0, total, block_bytes):
        yield view[start : start + block_bytes]


def block_address_stream(
    buffer, block_bytes: int, codec_name: str
) -> Iterator[Tuple[memoryview, str]]:
    """``(block_view, content_address)`` pairs in one zero-copy pass.

    Addresses *are* :func:`repro.core.restore.content_address` of each view:
    the codec-name prefix is hashed once and each block view is streamed
    into a copy of that state, so no intermediate ``prefix + block``
    concatenation (and no block ``bytes`` copy) is ever materialized.
    """
    prefix = address_prefix(codec_name)
    for view in iter_blocks(buffer, block_bytes):
        yield view, content_address(view, codec_name, prefix)


def block_addresses(
    buffer, block_bytes: int, codec_name: str
) -> List[Tuple[memoryview, str]]:
    """Materialized :func:`block_address_stream` (small streams, tests)."""
    return list(block_address_stream(buffer, block_bytes, codec_name))


def _fast_digest_python(view: memoryview) -> int:
    h = _FNV_OFFSET
    for byte in bytes(view):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def fast_digest(data) -> int:
    """FNV-1a 64 fingerprint of a bytes-like object.

    Dispatches to the compiled kernel library when the engine ladder
    permits it on this host (~50x the pure-Python loop), falling back to
    the Python implementation otherwise; both are pinned to the same test
    vectors.  Non-cryptographic: use only as a negative pre-filter.
    """
    from repro.quantum import engines

    lib = engines.storage_library()
    view = memoryview(data)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    if lib is not None:
        return lib.fnv1a64(view)
    return _fast_digest_python(view)
