"""Unit tests for the QCKPT container format, including corruption handling."""

import numpy as np
import pytest

from repro.core.serialize import (
    FORMAT_VERSION,
    MAGIC,
    pack_payload,
    pack_snapshot,
    read_header,
    unpack_payload,
    unpack_snapshot,
)
from repro.errors import IntegrityError, SerializationError
from tests.test_snapshot import sample_snapshot


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "f64": rng.standard_normal(10),
        "f32": rng.standard_normal(7).astype(np.float32),
        "c128": (rng.standard_normal(8) + 1j * rng.standard_normal(8)),
        "c64": (rng.standard_normal(4) + 1j * rng.standard_normal(4)).astype(
            np.complex64
        ),
        "i64": rng.integers(-100, 100, 5),
        "i8": rng.integers(-100, 100, 9).astype(np.int8),
        "u8": rng.integers(0, 255, 6).astype(np.uint8),
        "bool": np.array([True, False, True]),
        "matrix": rng.standard_normal((3, 4)),
        "empty": np.zeros(0),
    }


class TestRoundtrip:
    @pytest.mark.parametrize("codec", ["none", "zlib-1", "zlib-6", "lzma", "bz2"])
    def test_all_dtypes_roundtrip(self, codec):
        meta = {"kind": "test", "nested": {"x": [1, 2, 3]}}
        tensors = sample_tensors()
        data = pack_payload(meta, tensors, codec=codec)
        meta2, tensors2 = unpack_payload(data)
        assert meta2 == meta
        assert set(tensors2) == set(tensors)
        for name in tensors:
            assert tensors2[name].dtype == tensors[name].dtype, name
            assert np.array_equal(tensors2[name], tensors[name]), name

    def test_empty_tensor_directory(self):
        data = pack_payload({"only": "meta"}, {})
        meta, tensors = unpack_payload(data)
        assert meta == {"only": "meta"} and tensors == {}

    def test_snapshot_roundtrip(self):
        snapshot = sample_snapshot()
        assert unpack_snapshot(pack_snapshot(snapshot)) == snapshot

    def test_unpack_snapshot_rejects_delta_payload(self):
        data = pack_payload({"kind": "delta"}, {})
        with pytest.raises(SerializationError, match="delta"):
            unpack_snapshot(data)

    def test_deterministic_output(self):
        snapshot = sample_snapshot()
        assert pack_snapshot(snapshot) == pack_snapshot(snapshot)

    def test_transform_applied_and_recorded(self):
        rng = np.random.default_rng(1)
        vec = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        vec = vec / np.linalg.norm(vec)
        data = pack_payload(
            {"k": 1}, {"sv": vec}, transforms={"sv": "f16-pair"}
        )
        header, _ = read_header(data)
        entry = header["tensors"][0]
        assert entry["transform"] == "f16-pair"
        assert entry["dtype"] == "<f2"
        _, tensors = unpack_payload(data)
        assert abs(np.vdot(vec, tensors["sv"])) ** 2 > 0.999

    def test_transform_target_must_exist(self):
        with pytest.raises(SerializationError):
            pack_payload({}, {"a": np.ones(2)}, transforms={"b": "c64"})

    def test_non_array_tensor_rejected(self):
        with pytest.raises(SerializationError):
            pack_payload({}, {"a": [1, 2, 3]})

    def test_unserializable_meta_rejected(self):
        with pytest.raises(SerializationError):
            pack_payload({"fn": object()}, {})

    def test_disallowed_dtype_rejected(self):
        with pytest.raises(SerializationError):
            pack_payload({}, {"a": np.zeros(2, dtype=np.float128)})


class TestIntegrity:
    def _packed(self):
        return pack_payload({"kind": "test"}, sample_tensors(), codec="zlib-6")

    def test_bad_magic(self):
        data = bytearray(self._packed())
        data[0] ^= 0xFF
        with pytest.raises(IntegrityError):
            unpack_payload(bytes(data))

    def test_truncated_file(self):
        data = self._packed()
        with pytest.raises(IntegrityError):
            unpack_payload(data[: len(data) // 2])

    def test_too_short_file(self):
        with pytest.raises(IntegrityError):
            unpack_payload(b"QCKPT")

    @pytest.mark.parametrize("fraction", [0.3, 0.5, 0.7, 0.95])
    def test_bitflip_detected_everywhere(self, fraction):
        data = bytearray(self._packed())
        offset = int(len(data) * fraction)
        data[offset] ^= 0x01
        with pytest.raises(IntegrityError):
            unpack_payload(bytes(data))

    def test_footer_tamper_detected(self):
        data = bytearray(self._packed())
        data[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            unpack_payload(bytes(data))

    def test_verify_false_skips_sha(self):
        data = bytearray(self._packed())
        data[-1] ^= 0x01  # damage only the footer
        meta, tensors = unpack_payload(bytes(data), verify=False)
        assert meta["kind"] == "test"

    def test_crc_catches_chunk_corruption_even_without_sha(self):
        data = bytearray(self._packed())
        # Damage payload *and* recompute nothing; skip sha with verify=False:
        # the per-chunk CRC must still catch it.
        header, payload_start = read_header(bytes(data))
        first = header["tensors"][0]
        data[payload_start + first["offset"]] ^= 0xFF
        # With sha skipped the damage is still caught — either by the chunk
        # CRC or by the codec failing to decode.
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            unpack_payload(bytes(data), verify=False)
        with pytest.raises(IntegrityError):
            unpack_payload(bytes(data), verify=True)

    def test_unsupported_format_version(self):
        data = pack_payload({"k": 1}, {})
        # Rewrite the header with a bumped version and fix up lengths/sha.
        import json
        import struct

        from repro.core.integrity import sha256_of

        (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
        start = len(MAGIC) + 4
        header = json.loads(data[start : start + header_len])
        header["format_version"] = FORMAT_VERSION + 1
        new_header = json.dumps(header, sort_keys=True).encode()
        body = (
            MAGIC
            + struct.pack("<I", len(new_header))
            + new_header
            + data[start + header_len : -32]
        )
        data = body + sha256_of(body)
        with pytest.raises(SerializationError, match="version"):
            unpack_payload(data)

    def test_corrupt_chunk_under_a_valid_footer_fails_its_crc(self):
        # The chunk is damaged before the footer was computed, so only the
        # chunk's own CRC32 can tell.
        from repro.core.integrity import SHA256_NBYTES, sha256_of

        data = self._packed()
        header, payload_start = read_header(data)
        entry = next(e for e in header["tensors"] if e["name"] == "f64")
        body = bytearray(data[:-SHA256_NBYTES])
        body[payload_start + entry["offset"] + 3] ^= 0xFF
        with pytest.raises(IntegrityError, match="CRC32"):
            unpack_payload(bytes(body) + sha256_of(bytes(body)))

    def test_read_header_reads_without_decode(self):
        data = self._packed()
        header, payload_offset = read_header(data)
        assert header["format_version"] == FORMAT_VERSION
        assert header["codec"] == "zlib-6"
        assert {t["name"] for t in header["tensors"]} == set(sample_tensors())
        last = max(header["tensors"], key=lambda t: t["offset"])
        assert payload_offset + last["offset"] + last["stored_nbytes"] == (
            len(data) - 32
        )

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data: b"\x00" * 64, "magic"),
            (lambda data: b"NOTQCKPT" + b"\0" * 64, "magic"),
            (lambda data: data[:5], "shorter than a minimal"),
            (lambda data: data[: len(MAGIC) + 4 + 40], "header length"),
            (
                lambda data: data[: len(MAGIC) + 4] + b"x" + data[len(MAGIC) + 5 :],
                "not valid JSON",
            ),
        ],
        ids=["zeros", "bad-magic", "too-short", "truncated-header", "not-json"],
    )
    def test_read_header_rejects_damaged_bytes(self, damage, message):
        with pytest.raises(IntegrityError, match=message):
            read_header(damage(self._packed()))
