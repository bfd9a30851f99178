"""Tests for ranged reads and tensor-selective (partial) checkpoint restore."""

import numpy as np
import pytest

from repro.core.serialize import pack_payload, read_header_ranged, unpack_partial
from repro.errors import (
    IntegrityError,
    SerializationError,
    StorageError,
)
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.simulated import SimulatedRemoteBackend, TransferCostModel


def _reader_over(data: bytes):
    return lambda start, length: data[start : start + length]


@pytest.fixture
def payload(rng):
    tensors = {
        "params": rng.standard_normal(32),
        "statevector": (
            rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        ),
        "history": rng.standard_normal(100),
    }
    data = pack_payload({"kind": "full", "snapshot": {"step": 9}}, tensors)
    return data, tensors


# ---------------------------------------------------------------------------
# Backend ranged reads
# ---------------------------------------------------------------------------


class TestReadRange:
    def test_memory_backend(self):
        backend = InMemoryBackend()
        backend.write("obj", b"0123456789")
        assert backend.read_range("obj", 2, 4) == b"2345"
        assert backend.read_range("obj", 8, 10) == b"89"  # short read
        assert backend.read_range("obj", 20, 4) == b""

    def test_memory_backend_accounts_only_transferred_bytes(self):
        backend = InMemoryBackend()
        backend.write("obj", b"x" * 1000)
        backend.reset_counters()
        backend.read_range("obj", 0, 10)
        assert backend.bytes_read == 10

    def test_local_backend(self, tmp_path):
        backend = LocalDirectoryBackend(tmp_path)
        backend.write("obj", b"0123456789")
        assert backend.read_range("obj", 3, 3) == b"345"
        assert backend.read_range("obj", 9, 5) == b"9"

    def test_local_backend_missing_object(self, tmp_path):
        backend = LocalDirectoryBackend(tmp_path)
        with pytest.raises(StorageError):
            backend.read_range("ghost", 0, 1)

    def test_negative_range_rejected(self, tmp_path):
        for backend in (InMemoryBackend(), LocalDirectoryBackend(tmp_path)):
            backend.write("obj", b"abc")
            with pytest.raises(StorageError):
                backend.read_range("obj", -1, 2)
            with pytest.raises(StorageError):
                backend.read_range("obj", 0, -2)

    def test_simulated_backend_accounts_ranged_cost(self):
        model = TransferCostModel(bandwidth_bytes_per_s=1e6, rtt_seconds=0.01)
        backend = SimulatedRemoteBackend(model)
        backend.write("obj", b"x" * 1_000_000)
        backend.reset_accounting()
        backend.read_range("obj", 0, 1000)
        # 1000 bytes at 1 MB/s + 10 ms RTT, not the 1 s a full read costs.
        assert backend.last_transfer_seconds == pytest.approx(0.011)

    def test_base_class_fallback_slices_full_read(self):
        from repro.storage.backend import StorageBackend

        class MinimalBackend(StorageBackend):
            """Implements only the abstract surface; no ranged-read support."""

            def __init__(self):
                self.objects = {}

            def write(self, name, data):
                self.objects[name] = bytes(data)

            def read(self, name):
                return self.objects[name]

            def exists(self, name):
                return name in self.objects

            def delete(self, name):
                self.objects.pop(name, None)

            def list(self, prefix=""):
                return sorted(n for n in self.objects if n.startswith(prefix))

        backend = MinimalBackend()
        backend.write("obj", b"0123456789")
        assert backend.read_range("obj", 2, 3) == b"234"
        with pytest.raises(StorageError):
            backend.read_range("obj", -1, 1)


# ---------------------------------------------------------------------------
# unpack_partial
# ---------------------------------------------------------------------------


class TestUnpackPartial:
    def test_selects_named_tensors(self, payload):
        data, tensors = payload
        meta, out = unpack_partial(_reader_over(data), ("params",))
        assert set(out) == {"params"}
        np.testing.assert_array_equal(out["params"], tensors["params"])
        assert meta["snapshot"]["step"] == 9

    def test_none_selects_everything(self, payload):
        data, tensors = payload
        _, out = unpack_partial(_reader_over(data), None)
        assert set(out) == set(tensors)

    def test_missing_name_raises(self, payload):
        data, _ = payload
        with pytest.raises(SerializationError, match="not in this checkpoint"):
            unpack_partial(_reader_over(data), ("ghost",))

    def test_missing_name_skipped_when_lenient(self, payload):
        data, _ = payload
        _, out = unpack_partial(
            _reader_over(data), ("params", "ghost"), require_all=False
        )
        assert set(out) == {"params"}

    def test_corrupt_chunk_detected(self, payload):
        data, _ = payload
        header, payload_offset = read_header_ranged(_reader_over(data))
        entry = next(e for e in header["tensors"] if e["name"] == "params")
        position = payload_offset + entry["offset"] + 3
        corrupted = bytearray(data)
        corrupted[position] ^= 0xFF
        with pytest.raises(IntegrityError, match="CRC32"):
            unpack_partial(_reader_over(bytes(corrupted)), ("params",))

    def test_corrupt_other_chunk_not_read(self, payload):
        data, tensors = payload
        header, payload_offset = read_header_ranged(_reader_over(data))
        entry = next(e for e in header["tensors"] if e["name"] == "statevector")
        corrupted = bytearray(data)
        corrupted[payload_offset + entry["offset"] + 1] ^= 0xFF
        # Damage to an unselected tensor is invisible to a partial read.
        _, out = unpack_partial(_reader_over(bytes(corrupted)), ("params",))
        np.testing.assert_array_equal(out["params"], tensors["params"])

    def test_bad_magic(self):
        with pytest.raises(IntegrityError, match="magic"):
            unpack_partial(_reader_over(b"NOTQCKPT" + b"\0" * 64), ("x",))

    def test_truncated_header(self, payload):
        data, _ = payload
        with pytest.raises(IntegrityError):
            unpack_partial(_reader_over(data[:40]), ("params",))
