"""Dict-backed storage backend with I/O accounting."""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.errors import StorageError
from repro.storage.backend import StorageBackend, validate_name


class InMemoryBackend(StorageBackend):
    """In-process backend for tests and benchmarks.

    Tracks ``bytes_written`` / ``bytes_read`` / ``write_count`` /
    ``read_count`` so experiments can report exact I/O volumes without
    touching a filesystem.  Thread-safe (async writers share it with the
    training thread).
    """

    def __init__(self) -> None:
        self._objects: Dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.bytes_written = 0
        self.bytes_read = 0
        self.write_count = 0
        self.read_count = 0

    def write(self, name: str, data: bytes) -> None:
        validate_name(name)
        if not isinstance(data, (bytes, bytearray)):
            raise StorageError(f"data must be bytes, got {type(data).__name__}")
        with self._lock:
            self._objects[name] = bytes(data)
            self.bytes_written += len(data)
            self.write_count += 1

    def read(self, name: str) -> bytes:
        validate_name(name)
        with self._lock:
            try:
                data = self._objects[name]
            except KeyError:
                raise StorageError(f"object {name!r} does not exist") from None
            self.bytes_read += len(data)
            self.read_count += 1
            return data

    def exists(self, name: str) -> bool:
        validate_name(name)
        with self._lock:
            return name in self._objects

    def delete(self, name: str) -> None:
        validate_name(name)
        with self._lock:
            self._objects.pop(name, None)

    def list(self, prefix: str = "") -> List[str]:
        with self._lock:
            return sorted(n for n in self._objects if n.startswith(prefix))

    def size(self, name: str) -> int:
        validate_name(name)
        with self._lock:
            try:
                return len(self._objects[name])
            except KeyError:
                raise StorageError(f"object {name!r} does not exist") from None

    def reset_counters(self) -> None:
        """Zero the I/O accounting counters."""
        with self._lock:
            self.bytes_written = 0
            self.bytes_read = 0
            self.write_count = 0
            self.read_count = 0
