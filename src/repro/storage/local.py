"""Filesystem storage backend with crash-consistent writes.

Write protocol (the classic atomic-replace dance):

1. write to a unique temporary file in the same directory,
2. flush + ``fsync`` the file so data reaches the device,
3. ``os.replace`` onto the final name (atomic on POSIX),
4. ``fsync`` the directory so the rename itself is durable.

A crash at any point leaves either the old object or the new object, never a
torn mix — the property the checkpoint store's manifest ordering relies on.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import List

from repro.errors import StorageError
from repro.storage.backend import StorageBackend, validate_name


class LocalDirectoryBackend(StorageBackend):
    """Stores each object as one file inside ``root``."""

    def __init__(self, root: "str | os.PathLike", fsync: bool = True):
        self.root = Path(root)
        self.fsync = bool(fsync)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create backend root {self.root}: {exc}") from exc

    def _path(self, name: str) -> Path:
        return self.root / validate_name(name)

    def write(self, name: str, data: bytes) -> None:
        path = self._path(name)
        tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
            if self.fsync:
                self._fsync_dir()
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise StorageError(f"write of {name!r} failed: {exc}") from exc

    def _fsync_dir(self) -> None:
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def read(self, name: str, into=None) -> bytes:
        path = self._path(name)
        try:
            if into is None:
                return path.read_bytes()
            # Into the caller's memory: the reading thread allocates nothing.
            view = memoryview(into)
            filled = 0
            with open(path, "rb", buffering=0) as handle:
                while filled < len(view):
                    got = handle.readinto(view[filled:])
                    if not got:
                        break
                    filled += got
            return view[:filled]
        except FileNotFoundError:
            raise StorageError(f"object {name!r} does not exist") from None
        except OSError as exc:
            raise StorageError(f"read of {name!r} failed: {exc}") from exc

    @property
    def supports_read_into(self) -> bool:
        return True

    def read_range(self, name: str, start: int, length: int) -> bytes:
        if start < 0 or length < 0:
            raise StorageError(
                f"invalid range [{start}, {start}+{length}) for {name!r}"
            )
        path = self._path(name)
        try:
            with open(path, "rb") as handle:
                handle.seek(start)
                return handle.read(length)
        except FileNotFoundError:
            raise StorageError(f"object {name!r} does not exist") from None
        except OSError as exc:
            raise StorageError(f"read of {name!r} failed: {exc}") from exc

    @property
    def supports_ranged_reads(self) -> bool:
        return True  # seek + read transfers only the requested range

    def exists(self, name: str) -> bool:
        return self._path(name).is_file()

    def delete(self, name: str) -> None:
        try:
            self._path(name).unlink(missing_ok=True)
        except OSError as exc:
            raise StorageError(f"delete of {name!r} failed: {exc}") from exc

    def list(self, prefix: str = "") -> List[str]:
        # One directory pass.  Names are filtered first and the file-type
        # test comes from the directory entry itself (``d_type``), so a
        # listing issues no ``stat``; dot-files (the index sidecar, the
        # ``.*.tmp`` of a killed write) are skipped by name.
        try:
            with os.scandir(self.root) as entries:
                return sorted(
                    entry.name
                    for entry in entries
                    if entry.name.startswith(prefix)
                    and not entry.name.startswith(".")
                    and entry.is_file()
                )
        except OSError as exc:
            raise StorageError(f"listing of {self.root} failed: {exc}") from exc

    def size(self, name: str) -> int:
        path = self._path(name)
        try:
            return path.stat().st_size
        except FileNotFoundError:
            raise StorageError(f"object {name!r} does not exist") from None
