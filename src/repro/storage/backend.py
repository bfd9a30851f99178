"""Abstract storage backend contract."""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from typing import List

from repro.errors import StorageError

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._\-]*$")


def validate_name(name: str) -> str:
    """Reject names that could escape the backend namespace."""
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise StorageError(
            f"invalid object name {name!r}: must match {_NAME_PATTERN.pattern}"
        )
    if ".." in name:
        raise StorageError(f"invalid object name {name!r}: contains '..'")
    return name


class StorageBackend(ABC):
    """Flat namespace of named byte blobs with atomic whole-object writes.

    Contract:

    * :meth:`write` is atomic: readers never observe a partial object.  A name
      either maps to its previous content or to the full new content.
    * Names are flat (no directories) and validated by :func:`validate_name`.
    """

    @abstractmethod
    def write(self, name: str, data: bytes) -> None:
        """Atomically create or replace object ``name`` with ``data``."""

    @abstractmethod
    def read(self, name: str) -> bytes:
        """Return the full content of ``name``; raises StorageError if absent."""

    @abstractmethod
    def exists(self, name: str) -> bool:
        """Whether object ``name`` exists."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Remove object ``name`` (idempotent: absent objects are a no-op)."""

    @abstractmethod
    def list(self, prefix: str = "") -> List[str]:
        """Sorted names starting with ``prefix``."""

    def size(self, name: str) -> int:
        """Stored size of ``name`` in bytes."""
        return len(self.read(name))

    @property
    def supports_ranged_reads(self) -> bool:
        """Whether :meth:`read_range` transfers less than a full object.

        ``False`` here (the base class slices a whole-object read), so the
        restore planner knows to coalesce a partial restore into one
        whole-object fetch instead of paying a full transfer per range.
        Backends with real random access override this to ``True``;
        decorators delegate to what they wrap.
        """
        return False

    @property
    def supports_read_into(self) -> bool:
        """Whether :meth:`read` takes ``into=``: a writable buffer the object
        is read into, a view of the filled part coming back in place of new
        ``bytes`` (at most ``len(into)`` bytes are read).  ``False`` here; the
        single-route decorators (reliable, sharded, throttled) answer from
        what they wrap, and where it is ``False`` a restore simply gets
        ``bytes`` back."""
        return False

    def tier_for(self, name: str):
        """The :class:`~repro.storage.tiered.TieredBackend` holding ``name``.

        ``None`` when no tiered backend is in the path.  Composite backends
        (sharded, throttled, flaky) delegate so tier-aware placement —
        pinning hot manifests, promoting restored chunks — reaches the right
        device regardless of how backends are stacked.
        """
        return None

    def read_range(self, name: str, start: int, length: int) -> bytes:
        """Bytes ``[start, start+length)`` of object ``name``.

        The base implementation reads the whole object and slices; backends
        with random access (files, memory) override it so partial checkpoint
        restores transfer only the chunks they need.  Short reads past the
        end of the object return the available suffix (like ``pread``).
        """
        if start < 0 or length < 0:
            raise StorageError(
                f"invalid range [{start}, {start}+{length}) for {name!r}"
            )
        return self.read(name)[start : start + length]
