"""Deterministic storage fault injection.

Crash-consistency and corruption-recovery tests need a backend that fails in
*controlled* ways:

* ``truncate`` — persist only a prefix of the object (torn write, as if the
  process died mid-upload on a non-atomic store),
* ``bitflip`` — persist the object with one byte corrupted (at-rest rot),
* ``error`` — raise :class:`~repro.errors.TransientStorageError` without
  persisting (the retryable class: an injected fault models a condition —
  brownout, lossy link — that clears, not a missing object).

Two arming styles, both deterministic (no RNG):

* one-shot (:meth:`FlakyBackend.arm` / :meth:`FlakyBackend.arm_read`):
  ``fail_on_write=3`` damages the third write after arming, then disarms;
* schedules (:meth:`FlakyBackend.arm_schedule`): fail a deterministic
  *window* of op ordinals — ops ``first .. first+count-1`` fail, then the
  backend heals — optionally repeating every ``period`` ops.  Keyed by
  per-op counters, so a retry test can assert "attempt 1 fails, attempt 2
  recovers" as a fact rather than a probability, and a fault *storm*
  (``period > 0``) exercises a retried backend for as long as the bench
  keeps calling it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError, TransientStorageError
from repro.storage.backend import StorageBackend

_MODES = {"truncate", "bitflip", "error"}
_OPS = {"write", "read"}


@dataclass(frozen=True)
class _Schedule:
    """A deterministic window of failing op ordinals (1-based)."""

    mode: str
    first: int
    count: int
    period: int  # 0 = fail the window once, then heal forever
    truncate_fraction: float
    flip_offset: int

    def covers(self, ordinal: int) -> bool:
        if ordinal < self.first:
            return False
        if self.period <= 0:
            return ordinal < self.first + self.count
        return (ordinal - self.first) % self.period < self.count


class FlakyBackend(StorageBackend):
    """Backend decorator that injects storage faults on demand."""

    def __init__(self, inner: StorageBackend):
        self.inner = inner
        self._mode: Optional[str] = None
        self._fail_on_write = 0
        self._writes_seen = 0
        self._truncate_fraction = 0.5
        self._flip_offset = 0
        self._read_mode: Optional[str] = None
        self._fail_on_read = 0
        self._reads_seen = 0
        self._read_truncate_fraction = 0.5
        self._read_flip_offset = 0
        self._schedules = {"write": None, "read": None}
        self._schedule_ordinals = {"write": 0, "read": 0}
        self.faults_injected = 0

    def arm(
        self,
        mode: str,
        fail_on_write: int = 1,
        truncate_fraction: float = 0.5,
        flip_offset: int = 0,
    ) -> None:
        """Schedule one fault on the ``fail_on_write``-th subsequent write."""
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        if fail_on_write < 1:
            raise ConfigError(f"fail_on_write must be >= 1, got {fail_on_write}")
        if not 0.0 <= truncate_fraction < 1.0:
            raise ConfigError(
                f"truncate_fraction must be in [0, 1), got {truncate_fraction}"
            )
        self._mode = mode
        self._fail_on_write = fail_on_write
        self._writes_seen = 0
        self._truncate_fraction = truncate_fraction
        self._flip_offset = flip_offset
        self._schedules["write"] = None

    def arm_read(
        self,
        mode: str,
        fail_on_read: int = 1,
        truncate_fraction: float = 0.5,
        flip_offset: int = 0,
    ) -> None:
        """Schedule one fault on the ``fail_on_read``-th subsequent read.

        Every ``read`` counts, so a restore pipeline fetching many objects
        can be failed mid-stream at a chosen fetch.  ``error`` raises;
        ``truncate`` returns a prefix; ``bitflip`` corrupts one byte of the
        returned data — the latter two model a backend that *lies*, which
        integrity verification must catch.
        """
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        if fail_on_read < 1:
            raise ConfigError(f"fail_on_read must be >= 1, got {fail_on_read}")
        if not 0.0 <= truncate_fraction < 1.0:
            raise ConfigError(
                f"truncate_fraction must be in [0, 1), got {truncate_fraction}"
            )
        self._read_mode = mode
        self._fail_on_read = fail_on_read
        self._reads_seen = 0
        self._read_truncate_fraction = truncate_fraction
        self._read_flip_offset = flip_offset
        self._schedules["read"] = None

    def arm_schedule(
        self,
        op: str,
        mode: str,
        first: int = 1,
        count: int = 1,
        period: int = 0,
        truncate_fraction: float = 0.5,
        flip_offset: int = 0,
    ) -> None:
        """Fail ``op`` ordinals ``first .. first+count-1``, then heal.

        Ordinals are 1-based and count from this call.  ``period > 0``
        repeats the failure window every ``period`` ops (a transient-fault
        storm); ``period=0`` fails the window exactly once.  The schedule
        stays armed until :meth:`disarm` or a re-arm — unlike the one-shot
        API it does not consume itself, which is what lets a retry test
        assert deterministic *recovery*: with ``first=1, count=2`` the first
        two attempts fail and the third succeeds, every time.
        """
        if op not in _OPS:
            raise ConfigError(f"op must be one of {_OPS}, got {op!r}")
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        if first < 1:
            raise ConfigError(f"first must be >= 1, got {first}")
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        if period < 0:
            raise ConfigError(f"period must be >= 0, got {period}")
        if period and period < count:
            raise ConfigError(
                f"period ({period}) must be >= count ({count}) or the "
                "backend would never heal"
            )
        if not 0.0 <= truncate_fraction < 1.0:
            raise ConfigError(
                f"truncate_fraction must be in [0, 1), got {truncate_fraction}"
            )
        self._schedules[op] = _Schedule(
            mode=mode,
            first=first,
            count=count,
            period=period,
            truncate_fraction=truncate_fraction,
            flip_offset=flip_offset,
        )
        self._schedule_ordinals[op] = 0
        if op == "write":
            self._mode = None
        else:
            self._read_mode = None

    def disarm(self) -> None:
        """Cancel any pending fault (one-shot and schedule, write and read)."""
        self._mode = None
        self._read_mode = None
        self._schedules = {"write": None, "read": None}

    def _scheduled_fault(self, op: str) -> Optional[Tuple[str, float, int]]:
        schedule = self._schedules[op]
        if schedule is None:
            return None
        self._schedule_ordinals[op] += 1
        if not schedule.covers(self._schedule_ordinals[op]):
            return None
        return (schedule.mode, schedule.truncate_fraction, schedule.flip_offset)

    def _next_write_fault(self) -> Optional[Tuple[str, float, int]]:
        fault = self._scheduled_fault("write")
        if fault is not None:
            return fault
        if self._mode is not None:
            self._writes_seen += 1
            if self._writes_seen == self._fail_on_write:
                mode = self._mode
                self._mode = None
                return (mode, self._truncate_fraction, self._flip_offset)
        return None

    def _next_read_fault(self) -> Optional[Tuple[str, float, int]]:
        fault = self._scheduled_fault("read")
        if fault is not None:
            return fault
        if self._read_mode is not None:
            self._reads_seen += 1
            if self._reads_seen == self._fail_on_read:
                mode = self._read_mode
                self._read_mode = None
                return (
                    mode,
                    self._read_truncate_fraction,
                    self._read_flip_offset,
                )
        return None

    def _maybe_damage_read(self, name: str, data: bytes) -> bytes:
        fault = self._next_read_fault()
        if fault is None:
            return data
        mode, truncate_fraction, flip_offset = fault
        self.faults_injected += 1
        if mode == "error":
            raise TransientStorageError(f"injected read error for {name!r}")
        if mode == "truncate":
            return data[: int(len(data) * truncate_fraction)]
        corrupted = bytearray(data)  # bitflip
        if corrupted:
            corrupted[flip_offset % len(corrupted)] ^= 0xFF
        return bytes(corrupted)

    def write(self, name: str, data: bytes) -> None:
        fault = self._next_write_fault()
        if fault is None:
            self.inner.write(name, data)
            return
        mode, truncate_fraction, flip_offset = fault
        self.faults_injected += 1
        if mode == "error":
            raise TransientStorageError(f"injected write error for {name!r}")
        if mode == "truncate":
            cut = int(len(data) * truncate_fraction)
            self.inner.write(name, data[:cut])
            return
        corrupted = bytearray(data)  # bitflip
        if corrupted:
            corrupted[flip_offset % len(corrupted)] ^= 0xFF
        self.inner.write(name, bytes(corrupted))

    def read(self, name: str) -> bytes:
        return self._maybe_damage_read(name, self.inner.read(name))

    def tier_for(self, name: str):
        return self.inner.tier_for(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    def list(self, prefix: str = "") -> List[str]:
        return self.inner.list(prefix)

    def size(self, name: str) -> int:
        return self.inner.size(name)
