"""Exception hierarchy for the repro (QCkpt) library.

Every exception raised intentionally by this library derives from
:class:`ReproError`, so callers can install a single ``except ReproError``
boundary.  Checkpoint-related failures form their own sub-tree under
:class:`CheckpointError` because storage code frequently needs to distinguish
"the data is damaged" (:class:`IntegrityError`) from "the data is absent"
(:class:`CheckpointNotFoundError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class CircuitError(ReproError):
    """A circuit was constructed or used incorrectly."""


class ObservableError(ReproError):
    """An observable was constructed or used incorrectly."""


class GradientError(ReproError):
    """A gradient could not be computed for the requested circuit."""


class StorageError(ReproError):
    """A storage backend operation failed.

    Base ``StorageError`` means *persistent*: the operation will keep failing
    if repeated unchanged (object absent, invalid name, namespace exhausted).
    Failures worth retrying raise :class:`TransientStorageError` instead.
    """


class TransientStorageError(StorageError):
    """A storage operation failed in a way a retry may fix.

    The transient/persistent split is the contract the reliability layer is
    built on: :class:`~repro.reliability.RetryPolicy` retries these (injected
    faults, throttling windows, lossy transports) and treats every other
    :class:`StorageError` — missing objects, invalid names — as a final
    answer.
    """


class RetryExhaustedError(StorageError):
    """A retried operation still failed after its policy's final attempt.

    Chains from the last underlying error (``__cause__``), so callers keep
    the root failure while a single ``except StorageError`` still works.
    """


class DeadlineExceeded(ReproError):
    """A :class:`~repro.reliability.Deadline` budget ran out mid-operation."""


class CircuitOpenError(ReproError):
    """A :class:`~repro.reliability.CircuitBreaker` is refusing calls.

    (The breaker kind of circuit — :class:`CircuitError` is the quantum one.)
    Raised without touching the backend while the breaker is open; transient
    by nature, since the breaker re-probes after its reset timeout.
    """


class TransportError(ReproError):
    """A control-plane transport failed (framing, connection, or auth)."""


class CheckpointError(ReproError):
    """Base class for checkpoint-related failures."""


class SerializationError(CheckpointError):
    """A snapshot could not be encoded to or decoded from bytes."""


class IntegrityError(CheckpointError):
    """Stored checkpoint data failed a checksum or structural validation."""


class CheckpointNotFoundError(CheckpointError):
    """No checkpoint matching the request exists in the store."""


class ReadOnlyStoreError(CheckpointError):
    """A write was asked of a store that only reads (a QCKPT directory)."""


class IncompatibleCheckpointError(CheckpointError):
    """A checkpoint exists but cannot be applied to the current trainer.

    Raised, for example, when a snapshot was produced by a different ansatz
    (circuit fingerprint mismatch) or a different optimizer type.
    """
