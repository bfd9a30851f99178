"""N-way replicated storage with quorum reads and read-repair.

Checkpoints are the last line of defence against lost work, so the paper's
deployment section calls for replicating them across failure domains.  This
decorator mirrors every object across ``replicas`` and tolerates partial
failures:

* **writes** succeed when at least ``write_quorum`` replicas accept the
  object (default: majority); failed replicas leave the object *degraded*
  until a quorum read or ``qckpt scrub`` fills the copy in,
* **reads** either take the first available copy (``consistency="first"``,
  the fast path — object integrity is already guaranteed end-to-end by the
  store's checksums and content addresses) or compare all available
  copies and return the majority value (``consistency="quorum"``),
  rewriting divergent minority replicas when ``read_repair`` is on.

Bulk repair of a whole store is :func:`repro.service.scrub.scrub_store`
(``qckpt scrub``), which breaks ties by content address.

Determinism: replica order is significant and iteration is always in the
given order, so tests can inject faults per replica.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError, StorageError
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.storage.backend import StorageBackend

_CONSISTENCY_MODES = {"first", "quorum"}


class ReplicationStats(StatsView):
    """Counters exposed for tests and the remote-storage ablation.

    Registry-backed ``replica.*`` series; per-replica write failures are
    one ``replica.write_failures`` counter per ``replica=<index>`` label,
    surfaced as the familiar list through
    :attr:`per_replica_write_failures`.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        replicas: int = 0,
    ):
        super().__init__()
        registry = metrics if metrics is not None else MetricsRegistry()
        for name in (
            "degraded_writes",
            "failed_writes",
            "divergent_reads",
            "repaired_objects",
        ):
            self._bind(name, registry.counter(f"replica.{name}"))
        self._replica_failures = [
            registry.counter("replica.write_failures", replica=str(index))
            for index in range(replicas)
        ]
        self._replica_base = [c.value for c in self._replica_failures]

    def note_replica_failure(self, index: int) -> None:
        self._replica_failures[index].inc()

    @property
    def per_replica_write_failures(self) -> List[int]:
        return [
            int(counter.value - base)
            for counter, base in zip(
                self._replica_failures, self._replica_base
            )
        ]


class ReplicatedBackend(StorageBackend):
    """Mirror objects across several backends with quorum semantics."""

    def __init__(
        self,
        replicas: Sequence[StorageBackend],
        write_quorum: Optional[int] = None,
        consistency: str = "first",
        read_repair: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if len(replicas) < 2:
            raise ConfigError(
                f"replication needs >= 2 replicas, got {len(replicas)}"
            )
        if consistency not in _CONSISTENCY_MODES:
            raise ConfigError(
                f"consistency must be one of {_CONSISTENCY_MODES}, "
                f"got {consistency!r}"
            )
        majority = len(replicas) // 2 + 1
        if write_quorum is None:
            write_quorum = majority
        if not 1 <= write_quorum <= len(replicas):
            raise ConfigError(
                f"write_quorum must be in [1, {len(replicas)}], got {write_quorum}"
            )
        self.replicas = list(replicas)
        self.write_quorum = write_quorum
        self.consistency = consistency
        self.read_repair = read_repair
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = ReplicationStats(self.metrics, replicas=len(replicas))

    # -- writes -----------------------------------------------------------------

    def write(self, name: str, data: bytes) -> None:
        successes = 0
        errors: List[str] = []
        for index, replica in enumerate(self.replicas):
            try:
                replica.write(name, data)
                successes += 1
            except StorageError as exc:
                self.stats.note_replica_failure(index)
                errors.append(f"replica {index}: {exc}")
        if successes < self.write_quorum:
            self.stats.failed_writes += 1
            raise StorageError(
                f"write of {name!r} reached {successes}/{len(self.replicas)} "
                f"replicas, quorum is {self.write_quorum}: {'; '.join(errors)}"
            )
        if successes < len(self.replicas):
            self.stats.degraded_writes += 1

    # -- reads -----------------------------------------------------------------

    def _read_copies(self, name: str) -> Dict[int, bytes]:
        copies: Dict[int, bytes] = {}
        for index, replica in enumerate(self.replicas):
            try:
                if replica.exists(name):
                    copies[index] = replica.read(name)
            except StorageError:
                continue
        return copies

    def read(self, name: str) -> bytes:
        if self.consistency == "first":
            last_error: Optional[StorageError] = None
            for replica in self.replicas:
                try:
                    if replica.exists(name):
                        return replica.read(name)
                except StorageError as exc:
                    last_error = exc
            if last_error is not None:
                raise StorageError(
                    f"all replicas failed reading {name!r}: {last_error}"
                )
            raise StorageError(f"object {name!r} not found on any replica")

        copies = self._read_copies(name)
        if not copies:
            raise StorageError(f"object {name!r} not found on any replica")
        winner = self._majority_value(name, copies)
        if self.read_repair:
            self._repair_object(name, winner, copies)
        return winner

    def _majority_value(self, name: str, copies: Dict[int, bytes]) -> bytes:
        votes: Dict[bytes, int] = {}
        for data in copies.values():
            votes[data] = votes.get(data, 0) + 1
        if len(votes) > 1:
            self.stats.divergent_reads += 1
        best_count = max(votes.values())
        winners = [data for data, count in votes.items() if count == best_count]
        if len(winners) > 1:
            # A tie is unresolvable at this layer; surface it rather than
            # silently picking a side (content addresses break the tie upstream).
            raise StorageError(
                f"object {name!r} has {len(winners)} equally-voted divergent "
                "copies; run qckpt scrub to repair it"
            )
        return winners[0]

    def _repair_object(
        self, name: str, winner: bytes, copies: Dict[int, bytes]
    ) -> bool:
        repaired = False
        for index, replica in enumerate(self.replicas):
            if copies.get(index) == winner:
                continue
            try:
                replica.write(name, winner)
                repaired = True
            except StorageError:
                continue
        if repaired:
            self.stats.repaired_objects += 1
        return repaired

    def read_range(self, name: str, start: int, length: int) -> bytes:
        """Ranged read from the first replica holding the object.

        Quorum comparison is intentionally skipped for ranged reads — they
        serve partial restores whose chunks are CRC-verified end to end.
        """
        last_error: Optional[StorageError] = None
        for replica in self.replicas:
            try:
                if replica.exists(name):
                    return replica.read_range(name, start, length)
            except StorageError as exc:
                last_error = exc
        if last_error is not None:
            raise StorageError(
                f"all replicas failed ranged read of {name!r}: {last_error}"
            )
        raise StorageError(f"object {name!r} not found on any replica")

    @property
    def supports_ranged_reads(self) -> bool:
        return all(r.supports_ranged_reads for r in self.replicas)

    # -- namespace ---------------------------------------------------------------

    def exists(self, name: str) -> bool:
        return any(replica.exists(name) for replica in self.replicas)

    def delete(self, name: str) -> None:
        errors: List[str] = []
        for index, replica in enumerate(self.replicas):
            try:
                replica.delete(name)
            except StorageError as exc:
                errors.append(f"replica {index}: {exc}")
        if len(errors) == len(self.replicas):
            raise StorageError(
                f"delete of {name!r} failed on every replica: {'; '.join(errors)}"
            )

    def list(self, prefix: str = "") -> List[str]:
        names = set()
        for replica in self.replicas:
            names.update(replica.list(prefix))
        return sorted(names)

    def size(self, name: str) -> int:
        for replica in self.replicas:
            if replica.exists(name):
                return replica.size(name)
        raise StorageError(f"object {name!r} not found on any replica")
