"""Simulated remote storage: a cost model over any inner backend.

The paper's remote-storage ablation needs checkpoint cost as a function of
size, bandwidth, and round-trip time — not a real object store.  This wrapper
delegates the bytes to an inner backend and *accounts* transfer time with::

    seconds = rtt + nbytes / bandwidth

Time is accumulated on a simulated clock (no real sleeping), which the
failure-model experiments read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError
from repro.storage.backend import StorageBackend
from repro.storage.memory import InMemoryBackend


@dataclass(frozen=True)
class TransferCostModel:
    """Latency/bandwidth model for one storage tier."""

    bandwidth_bytes_per_s: float
    rtt_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigError(
                f"bandwidth must be > 0, got {self.bandwidth_bytes_per_s}"
            )
        if self.rtt_seconds < 0:
            raise ConfigError(f"rtt must be >= 0, got {self.rtt_seconds}")

    def seconds_for(self, nbytes: int) -> float:
        """Modelled wall time to transfer ``nbytes``."""
        return self.rtt_seconds + nbytes / self.bandwidth_bytes_per_s

    @classmethod
    def local_ssd(cls) -> "TransferCostModel":
        """~2 GB/s, negligible latency."""
        return cls(bandwidth_bytes_per_s=2e9, rtt_seconds=50e-6)

    @classmethod
    def datacenter_object_store(cls) -> "TransferCostModel":
        """~100 MB/s effective, 1 ms RTT."""
        return cls(bandwidth_bytes_per_s=100e6, rtt_seconds=1e-3)

    @classmethod
    def wan_object_store(cls) -> "TransferCostModel":
        """~10 MB/s effective, 50 ms RTT."""
        return cls(bandwidth_bytes_per_s=10e6, rtt_seconds=50e-3)


class SimulatedRemoteBackend(StorageBackend):
    """Backend decorator accumulating modelled transfer time."""

    def __init__(
        self,
        cost_model: TransferCostModel,
        inner: Optional[StorageBackend] = None,
    ):
        self.cost_model = cost_model
        self.inner = inner if inner is not None else InMemoryBackend()
        self.simulated_seconds = 0.0
        self.last_transfer_seconds = 0.0

    def _account(self, nbytes: int) -> None:
        seconds = self.cost_model.seconds_for(nbytes)
        self.last_transfer_seconds = seconds
        self.simulated_seconds += seconds

    def write(self, name: str, data: bytes) -> None:
        self.inner.write(name, data)
        self._account(len(data))

    def read(self, name: str) -> bytes:
        data = self.inner.read(name)
        self._account(len(data))
        return data

    def tier_for(self, name: str):
        return self.inner.tier_for(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def delete(self, name: str) -> None:
        self.inner.delete(name)
        self._account(0)  # metadata round trip

    def list(self, prefix: str = "") -> List[str]:
        return self.inner.list(prefix)

    def size(self, name: str) -> int:
        return self.inner.size(name)

    def reset_accounting(self) -> None:
        """Zero the simulated clock."""
        self.simulated_seconds = 0.0
        self.last_transfer_seconds = 0.0
