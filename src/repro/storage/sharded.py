"""Hash-sharded storage: one flat namespace spread across several backends.

The multi-job checkpoint service splits snapshots into content-addressed
chunks; a single backend would serialize all of that traffic through one
device.  :class:`ShardedBackend` routes each object name to one of ``K``
inner backends by a stable hash of the name, so chunk writes from many jobs
spread across devices while readers stay oblivious — the composite still
honours the flat-namespace :class:`~repro.storage.backend.StorageBackend`
contract (``list`` is the sorted union of all shards).

Routing is *stable* (SHA-256 of the name, independent of Python's per-process
hash randomization), so a store reopened by a different process finds every
object on the same shard that wrote it.  Content-addressed chunk names hash
uniformly, which keeps shards balanced without any placement state.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence

from repro.errors import ConfigError
from repro.storage.backend import StorageBackend, validate_name


class ShardedBackend(StorageBackend):
    """Routes objects across ``shards`` by a stable hash of the name."""

    def __init__(self, shards: Sequence[StorageBackend]):
        if not shards:
            raise ConfigError("ShardedBackend needs at least one shard")
        self.shards: List[StorageBackend] = list(shards)

    def shard_index(self, name: str) -> int:
        """Stable shard index for ``name`` (same in every process)."""
        validate_name(name)
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % len(self.shards)

    def shard_for(self, name: str) -> StorageBackend:
        """The shard backend holding ``name``."""
        return self.shards[self.shard_index(name)]

    # -- StorageBackend contract ----------------------------------------------------

    @property
    def supports_read_into(self) -> bool:
        return all(shard.supports_read_into for shard in self.shards)

    def tier_for(self, name: str):
        return self.shard_for(name).tier_for(name)

    def write(self, name: str, data: bytes) -> None:
        self.shard_for(name).write(name, data)

    def read(self, name: str, into=None) -> bytes:
        kwargs = {} if into is None else {"into": into}
        return self.shard_for(name).read(name, **kwargs)

    def exists(self, name: str) -> bool:
        return self.shard_for(name).exists(name)

    def delete(self, name: str) -> None:
        self.shard_for(name).delete(name)

    def list(self, prefix: str = "") -> List[str]:
        names: set = set()
        for shard in self.shards:
            names.update(shard.list(prefix))
        return sorted(names)

    def size(self, name: str) -> int:
        return self.shard_for(name).size(name)

    # -- introspection ----------------------------------------------------------

    def objects_per_shard(self, prefix: str = "") -> Dict[int, int]:
        """``{shard_index: object_count}`` — balance report for benchmarks."""
        return {
            index: len(shard.list(prefix))
            for index, shard in enumerate(self.shards)
        }
