"""Model-based (stateful hypothesis) tests for backend decorators.

The decorators — tiered, replicated, simulated-remote, and the single-route
stack ``open_store`` builds (reliable over sharded over throttled local
directories) — must be *observationally equivalent* to a plain backend: any
sequence of write/read/delete/list operations yields the same results as
against a dict.  Hypothesis drives randomized operation sequences against
both and compares.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.snapshot import TrainingSnapshot
from repro.errors import StorageError, TransientStorageError
from repro.reliability import RetryPolicy
from repro.service import ChunkStore, ThrottledBackend, open_store
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.reliable import ReliableBackend
from repro.storage.replicated import ReplicatedBackend
from repro.storage.sharded import ShardedBackend
from repro.storage.simulated import SimulatedRemoteBackend, TransferCostModel
from repro.storage.tiered import TieredBackend

_NAMES = st.sampled_from([f"obj-{i}" for i in range(6)])
_PAYLOADS = st.binary(min_size=0, max_size=64)

_MACHINE_SETTINGS = settings(
    max_examples=30,
    stateful_step_count=30,
    deadline=None,
)


class _BackendEquivalence(RuleBasedStateMachine):
    """Drives a backend-under-test against a dict model."""

    def __init__(self):
        super().__init__()
        self.model = {}
        self.backend = self.make_backend()

    def make_backend(self):  # pragma: no cover - overridden
        raise NotImplementedError

    @rule(name=_NAMES, data=_PAYLOADS)
    def write(self, name, data):
        self.backend.write(name, data)
        self.model[name] = data

    @rule(name=_NAMES)
    def read(self, name):
        if name in self.model:
            assert self.backend.read(name) == self.model[name]
        else:
            with pytest.raises(StorageError):
                self.backend.read(name)

    @rule(name=_NAMES, room=st.integers(0, 70))
    def read_into(self, name, room):
        if not self.backend.supports_read_into or name not in self.model:
            return
        into = bytearray(room)
        expected = self.model[name][:room]
        assert bytes(self.backend.read(name, into=into)) == expected
        assert bytes(into[: len(expected)]) == expected

    @rule(name=_NAMES)
    def delete(self, name):
        self.backend.delete(name)
        self.model.pop(name, None)

    @rule(name=_NAMES)
    def exists(self, name):
        assert self.backend.exists(name) == (name in self.model)

    @rule(name=_NAMES)
    def size(self, name):
        if name in self.model:
            assert self.backend.size(name) == len(self.model[name])

    @invariant()
    def listing_matches(self):
        assert self.backend.list() == sorted(self.model)


class TieredWriteThroughMachine(_BackendEquivalence):
    def make_backend(self):
        return TieredBackend(InMemoryBackend(), InMemoryBackend(), 96)


class TieredWriteBackMachine(_BackendEquivalence):
    def make_backend(self):
        return TieredBackend(
            InMemoryBackend(), InMemoryBackend(), 96, policy="write-back"
        )


class ReplicatedMachine(_BackendEquivalence):
    def make_backend(self):
        return ReplicatedBackend([InMemoryBackend() for _ in range(3)])


class ReplicatedQuorumMachine(_BackendEquivalence):
    def make_backend(self):
        return ReplicatedBackend(
            [InMemoryBackend() for _ in range(3)], consistency="quorum"
        )


class SimulatedRemoteMachine(_BackendEquivalence):
    def make_backend(self):
        return SimulatedRemoteBackend(
            TransferCostModel(bandwidth_bytes_per_s=1e6, rtt_seconds=1e-3)
        )


class SingleRouteStackMachine(_BackendEquivalence):
    """Reliable over sharded over throttled directories: ``into=`` reads
    reach the files."""

    def make_backend(self):
        self._tmp = tempfile.TemporaryDirectory()
        backend = ReliableBackend(
            ShardedBackend(
                [
                    ThrottledBackend(
                        LocalDirectoryBackend(
                            f"{self._tmp.name}/shard-{i}", fsync=False
                        )
                    )
                    for i in range(2)
                ]
            ),
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        assert backend.supports_read_into
        return backend

    def teardown(self):
        self._tmp.cleanup()


for _machine in (
    TieredWriteThroughMachine,
    TieredWriteBackMachine,
    ReplicatedMachine,
    ReplicatedQuorumMachine,
    SimulatedRemoteMachine,
    SingleRouteStackMachine,
):
    _machine.TestCase.settings = _MACHINE_SETTINGS

TestTieredWriteThrough = TieredWriteThroughMachine.TestCase
TestTieredWriteBack = TieredWriteBackMachine.TestCase
TestReplicated = ReplicatedMachine.TestCase
TestReplicatedQuorum = ReplicatedQuorumMachine.TestCase
TestSimulatedRemote = SimulatedRemoteMachine.TestCase
TestSingleRouteStack = SingleRouteStackMachine.TestCase


class TestTieredDurabilityAfterFastLoss:
    """Write-through tiering must survive total fast-tier loss at any point."""

    def test_slow_tier_complete_after_sequence(self):
        fast, slow = InMemoryBackend(), InMemoryBackend()
        tiered = TieredBackend(fast, slow, 64)
        rng = np.random.default_rng(5)
        model = {}
        for i in range(50):
            name = f"obj-{int(rng.integers(0, 6))}"
            action = int(rng.integers(0, 3))
            if action == 0:
                data = bytes(rng.integers(0, 256, size=int(rng.integers(0, 48)), dtype=np.uint8))
                tiered.write(name, data)
                model[name] = data
            elif action == 1:
                tiered.delete(name)
                model.pop(name, None)
            else:
                if name in model:
                    assert tiered.read(name) == model[name]
        # Wipe the fast tier entirely; everything must still be in slow.
        fast._objects.clear()
        rebuilt = TieredBackend(InMemoryBackend(), slow, 64)
        for name, data in model.items():
            assert rebuilt.read(name) == data


def test_decorated_restore_reads_into_and_matches_the_bare_one(tmp_path):
    """The stack ``daemon start`` and ``fleet --store`` open takes the
    read-into restore path, and gives back the same bits."""
    rng = np.random.default_rng(7)
    snapshot = TrainingSnapshot(
        step=3,
        params=rng.normal(size=5000),
        optimizer_state={"name": "sgd", "lr": 0.1},
        rng_state={"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}},
        model_fingerprint="fp",
        loss_history=np.linspace(1.0, 0.5, 3),
        statevector=rng.normal(size=2048) + 1j * rng.normal(size=2048),
    )
    bare = ChunkStore(LocalDirectoryBackend(tmp_path / "bare"), block_bytes=4096)
    decorated = open_store(
        tmp_path / "decorated", shards=2, retries=2, block_bytes=4096
    )
    assert isinstance(decorated.backend, ReliableBackend)
    assert decorated.backend.supports_read_into
    into_reads = []
    for shard in decorated.backend.inner.shards:

        def read(name, into=None, _read=shard.read):
            into_reads.append(into is not None)
            return _read(name) if into is None else _read(name, into=into)

        shard.read = read
    restored = {}
    for label, store in (("bare", bare), ("decorated", decorated)):
        store.save_snapshot("job", snapshot)
        restored[label] = store.load_tensors("job")
    assert any(into_reads)
    bare_meta, bare_tensors = restored["bare"]
    meta, tensors = restored["decorated"]
    assert meta["step"] == bare_meta["step"] == 3
    assert sorted(tensors) == sorted(bare_tensors)
    for name, array in bare_tensors.items():
        assert tensors[name].dtype == array.dtype
        assert tensors[name].tobytes() == array.tobytes(), name
    assert decorated.load_snapshot("job") == snapshot


def test_retried_read_into_refills_the_buffer(tmp_path):
    class TornFirstRead(LocalDirectoryBackend):
        torn = False

        def read(self, name, into=None):
            if into is not None and not self.torn:
                self.torn = True
                into[:2] = b"??"
                raise TransientStorageError("connection reset mid-read")
            return super().read(name, into=into)

    backend = ReliableBackend(
        TornFirstRead(tmp_path),
        retry=RetryPolicy(max_attempts=2, base_delay=0.0),
    )
    backend.write("obj", b"payload")
    into = bytearray(16)
    assert bytes(backend.read("obj", into=into)) == b"payload"
    assert backend.stats.retries == 1 and bytes(into[:7]) == b"payload"
