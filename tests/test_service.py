"""Tests for the multi-job checkpoint service (chunk store, pool, fleet)."""

import threading
import time
import zlib

import numpy as np
import pytest

from repro.core.restore import QckptSource, RestoreExecutor
from repro.core.serialize import pack_snapshot, unpack_snapshot
from repro.core.snapshot import TrainingSnapshot
from repro.errors import (
    CheckpointError,
    ConfigError,
    StorageError,
)
from repro.faults.injector import Brownout, PreemptionStorm
from repro.ml.dataset import make_moons
from repro.ml.models import VariationalClassifier, VQEModel
from repro.ml.optimizers import Adam
from repro.ml.trainer import Trainer, TrainerConfig
from repro.quantum.observables import Hamiltonian
from repro.quantum.templates import hardware_efficient
from repro.service import (
    ChunkStore,
    FleetHarness,
    FleetJobSpec,
    ThrottledBackend,
    WriterPool,
    chunk_name,
)
from repro.service.scrub import scrub_store
from repro.storage.flaky import FlakyBackend
from repro.storage.memory import InMemoryBackend
from repro.storage.sharded import ShardedBackend


def make_snapshot(step=1, seed=0, n_params=12, fingerprint="fp", extra=None):
    rng = np.random.default_rng(seed)
    return TrainingSnapshot(
        step=step,
        params=rng.normal(size=n_params),
        optimizer_state={"name": "sgd", "lr": 0.1},
        rng_state={"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}},
        model_fingerprint=fingerprint,
        loss_history=np.linspace(1.0, 0.5, step),
        extra=extra or {},
    )


def make_vqe_trainer(seed=3, lr=0.1):
    model = VQEModel(
        hardware_efficient(2, 1),
        Hamiltonian.transverse_field_ising(2, 1.0, 0.8),
    )
    return Trainer(model, Adam(lr=lr), config=TrainerConfig(seed=seed))


def classifier_factory(lr, seed=11):
    def make():
        model = VariationalClassifier(hardware_efficient(3, 1))
        dataset = make_moons(64, np.random.default_rng(7))
        return Trainer(
            model,
            Adam(lr=lr),
            dataset=dataset,
            config=TrainerConfig(batch_size=8, seed=seed),
        )

    return make


# ---------------------------------------------------------------------------
# ShardedBackend
# ---------------------------------------------------------------------------


class TestShardedBackend:
    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            ShardedBackend([])

    def test_routing_is_stable_and_total(self):
        a = ShardedBackend([InMemoryBackend() for _ in range(3)])
        b = ShardedBackend([InMemoryBackend() for _ in range(3)])
        for i in range(50):
            name = f"obj-{i}"
            assert a.shard_index(name) == b.shard_index(name)
            assert 0 <= a.shard_index(name) < 3

    def test_contract_roundtrip(self):
        sharded = ShardedBackend([InMemoryBackend() for _ in range(4)])
        names = [f"ch-{i:04d}" for i in range(40)]
        for name in names:
            sharded.write(name, name.encode())
        assert sharded.list("ch-") == sorted(names)
        for name in names:
            assert sharded.exists(name)
            assert sharded.read(name) == name.encode()
            assert sharded.size(name) == len(name)
        sharded.delete(names[0])
        assert not sharded.exists(names[0])

    def test_objects_spread_across_shards(self):
        sharded = ShardedBackend([InMemoryBackend() for _ in range(4)])
        for i in range(200):
            sharded.write(chunk_name(f"content-{i}".encode(), "zlib-6"), b"x")
        per_shard = sharded.objects_per_shard("ch-")
        assert sum(per_shard.values()) == 200
        assert all(count > 20 for count in per_shard.values())


# ---------------------------------------------------------------------------
# ChunkStore
# ---------------------------------------------------------------------------


class TestChunkStoreRoundtrip:
    def test_job_id_validation(self):
        store = ChunkStore(InMemoryBackend())
        for bad in ("", "a/b", "a-ckpt-b", "..", None):
            with pytest.raises((ConfigError, StorageError)):
                store.save_snapshot(bad, make_snapshot())

    def test_large_tensor_splits_into_blocks(self):
        store = ChunkStore(InMemoryBackend(), block_bytes=256)
        snapshot = make_snapshot(step=1, n_params=200)  # 1600 raw bytes
        record = store.save_snapshot("alpha", snapshot)
        assert record.n_blocks > 7  # params alone contribute ceil(1600/256)
        assert store.load_snapshot("alpha") == snapshot

    def test_empty_tensor_roundtrip(self):
        store = ChunkStore(InMemoryBackend())
        snapshot = make_snapshot(step=0)
        assert snapshot.loss_history.size == 0
        store.save_snapshot("alpha", snapshot)
        assert store.load_snapshot("alpha") == snapshot


class TestChunkStoreDedup:
    def test_identical_checkpoints_dedup_fully(self):
        store = ChunkStore(InMemoryBackend())
        snapshot = make_snapshot(step=3, seed=2)
        first = store.save_snapshot("alpha", snapshot)
        second = store.save_snapshot("alpha", snapshot)
        assert first.n_new_blocks == first.n_blocks
        assert second.n_new_blocks == 0
        assert second.physical_bytes == 0
        assert store.stats.dedup_ratio > 1.9

    def test_cross_job_dedup(self):
        """Sweep jobs sharing initial tensors write each block once."""
        store = ChunkStore(InMemoryBackend())
        shared = make_snapshot(step=0, seed=7)
        first = store.save_snapshot("sweep-a", shared)
        second = store.save_snapshot("sweep-b", shared)
        third = store.save_snapshot("sweep-c", shared)
        assert first.n_new_blocks > 0
        assert second.n_new_blocks == 0 and third.n_new_blocks == 0
        # Each job still restores its own copy bitwise.
        for job in ("sweep-a", "sweep-b", "sweep-c"):
            assert store.load_snapshot(job) == shared

    def test_partial_overlap_dedups_unchanged_tensors(self):
        store = ChunkStore(InMemoryBackend())
        base = make_snapshot(step=1, seed=3)
        changed = base.copy()
        changed.step = 2
        changed.params = base.params + 1.0  # only params move
        store.save_snapshot("alpha", base)
        record = store.save_snapshot("alpha", changed)
        assert 0 < record.n_new_blocks < record.n_blocks
        assert store.load_snapshot("alpha") == changed

    def test_reopened_store_keeps_dedup_index(self):
        backend = InMemoryBackend()
        snapshot = make_snapshot(step=1, seed=4)
        ChunkStore(backend).save_snapshot("alpha", snapshot)
        reopened = ChunkStore(backend)
        record = reopened.save_snapshot("beta", snapshot)
        assert record.n_new_blocks == 0
        assert reopened.load_snapshot("beta") == snapshot


class TestChunkStoreIntegrity:
    def test_failed_chunk_write_leaves_no_manifest_and_recovers(self):
        """Payload-before-manifest: an injected write error aborts cleanly."""
        flaky = FlakyBackend(InMemoryBackend())
        store = ChunkStore(flaky)
        snapshot = make_snapshot(step=1, seed=5)
        flaky.arm("error", fail_on_write=1)
        with pytest.raises(StorageError):
            store.save_snapshot("alpha", snapshot)
        assert store.manifest_names("alpha") == []
        # The dedup index was rolled back: the retry rewrites everything.
        record = store.save_snapshot("alpha", snapshot)
        assert record.n_new_blocks == record.n_blocks
        assert store.load_snapshot("alpha") == snapshot

    def test_reopen_with_different_codec_keeps_old_checkpoints_readable(self):
        """The codec is part of the chunk identity: reopening under another
        codec reads old checkpoints with *their* codec and never dedups or
        overwrites across codecs."""
        backend = InMemoryBackend()
        snapshot = make_snapshot(step=1, seed=31)
        ChunkStore(backend, codec="zlib-6").save_snapshot("alpha", snapshot)
        reopened = ChunkStore(backend, codec="none")
        # Old checkpoint decodes with the codec recorded in its manifest.
        assert reopened.load_snapshot("alpha") == snapshot
        # Same content under the new codec is a fresh write, not a dedup hit
        # against (or an overwrite of) the zlib chunks.
        record = reopened.save_snapshot("beta", snapshot)
        assert record.n_new_blocks == record.n_blocks
        assert reopened.load_snapshot("beta") == snapshot
        assert reopened.load_snapshot("alpha") == snapshot
        # And a third store back on the original codec still reads both.
        third = ChunkStore(backend, codec="zlib-6")
        assert third.load_snapshot("alpha") == snapshot
        assert third.load_snapshot("beta") == snapshot


class TestChunkStoreGC:
    def test_gc_keeps_chunks_referenced_by_other_jobs(self):
        store = ChunkStore(InMemoryBackend())
        shared = make_snapshot(step=0, seed=9)
        store.save_snapshot("alpha", shared)
        store.save_snapshot("beta", shared)
        store.delete_checkpoint("alpha", "ckpt-000001")
        deleted = store.gc()
        assert deleted["chunks"] == 0  # beta still references everything
        assert store.load_snapshot("beta") == shared

    def test_gc_sweeps_orphans_from_crashed_save(self):
        backend = InMemoryBackend()
        store = ChunkStore(backend)
        store.save_snapshot("alpha", make_snapshot(step=1, seed=1))
        # Simulate a crash between chunk write and manifest write.
        orphan = chunk_name(b"orphaned content", "zlib-6")
        backend.write(orphan, b"orphaned content")
        deleted = store.gc()
        assert deleted["chunks"] == 1
        assert not backend.exists(orphan)

    def test_missing_chunk_on_reopen_is_rewritten_not_deduped(self):
        """A reopened store must not dedup against chunks the backend lost."""
        backend = InMemoryBackend()
        snapshot = make_snapshot(step=1, seed=21)
        ChunkStore(backend).save_snapshot("alpha", snapshot)
        victim = backend.list("ch-")[0]
        backend.delete(victim)  # a wiped shard / lost object
        reopened = ChunkStore(backend)
        record = reopened.save_snapshot("beta", snapshot)
        assert record.n_new_blocks >= 1  # the lost block was re-written
        # The new checkpoint heals: it is fully restorable.
        assert reopened.load_snapshot("beta") == snapshot

    def test_manifest_never_commits_before_its_chunks_land(self):
        """A save deduping against an in-flight writer waits for the write."""

        class GatedBackend(InMemoryBackend):
            def __init__(self):
                super().__init__()
                self.gate = threading.Event()
                self.gate.set()
                self.block_next_chunk = threading.Event()

            def write(self, name, data):
                if name.startswith("ch-") and self.block_next_chunk.is_set():
                    self.block_next_chunk.clear()
                    self.gate.clear()
                    self.gate.wait(5)
                super().write(name, data)

        backend = GatedBackend()
        store = ChunkStore(backend)
        snapshot = make_snapshot(step=1, seed=22)
        backend.block_next_chunk.set()
        done = {"a": False, "b": False}

        def save(label, job):
            store.save_snapshot(job, snapshot)
            done[label] = True

        a = threading.Thread(target=save, args=("a", "jobA"))
        a.start()
        time.sleep(0.15)  # A is wedged inside its first chunk write
        b = threading.Thread(target=save, args=("b", "jobB"))
        b.start()
        time.sleep(0.15)
        # B dedups against A's in-flight chunk: it must NOT have committed
        # a manifest while that chunk is still absent from the backend.
        assert not done["b"]
        assert store.manifest_names("jobB") == []
        backend.gate.set()
        a.join(timeout=5)
        b.join(timeout=5)
        assert done["a"] and done["b"]
        assert store.load_snapshot("jobA") == snapshot
        assert store.load_snapshot("jobB") == snapshot

    def test_peer_write_failure_does_not_fail_waiting_deduper(self):
        """A save waiting on a peer's reservation claims it if the peer dies."""

        class FailFirstChunkGated(InMemoryBackend):
            def __init__(self):
                super().__init__()
                self.fail_next_chunk = True
                self.proceed = threading.Event()

            def write(self, name, data):
                if name.startswith("ch-") and self.fail_next_chunk:
                    self.fail_next_chunk = False
                    self.proceed.wait(5)  # hold until B is waiting on us
                    raise StorageError("injected peer failure")
                super().write(name, data)

        backend = FailFirstChunkGated()
        store = ChunkStore(backend)
        snapshot = make_snapshot(step=1, seed=24)
        outcomes = {}

        def save(label, job):
            try:
                store.save_snapshot(job, snapshot)
                outcomes[label] = "ok"
            except StorageError:
                outcomes[label] = "failed"

        a = threading.Thread(target=save, args=("a", "jobA"))
        a.start()
        time.sleep(0.15)  # A holds the reservation, wedged in its write
        b = threading.Thread(target=save, args=("b", "jobB"))
        b.start()
        time.sleep(0.15)  # B is waiting on A's reservation
        backend.proceed.set()  # A's write now fails and rolls back
        a.join(timeout=5)
        b.join(timeout=5)
        assert outcomes == {"a": "failed", "b": "ok"}
        # B claimed the dead reservation and wrote the chunk itself.
        assert store.load_snapshot("jobB") == snapshot

    def test_gc_does_not_sweep_chunks_of_inflight_save(self):
        """gc() racing a save must not delete its written-but-unnamed chunks."""

        class GatedSecondWrite(InMemoryBackend):
            def __init__(self):
                super().__init__()
                self.chunk_writes = 0
                self.reached_second = threading.Event()
                self.release = threading.Event()

            def write(self, name, data):
                if name.startswith("ch-"):
                    self.chunk_writes += 1
                    if self.chunk_writes == 2:
                        self.reached_second.set()
                        self.release.wait(5)
                super().write(name, data)

        backend = GatedSecondWrite()
        store = ChunkStore(backend, block_bytes=128)
        snapshot = make_snapshot(step=1, seed=23, n_params=64)  # several blocks
        failures = []

        def save():
            try:
                store.save_snapshot("alpha", snapshot)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        thread = threading.Thread(target=save)
        thread.start()
        assert backend.reached_second.wait(5)
        # One chunk is landed, none manifested: gc must leave it alone.
        deleted = store.gc()
        assert deleted["chunks"] == 0
        backend.release.set()
        thread.join(timeout=5)
        assert not failures
        assert store.load_snapshot("alpha") == snapshot
        # Once the manifest is committed the chunks are referenced anyway.
        assert store.gc()["chunks"] == 0

    def test_concurrent_saves_dedup_consistently(self):
        store = ChunkStore(InMemoryBackend())
        shared = make_snapshot(step=0, seed=13)
        errors = []

        def save(job_id):
            try:
                store.save_snapshot(job_id, shared)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=save, args=(f"job{i}",)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(6):
            assert store.load_snapshot(f"job{i}") == shared
        # Every block was written exactly once regardless of interleaving.
        total = store.stats.chunks_written + store.stats.chunks_deduped
        assert store.stats.chunks_written == total // 6


# ---------------------------------------------------------------------------
# Stored and deflated chunks side by side (the zlib codec's probe)
# ---------------------------------------------------------------------------


class _ParentZlib6:
    """The parent commit's ``zlib-6``: DEFLATE level 6 on every block."""

    name = "zlib-6"

    def probe(self, data):
        return "costly"

    def encode(self, data, verdict=None):
        return zlib.compress(data, 6)

    def decode(self, data):
        return zlib.decompress(data)


def _mixed_snapshot(step=1, seed=0):
    """A statevector whose 4 KiB blocks alternate between dense amplitudes
    (stored) and exact zeros with a few amplitudes (deflated)."""
    rng = np.random.default_rng(seed)
    state = np.zeros(4096, dtype=np.complex128)
    for start in range(0, 4096, 512):  # every other 4 KiB block is dense
        state[start : start + 256] = rng.standard_normal(
            256
        ) + 1j * rng.standard_normal(256)
        state[start + 256 + 7] = 0.25 + start  # no two sparse blocks equal
    snapshot = make_snapshot(step=step, seed=seed)
    snapshot.statevector = state
    return snapshot


class TestStoredAndDeflatedChunks:
    BLOCK = 4096

    def _parent_store(self, backend):
        store = ChunkStore(backend, block_bytes=self.BLOCK)
        store.codec = _ParentZlib6()
        return store

    def test_parent_written_store_restores_dedups_scrubs_and_gcs(self):
        backend = InMemoryBackend()
        parent = self._parent_store(backend)
        snap1, snap2 = _mixed_snapshot(1, seed=1), _mixed_snapshot(2, seed=2)
        parent.save_snapshot("job", snap1)
        parent.save_snapshot("job", snap2)
        parent_chunks = {
            name: backend.read(name) for name in backend.list("ch-")
        }

        store = ChunkStore(backend, block_bytes=self.BLOCK)  # this commit
        assert store.load_snapshot("job", "ckpt-000001") == snap1
        assert store.latest_valid("job")[1] == snap2
        # same raw blocks, same addresses: a re-save writes nothing, and no
        # parent chunk is rewritten in the new encoding
        record = store.save_snapshot("job", snap2)
        assert record.n_new_blocks == 0
        assert {
            name: backend.read(name) for name in backend.list("ch-")
        } == parent_chunks
        assert scrub_store(backend, repair=False).clean
        swept = store.gc(keep_last_per_job=1)
        assert swept["manifests"] == 2 and swept["chunks"] > 0
        assert store.latest_valid("job")[1] == snap2
        assert scrub_store(backend, repair=False).clean

    def test_chunks_written_here_decode_with_bare_zlib(self):
        from repro.obs import trace

        backend = InMemoryBackend()
        store = ChunkStore(backend, block_bytes=self.BLOCK)
        snapshot = _mixed_snapshot()
        sink = trace.MemoryTraceSink()
        previous = trace.set_trace_sink(sink)
        try:
            store.save_snapshot("job", snapshot)
        finally:
            trace.set_trace_sink(previous)
        (span,) = [r for r in sink.records() if r["name"] == "store.save"]
        assert span["attrs"]["encode"] == {
            "stored_blocks": 8,
            "stored_bytes": 8 * self.BLOCK,
            "deflated_blocks": 10,  # 8 sparse blocks, params, loss history
        }
        assert "encode" in span["attrs"]["stages"]
        raw = snapshot.statevector.tobytes()
        blocks = {
            chunk_name(raw[i : i + self.BLOCK], "zlib-6"): raw[i : i + self.BLOCK]
            for i in range(0, len(raw), self.BLOCK)
        }
        kinds = set()
        for address, block in blocks.items():
            stored = backend.read(address)
            assert zlib.decompress(stored) == block  # the parent's decoder
            kinds.add(len(stored) > len(block))
        assert kinds == {True, False}  # stored and deflated, side by side
        assert store.metrics.counter("save.encode.stored_blocks").value == 8
        assert (
            store.metrics.counter("save.encode.stored_bytes").value
            == 8 * self.BLOCK
        )
        assert store.metrics.counter("save.encode.deflated_blocks").value >= 8

    def test_mixed_tensor_restores_through_every_path(self, tmp_path, capsys):
        from repro.cli import main as qckpt_main
        from repro.storage.local import LocalDirectoryBackend

        directory = tmp_path / "store"
        store = ChunkStore(
            LocalDirectoryBackend(directory), block_bytes=self.BLOCK
        )
        snapshot = _mixed_snapshot()
        store.save_snapshot("job", snapshot)

        reopened = ChunkStore(
            LocalDirectoryBackend(directory), block_bytes=self.BLOCK
        )
        assert reopened.latest_valid("job")[1] == snapshot
        _, tensors, _ = reopened.latest_valid_partial("job", ["statevector"])
        assert np.array_equal(
            tensors["statevector"].view(np.uint8),
            snapshot.statevector.view(np.uint8),
        )
        assert qckpt_main(["scrub", str(directory)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_qckpt_partial_restores_of_stored_and_deflated_tensors(self):
        # The QCKPT container encodes whole tensors through the same codec:
        # params (dense, stored) and a sparse statevector (deflated) sit in
        # one file; restoring either alone reads that file whole.
        backend = InMemoryBackend()
        snapshot = make_snapshot(n_params=1024, seed=5)
        snapshot.statevector = np.zeros(1 << 12, dtype=np.complex128)
        snapshot.statevector[3] = 1.0
        backend.write("one.qckpt", pack_snapshot(snapshot))
        plan = QckptSource(backend, "one.qckpt").plan()
        (params_block,) = plan.tensors["params"].blocks
        (state_block,) = plan.tensors["statevector"].blocks
        assert params_block.stored_nbytes > params_block.raw_nbytes  # stored
        assert state_block.stored_nbytes < state_block.raw_nbytes // 50
        for name in ("params", "statevector"):
            source = QckptSource(backend, "one.qckpt")
            alone = source.plan([name])
            assert alone.fetch_bytes == len(backend.read("one.qckpt"))
            _, tensors = RestoreExecutor().run(source, alone)
            assert np.array_equal(
                tensors[name].view(np.uint8),
                getattr(snapshot, name).view(np.uint8),
            )
        assert unpack_snapshot(backend.read("one.qckpt")) == snapshot


# ---------------------------------------------------------------------------
# WriterPool
# ---------------------------------------------------------------------------


class TestWriterPool:
    def test_validation(self):
        with pytest.raises(ConfigError):
            WriterPool(workers=0)
        with pytest.raises(ConfigError):
            WriterPool(close_timeout=0.0)

    def test_per_job_fifo_order(self):
        pool = WriterPool(workers=4)
        done = []
        lock = threading.Lock()

        def task(i):
            def run():
                with lock:
                    done.append(i)

            return run

        channel = pool.channel("a", max_pending=16)
        for i in range(10):
            channel.submit(task(i))
        channel.drain()
        pool.close()
        assert done == list(range(10))
        assert channel.stats.tasks == 10

    def test_round_robin_fairness_single_worker(self):
        pool = WriterPool(workers=1)
        order = []
        gate = threading.Event()

        def task(label):
            def run():
                gate.wait(5)
                order.append(label)

            return run

        a = pool.channel("a", max_pending=8)
        b = pool.channel("b", max_pending=8)
        # Queue everything while the single worker is blocked on a0.
        a.submit(task("a0"))
        for i in range(1, 4):
            a.submit(task(f"a{i}"))
        for i in range(3):
            b.submit(task(f"b{i}"))
        gate.set()
        pool.drain()
        pool.close()
        # After a0, the worker alternates fairly between the two queues.
        interleaved = order[1:]
        assert interleaved[:2] in (["b0", "a1"], ["a1", "b0"])
        a_positions = [i for i, x in enumerate(interleaved) if x.startswith("a")]
        b_positions = [i for i, x in enumerate(interleaved) if x.startswith("b")]
        # Neither job's tasks all run before the other's (no starvation).
        assert a_positions and b_positions
        assert min(b_positions) < max(a_positions)

    def test_cross_job_parallelism(self):
        pool = WriterPool(workers=2)
        running = []
        peak = []
        lock = threading.Lock()

        def task():
            with lock:
                running.append(1)
                peak.append(len(running))
            time.sleep(0.05)
            with lock:
                running.pop()

        pool.channel("a").submit(task)
        pool.channel("b").submit(task)
        pool.drain()
        pool.close()
        assert max(peak) == 2  # two jobs overlapped on two workers

    def test_same_job_never_runs_concurrently(self):
        pool = WriterPool(workers=4)
        active = []
        violations = []
        lock = threading.Lock()

        def task():
            with lock:
                active.append(1)
                if len(active) > 1:
                    violations.append(len(active))
            time.sleep(0.01)
            with lock:
                active.pop()

        channel = pool.channel("a", max_pending=16)
        for _ in range(8):
            channel.submit(task)
        channel.drain()
        pool.close()
        assert not violations

    def test_block_backpressure_bounds_queue(self):
        pool = WriterPool(workers=1)
        gate = threading.Event()
        channel = pool.channel("a", max_pending=2, backpressure="block")
        channel.submit(gate.wait)  # occupies the worker
        channel.submit(lambda: None)  # fills the queue slot
        unblocked = []

        def blocked_submit():
            channel.submit(lambda: None)
            unblocked.append(True)

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        time.sleep(0.1)
        assert not unblocked  # submit is blocked at the bound
        gate.set()
        thread.join(timeout=5)
        assert unblocked
        pool.close()

    def test_drop_oldest_backpressure(self):
        pool = WriterPool(workers=1)
        started = threading.Event()
        gate = threading.Event()
        executed = []
        channel = pool.channel("a", max_pending=2, backpressure="drop-oldest")

        def wedge():
            started.set()
            gate.wait(5)

        channel.submit(wedge)
        assert started.wait(5)  # the worker holds the in-flight slot
        for i in range(5):
            channel.submit(lambda i=i: executed.append(i))
        gate.set()
        channel.drain()
        pool.close()
        assert channel.stats.dropped == 4
        assert executed == [4]  # newest snapshot wins

    def test_degrade_backpressure_uses_fallback(self):
        pool = WriterPool(workers=1)
        gate = threading.Event()
        executed = []
        channel = pool.channel("a", max_pending=2, backpressure="degrade")
        channel.submit(gate.wait)
        channel.submit(
            lambda: executed.append("full-1"),
            fallback=lambda: executed.append("lite-1"),
        )
        # Queue is now at the bound: the next submit degrades.
        channel.submit(
            lambda: executed.append("full-2"),
            fallback=lambda: executed.append("lite-2"),
        )
        gate.set()
        channel.drain()
        pool.close()
        assert channel.stats.degraded == 1
        assert channel.stats.dropped == 1  # the displaced queued save counts
        assert executed == ["lite-2"]

    def test_errors_are_per_job_and_exactly_once(self):
        pool = WriterPool(workers=2)
        a = pool.channel("a")
        b = pool.channel("b")
        a.submit(lambda: 1 / 0)
        b.submit(lambda: None)
        b.drain()  # job b is clean: no cross-talk
        with pytest.raises(CheckpointError, match="job 'a'"):
            a.drain()
        a.drain()  # seen errors do not re-raise
        pool.close()

    def test_error_surfaces_on_next_submit(self):
        pool = WriterPool(workers=1)
        channel = pool.channel("a")
        channel.submit(lambda: 1 / 0)
        time.sleep(0.1)
        with pytest.raises(CheckpointError, match="division"):
            channel.submit(lambda: None)
        pool.close()

    def test_abandon_discards_queue_and_reincarnates(self):
        pool = WriterPool(workers=1)
        started = threading.Event()
        gate = threading.Event()
        executed = []
        channel = pool.channel("a", max_pending=8)

        def wedge():
            started.set()
            gate.wait(5)

        channel.submit(wedge)
        assert started.wait(5)  # in-flight, not queued
        for i in range(3):
            channel.submit(lambda i=i: executed.append(i))
        dropped = channel.abandon()
        assert dropped == 3
        gate.set()
        # A fresh channel replaces the dead incarnation.
        fresh = pool.channel("a")
        assert fresh is not channel
        fresh.submit(lambda: executed.append("next-life"))
        fresh.drain()
        pool.close()
        assert executed == ["next-life"]

    @pytest.mark.parametrize("seen_by", ["drain", "submit"])
    def test_error_after_timed_out_close_still_surfaces(self, seen_by):
        """A save wedged past close()'s timeout raises instead of hanging,
        and its failure, landing later, is not lost: the next drain raises
        it, and a submit raises it rather than shadowing it with 'closed'."""
        pool = WriterPool(workers=1)
        release = threading.Event()
        channel = pool.channel("a")

        def slow_failing():
            release.wait(5)
            raise ValueError("late torn write")

        channel.submit(slow_failing)
        with pytest.raises(CheckpointError, match="drain"):
            channel.close(timeout=0.1)
        release.set()
        assert channel.wait_idle(timeout=5)  # the task has failed by now
        with pytest.raises(CheckpointError, match="late torn write"):
            channel.drain() if seen_by == "drain" else channel.submit(print)
        channel.drain()  # exactly once
        with pytest.raises(CheckpointError, match="closed"):
            channel.submit(print)
        pool.close()

    def test_submit_to_closed_channel_rejected(self):
        pool = WriterPool(workers=1)
        channel = pool.channel("a")
        channel.close()
        channel.close()  # idempotent
        with pytest.raises(CheckpointError, match="closed"):
            channel.submit(lambda: None)
        pool.close()


# ---------------------------------------------------------------------------
# FleetHarness
# ---------------------------------------------------------------------------


def run_fleet(specs, events=(), workers=2, throttle=None, backend=None):
    backend = backend or InMemoryBackend()
    target = throttle if throttle is not None else backend
    store = ChunkStore(target, block_bytes=1024)
    pool = WriterPool(workers=workers)
    harness = FleetHarness(store, pool, specs, events=events, throttle=throttle)
    try:
        result = harness.run()
    finally:
        pool.close()
    return store, result


class TestFleetHarness:
    def test_clean_sweep_completes_and_dedups(self):
        specs = [
            FleetJobSpec(
                job_id=f"job{i}",
                trainer_factory=classifier_factory(0.01 * (i + 1)),
                target_steps=2,
            )
            for i in range(3)
        ]
        store, result = run_fleet(specs)
        assert all(j.final_step == 2 for j in result.jobs.values())
        assert result.total_lost_steps == 0
        assert result.recovered_work_ratio == 1.0
        # Same-seed sweep jobs share their initial checkpoint: cross-job dedup.
        assert result.dedup_ratio > 1.5

    def test_storm_recovery_restores_and_accounts_loss(self):
        specs = [
            FleetJobSpec(
                job_id=f"job{i}",
                trainer_factory=classifier_factory(0.01 * (i + 1)),
                target_steps=4,
                max_pending=4,
            )
            for i in range(3)
        ]
        store, result = run_fleet(
            specs, events=[PreemptionStorm(at_tick=2, restart_delay_ticks=1)]
        )
        assert "storm@2" in result.events_fired
        for job in result.jobs.values():
            assert job.preemptions == 1
            assert job.restores == 1
            assert job.final_step == 4
            assert job.steps_executed == 4 + job.lost_steps
        # Every job restores bitwise: reload latest and replay onto a fresh
        # trainer; the capture must equal the stored snapshot exactly.
        for i, spec in enumerate(specs):
            snapshot = store.load_snapshot(spec.job_id)
            fresh = spec.trainer_factory()
            fresh.restore(snapshot)
            assert fresh.capture() == snapshot

    def test_storm_survivor_matches_uninterrupted_run_bitwise(self):
        """The determinism contract holds through the service layer."""
        factory = classifier_factory(0.05)
        stormy_store, stormy_result = run_fleet(
            [
                FleetJobSpec(
                    job_id="stormy", trainer_factory=factory, target_steps=3
                )
            ],
            events=[PreemptionStorm(at_tick=1)],
        )
        calm_store, _ = run_fleet(
            [
                FleetJobSpec(
                    job_id="calm", trainer_factory=factory, target_steps=3
                )
            ]
        )
        assert stormy_result.jobs["stormy"].preemptions == 1
        stormy = stormy_store.load_snapshot("stormy")
        calm = calm_store.load_snapshot("calm")
        assert stormy.step == calm.step == 3
        assert np.array_equal(stormy.params, calm.params)
        assert stormy.rng_state == calm.rng_state
        assert np.array_equal(stormy.loss_history, calm.loss_history)

    def test_staggered_cadence_offsets_start(self):
        specs = [
            FleetJobSpec(
                job_id=f"job{i}",
                trainer_factory=classifier_factory(0.02),
                target_steps=2,
                cadence_offset=i,
            )
            for i in range(3)
        ]
        _, result = run_fleet(specs)
        finishes = [result.jobs[f"job{i}"].finish_tick for i in range(3)]
        assert finishes == sorted(finishes)
        assert finishes[0] < finishes[2]

    def test_brownout_engages_backpressure(self):
        class HeldBrownout(ThrottledBackend):
            """A brownout that cannot end before one write has felt it.

            The window is in ticks, the worker's writes in wall time: three
            ticks of these steps are over in a few milliseconds, and a worker
            waiting its turn at the interpreter lock may not have written
            anything by then.
            """

            def __init__(self, inner):
                self.felt = threading.Event()
                self._delay = 0.0
                super().__init__(inner)

            @property
            def write_delay_seconds(self):
                return self._delay

            @write_delay_seconds.setter
            def write_delay_seconds(self, value):
                if self._delay > 0 and value == 0:
                    assert self.felt.wait(timeout=30.0)
                self._delay = value

            def write(self, name, data):
                super().write(name, data)
                if self.delayed_writes:
                    self.felt.set()

        throttle = HeldBrownout(InMemoryBackend())
        specs = [
            FleetJobSpec(
                job_id=f"job{i}",
                trainer_factory=classifier_factory(0.02),
                target_steps=5,
                max_pending=2,
                backpressure="drop-oldest",
            )
            for i in range(2)
        ]
        _, result = run_fleet(
            specs,
            events=[
                Brownout(start_tick=1, end_tick=4, write_delay_seconds=0.05)
            ],
            workers=1,
            throttle=throttle,
        )
        assert any(e.startswith("brownout-on") for e in result.events_fired)
        assert throttle.delayed_writes > 0
        assert all(j.final_step == 5 for j in result.jobs.values())
        # With a shallow queue and slow writes, saves were dropped, not blocked.
        assert sum(j.dropped_saves for j in result.jobs.values()) > 0

    def test_duplicate_job_ids_rejected(self):
        spec = FleetJobSpec(
            job_id="dup",
            trainer_factory=classifier_factory(0.01),
            target_steps=1,
        )
        with pytest.raises(ConfigError, match="duplicate"):
            FleetHarness(
                ChunkStore(InMemoryBackend()), WriterPool(workers=1), [spec, spec]
            )

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            FleetJobSpec(
                job_id="x",
                trainer_factory=classifier_factory(0.01),
                target_steps=0,
            )
        with pytest.raises(ConfigError):
            FleetJobSpec(
                job_id="x",
                trainer_factory=classifier_factory(0.01),
                target_steps=1,
                checkpoint_every=0,
            )
        # A job's channel arguments are checked where the job is described.
        for bad in ({"max_pending": 0}, {"backpressure": "bogus"}):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                FleetJobSpec(
                    job_id="x",
                    trainer_factory=classifier_factory(0.01),
                    target_steps=1,
                    **bad,
                )


class TestTrainerLiteCapture:
    def test_lite_capture_drops_statevector_cache(self):
        model = VQEModel(
            hardware_efficient(2, 1),
            Hamiltonian.transverse_field_ising(2, 1.0, 0.8),
        )
        trainer = Trainer(
            model,
            Adam(lr=0.1),
            config=TrainerConfig(seed=3, capture_statevector=True),
        )
        trainer.run(1, hooks=[])
        full = trainer.capture()
        lite = trainer.capture(lite=True)
        assert full.statevector is not None
        assert lite.statevector is None
        # Everything restorable is identical.
        assert np.array_equal(full.params, lite.params)
        assert full.rng_state == lite.rng_state
        fresh = Trainer(
            VQEModel(
                hardware_efficient(2, 1),
                Hamiltonian.transverse_field_ising(2, 1.0, 0.8),
            ),
            Adam(lr=0.1),
            config=TrainerConfig(seed=3, capture_statevector=True),
        )
        fresh.restore(lite)
        assert fresh.step_count == trainer.step_count
        assert np.array_equal(fresh.params, trainer.params)
