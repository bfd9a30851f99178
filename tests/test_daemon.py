"""Fleet daemon lifecycle: control plane, churn, reincarnation, drain."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConfigError
from repro.service import (
    ChunkStore,
    DaemonAlreadyRunning,
    DaemonClient,
    DaemonConfig,
    FleetDaemon,
    WriterPool,
)
from repro.service.daemon import STATE_STOPPED
from repro.storage.memory import InMemoryBackend
from repro.storage.metadb import MetaDB
from repro.storage.tiered import TieredBackend


def _tiny_spec(job_id: str, steps: int = 3, **overrides) -> dict:
    spec = {
        "job_id": job_id,
        "workload": "classifier",
        "target_steps": steps,
        "params": {"qubits": 2, "layers": 1, "samples": 16, "batch_size": 4},
    }
    spec.update(overrides)
    return spec


class _DaemonFixture:
    """One daemon serving in a background thread, plus its client."""

    def __init__(
        self, tmp_path, backend=None, metadb=None, workloads=None, **config
    ):
        config.setdefault("tick_seconds", 0.002)
        self.backend = backend if backend is not None else InMemoryBackend()
        self.store = ChunkStore(self.backend, block_bytes=2048, metadb=metadb)
        self.pool = WriterPool(workers=2)
        self.control = tmp_path / "ctl"
        self.daemon = FleetDaemon(
            self.store,
            self.pool,
            self.control,
            config=DaemonConfig(**config),
            workloads=workloads,
        )
        self.thread = threading.Thread(target=self.daemon.serve, daemon=True)
        self.client = DaemonClient(self.control, timeout=30.0)

    def start(self) -> "DaemonClient":
        self.thread.start()
        self.client.ping()
        return self.client

    def wait_job(self, job_id: str, states=("finished",), timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = self.client.status(job_id)["jobs"][job_id]
            if status["state"] in states:
                return status
            time.sleep(0.01)
        raise AssertionError(
            f"job {job_id} never reached {states}; last: {status}"
        )

    def stop(self):
        if self.thread.is_alive():
            try:
                self.client.stop(timeout=10.0)
            except ConfigError:
                pass
            self.thread.join(timeout=10.0)
        self.pool.close()


@pytest.fixture
def fixture_factory(tmp_path):
    made = []

    def make(subdir: str = "d0", **options):
        fixture = _DaemonFixture(tmp_path / subdir, **options)
        made.append(fixture)
        return fixture

    yield make
    for fixture in made:
        fixture.stop()


class TestLifecycle:
    def test_submit_run_finish_and_bitwise_store_state(self, fixture_factory):
        fixture = fixture_factory()
        client = fixture.start()
        response = client.submit(_tiny_spec("j1", steps=3))
        assert response["ok"], response
        status = fixture.wait_job("j1")
        assert status["final_step"] == 3
        assert status["preemptions"] == 0
        # The store holds a restorable checkpoint at the final step.
        snapshot = fixture.store.load_snapshot("j1")
        assert snapshot.step == 3

    def test_double_start_refused(self, fixture_factory, tmp_path):
        fixture = fixture_factory()
        fixture.start()
        second = FleetDaemon(
            fixture.store,
            fixture.pool,
            fixture.control,
            config=DaemonConfig(tick_seconds=0.002),
        )
        with pytest.raises(DaemonAlreadyRunning):
            second.serve()

    def test_start_allowed_after_stale_heartbeat(self, fixture_factory):
        fixture = fixture_factory(stale_after_seconds=1.0)
        client = fixture.start()
        # Kill the first daemon without a clean stop; its heartbeat goes
        # stale and a successor may claim the control directory.
        fixture.daemon._stop_requested = True
        fixture.thread.join(timeout=10.0)
        meta = client.daemon_meta()
        assert meta["state"] == STATE_STOPPED
        successor = FleetDaemon(
            fixture.store,
            fixture.pool,
            fixture.control,
            config=DaemonConfig(tick_seconds=0.002, max_ticks=5),
        )
        successor.serve()  # must not raise
        assert successor.tick >= 5

    def test_client_times_out_without_daemon(self, tmp_path):
        client = DaemonClient(tmp_path / "nobody", timeout=0.2)
        assert not client.is_alive()
        with pytest.raises(ConfigError, match="did not answer"):
            client.ping()

    def test_duplicate_active_job_and_unknown_workload_refused(
        self, fixture_factory
    ):
        fixture = fixture_factory()
        client = fixture.start()
        assert client.submit(_tiny_spec("j1", steps=50))["ok"]
        duplicate = client.submit(_tiny_spec("j1"))
        assert not duplicate["ok"] and "already active" in duplicate["error"]
        unknown = client.submit(_tiny_spec("j2", workload="nope"))
        assert not unknown["ok"] and "unknown workload" in unknown["error"]


class TestReincarnation:
    def test_status_after_preempt_and_reincarnation(self, fixture_factory):
        fixture = fixture_factory()
        client = fixture.start()
        client.submit(_tiny_spec("j1", steps=30))
        # Let it take a few steps (and checkpoints) first.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status = client.status("j1")["jobs"]["j1"]
            if (status["step"] or 0) >= 3:
                break
            time.sleep(0.01)
        response = client.preempt("j1", restart_delay_ticks=2)
        assert response["ok"] and response["preempted"] == ["j1"]
        status = fixture.wait_job("j1", states=("finished",))
        assert status["preemptions"] == 1
        assert status["restores"] == 1
        assert status["resumed_from_steps"], "reincarnation must restore"
        assert status["resumed_from_steps"][0] >= 1
        assert status["final_step"] == 30
        # Recovered work: the reincarnation resumed, it did not start over.
        assert status["lost_steps"] <= 2

    def test_restore_readahead_staged_during_restart_delay(
        self, fixture_factory
    ):
        backend = TieredBackend(
            InMemoryBackend(), InMemoryBackend(), fast_capacity_bytes=1 << 22
        )
        fixture = fixture_factory(backend=backend)
        client = fixture.start()
        client.submit(_tiny_spec("j1", steps=40))
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if (client.status("j1")["jobs"]["j1"]["step"] or 0) >= 2:
                break
            time.sleep(0.01)
        # A long restart delay: the daemon stages the restore meanwhile.
        response = client.preempt("j1", restart_delay_ticks=100)
        assert response["ok"]
        status = client.status("j1")["jobs"]["j1"]
        if status["state"] == "down":
            assert status["prefetching_restore"], (
                "preempted job should have its restore read-ahead in flight"
            )
        status = fixture.wait_job("j1")
        assert status["restores"] == 1 and status["final_step"] == 40

    def test_resubmitted_job_resumes_from_store(self, fixture_factory):
        fixture = fixture_factory()
        client = fixture.start()
        client.submit(_tiny_spec("j1", steps=3))
        fixture.wait_job("j1")
        # Same id, higher target: the fresh incarnation adopts the stored
        # step-3 checkpoint instead of starting over.
        response = client.submit(_tiny_spec("j1", steps=6))
        assert response["ok"], response
        assert response["resumed_from_step"] == 3
        status = fixture.wait_job("j1")
        assert status["final_step"] == 6


class _ListCountingBackend(InMemoryBackend):
    def __init__(self):
        super().__init__()
        self.lists = 0

    def list(self, prefix=""):
        self.lists += 1
        return super().list(prefix)


class TestSubmitProbe:
    def test_fresh_job_over_an_indexed_store_lists_nothing(
        self, fixture_factory, tmp_path
    ):
        """The resumability probe of a never-seen job id is one index query:
        the scheduler thread does not walk the store on every submit."""
        backend = _ListCountingBackend()
        fixture = fixture_factory(
            backend=backend, metadb=MetaDB(tmp_path / "index.db")
        )
        client = fixture.start()
        client.submit(_tiny_spec("j1", steps=3))
        fixture.wait_job("j1")  # the store is no longer empty
        backend.lists = 0
        response = client.submit(_tiny_spec("j2", steps=3))
        assert response["ok"] and response["resumed_from_step"] == 0
        assert fixture.wait_job("j2")["final_step"] == 3
        assert backend.lists == 0


class _ExplodingTrainer:
    """Delegating trainer that crashes at a chosen step."""

    def __init__(self, inner, fail_at: int):
        self._inner = inner
        self._fail_at = fail_at

    def train_step(self):
        from repro.faults.injector import SimulatedFailure

        if self._inner.step_count + 1 >= self._fail_at:
            raise SimulatedFailure(self._inner.step_count + 1, "exploding")
        return self._inner.train_step()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestFailedJobs:
    def test_failed_job_parks_and_resubmission_gets_fresh_channel(
        self, fixture_factory
    ):
        from repro.service.daemon import BUILTIN_WORKLOADS

        def exploding(params):
            inner_factory = BUILTIN_WORKLOADS["classifier"](params)
            return lambda: _ExplodingTrainer(inner_factory(), fail_at=2)

        fixture = fixture_factory(workloads={"exploding": exploding})
        client = fixture.start()
        client.submit(_tiny_spec("boom", steps=10, workload="exploding"))
        status = fixture.wait_job("boom", states=("failed",))
        assert "exploding" in status["error"]
        # The daemon survived its job's crash and still serves requests.
        assert client.ping()["ok"]
        # Resubmitting the same id must get a clean channel (no stale queue
        # or pending error from the dead incarnation) and run to completion.
        response = client.submit(_tiny_spec("boom", steps=3))
        assert response["ok"], response
        status = fixture.wait_job("boom", states=("finished",))
        assert status["error"] is None
        assert status["final_step"] == 3

    def test_drain_compacts_placement_journal(self, tmp_path):
        import threading

        from repro.storage.placement import PlacementJournal
        from repro.storage.tiered import TieredBackend

        journal = PlacementJournal(
            InMemoryBackend(), "daemon-t", refresh_seconds=0.0
        )
        tier = TieredBackend(
            InMemoryBackend(),
            InMemoryBackend(),
            fast_capacity_bytes=1 << 22,
            journal=journal,
        )
        store = ChunkStore(tier, block_bytes=2048, placement_journal=journal)
        pool = WriterPool(workers=2)
        daemon = FleetDaemon(
            store,
            pool,
            tmp_path / "ctl",
            config=DaemonConfig(tick_seconds=0.002),
        )
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        client = DaemonClient(tmp_path / "ctl", timeout=30.0)
        try:
            for i in range(3):
                client.submit(_tiny_spec(f"j{i}", steps=4))
            client.drain(wait=True, timeout=60.0)
        finally:
            thread.join(timeout=30.0)
            pool.close()
        # Every checkpoint appended pin/unpin records; the drain folded
        # them into one snapshot (+ lease bookkeeping), and pins survive.
        assert len(journal.records()) <= 3
        pinned = journal.pinned_names()
        for i in range(3):
            assert store.manifest_names(f"j{i}")[-1] in pinned


class _HeldTrainer:
    """Delegating trainer that will not take step ``hold_at`` until ``gate``
    is set.  A held step trains nothing and reports the last real step
    again, so the job stays active while the daemon's loop keeps serving."""

    def __init__(self, inner, hold_at: int, gate: threading.Event):
        self._inner = inner
        self._hold_at = hold_at
        self._gate = gate

    def train_step(self):
        from repro.ml.trainer import StepInfo

        inner = self._inner
        if inner.step_count + 1 >= self._hold_at and not self._gate.is_set():
            return StepInfo(inner.step_count, inner.last_loss, 0.0, 0.0)
        return inner.train_step()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestDrain:
    def test_submit_while_draining_refused_then_drained(self, fixture_factory):
        from repro.service.daemon import BUILTIN_WORKLOADS

        # j1 cannot finish before the test has seen the daemon refuse j2:
        # its last step waits for the gate, however long the three control
        # round trips below take.
        gate = threading.Event()

        def held(params):
            inner_factory = BUILTIN_WORKLOADS["classifier"](params)
            return lambda: _HeldTrainer(inner_factory(), hold_at=15, gate=gate)

        fixture = fixture_factory(workloads={"held": held})
        client = fixture.start()
        # No checkpoint falls on the held step (14), so holding saves nothing.
        client.submit(
            _tiny_spec("j1", steps=15, workload="held", checkpoint_every=5)
        )
        response = client.drain(wait=False)
        assert response["state"] == "draining"
        refused = client.submit(_tiny_spec("j2"))
        assert not refused["ok"] and "draining" in refused["error"]
        gate.set()
        # The already-running job still finishes before the daemon exits
        # (no second request: the daemon may be gone before it is read).
        fixture.thread.join(timeout=60.0)
        assert not fixture.thread.is_alive()
        assert fixture.store.load_snapshot("j1").step == 15

    def test_drain_with_no_jobs_stops_immediately(self, fixture_factory):
        fixture = fixture_factory()
        client = fixture.start()
        result = client.drain(wait=True, timeout=30.0)
        assert result["state"] == STATE_STOPPED
        fixture.thread.join(timeout=10.0)
        assert not fixture.thread.is_alive()
