"""Fleet daemon lifecycle: control plane, churn, reincarnation, drain."""

from __future__ import annotations

import dataclasses
import json
import re
import socket
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
from repro.service.daemon import (
    BUILTIN_WORKLOADS,
    OPS,
    READ_ONLY_OPS,
    STATE_STOPPED,
)
from repro.service.scheduler import WIRE_KEYS, FleetJobSpec
from repro.service.transport import (
    SOCKET_NAME,
    SocketControlClient,
    recv_frame,
    send_frame,
)
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
        self.client.close()
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

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"job_id": "b", "target_step": 2}, "target_step"),
            (_tiny_spec("b", params={"qubtis": 3}), "qubtis"),
            (_tiny_spec("b", save_on_start="false"), "save_on_start"),
            (_tiny_spec("b", steps=2.9), "target_steps"),
            (_tiny_spec("b", steps=True), "target_steps"),
            (_tiny_spec("b", params=[1]), "params"),
            ([1, 2], "spec"),
        ],
        ids=[
            "misspelt-key",
            "misspelt-param",
            "string-for-bool",
            "float-for-int",
            "bool-for-int",
            "params-not-object",
            "spec-not-object",
        ],
    )
    def test_duplicate_active_job_and_unknown_workload_refused(
        self, fixture_factory, spec, key
    ):
        fixture = fixture_factory()
        client = fixture.start()
        assert client.submit(_tiny_spec("j1", steps=50))["ok"]
        duplicate = client.submit(_tiny_spec("j1"))
        assert not duplicate["ok"] and "already active" in duplicate["error"]
        unknown = client.submit(_tiny_spec("j2", workload="nope"))
        assert not unknown["ok"] and "unknown workload" in unknown["error"]
        refused = client.submit(spec)
        assert not refused["ok"]
        error = refused["error"]
        assert error.startswith("ConfigError: "), error
        # Named before any list of the keys there are.
        assert re.search(rf"\b{key}\b", error.split(" (have:")[0]), error
        assert list(client.status()["jobs"]) == ["j1"]
        fixture.pool.drain()
        assert set(fixture.store.jobs()) <= {"j1"}


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


class TestStopVerb:
    def test_qckpt_daemon_stop_halts_an_unfinished_job_resumably(
        self, fixture_factory, capsys
    ):
        from repro.cli import main as qckpt_main
        from repro.service.daemon import META_NAME
        from repro.service.transport import _short_path

        fixture = fixture_factory()
        client = fixture.start()
        assert client.submit(_tiny_spec("j1", steps=100_000))["ok"]
        deadline = time.monotonic() + 30.0
        while (client.status("j1")["jobs"]["j1"]["step"] or 0) < 3:
            assert time.monotonic() < deadline, "j1 never took 3 steps"
            time.sleep(0.01)

        control = str(fixture.control)
        assert qckpt_main(["daemon", "stop", "--control", control]) == 0
        assert "daemon: stopping" in capsys.readouterr().out
        fixture.thread.join(timeout=30.0)
        assert not fixture.thread.is_alive()
        meta = json.loads((fixture.control / META_NAME).read_text())
        assert meta["state"] == STATE_STOPPED
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            with _short_path(str(fixture.control / SOCKET_NAME)) as path:
                with pytest.raises(ConnectionRefusedError):
                    sock.connect(path)

        # The job was halted, not finished: a daemon over the same backend
        # resumes a re-submit from its last committed checkpoint and ends
        # bitwise where an uninterrupted run of the same spec ends.
        last = fixture.store.load_snapshot("j1").step
        assert 3 <= last < 100_000
        successor = fixture_factory("d1", backend=fixture.backend)
        response = successor.start().submit(_tiny_spec("j1", steps=last + 4))
        assert response["ok"] and response["resumed_from_step"] == last
        successor.wait_job("j1")
        reference = fixture_factory("d2")
        reference.start().submit(_tiny_spec("j1", steps=last + 4))
        reference.wait_job("j1")
        resumed = successor.store.load_snapshot("j1").to_payload()[1]
        uninterrupted = reference.store.load_snapshot("j1").to_payload()[1]
        assert set(resumed) == set(uninterrupted)
        for name, array in resumed.items():
            assert array.tobytes() == uninterrupted[name].tobytes(), name


class _HookedTrainer:
    """Delegating trainer whose first step after ``armed`` is set runs
    ``hook`` (once), on the daemon's serve thread, before it returns."""

    def __init__(self, inner, armed: threading.Event, hook):
        self._inner = inner
        self._armed = armed
        self._hook = hook

    def train_step(self):
        info = self._inner.train_step()
        if self._armed.is_set():
            self._armed.clear()
            self._hook()
        return info

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _queue_request(daemon, send):
    """Run ``send`` on a client thread; return ``(thread, answer)`` once its
    request is in the daemon's queue.  Called on the serve thread, so nothing
    takes the request off the queue meanwhile."""
    queued = daemon.server._queue.qsize() + 1
    answer: dict = {}
    thread = threading.Thread(
        target=lambda: answer.update(send()), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while (
        daemon.server._queue.qsize() < queued
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)
    return thread, answer


def _one_request(control, op, **payload):
    client = DaemonClient(control, timeout=30.0)
    try:
        return client.request(op, **payload)
    finally:
        client.close()


def _joined(sent, timeout=30.0):
    for thread, _ in sent:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "a request was never answered"
    return [answer for _, answer in sent]


class TestReadsBetweenSlots:
    """Reads are answered between training-step slots, writes only at pass
    boundaries.  Jobs ``b`` and ``c`` run at one priority, so every pass
    steps ``b`` and then ``c``; ``b``'s hooked step queues requests and
    returns once they are queued, so the first moment the daemon can take
    them is right after ``b``'s slot, before ``c``'s."""

    PREEMPT_C = {"op": "preempt", "job": "c", "restart_delay_ticks": 10**6}

    def _run(self, fixture_factory, send):
        """Start ``b`` and ``c``; in a pass both run in, ``b``'s step calls
        ``send(fixture)`` -> list of ``(thread, answer)``.  Returns the
        answers and each job's ``steps_executed`` just before that slot."""
        armed = threading.Event()
        before: dict = {}
        sent: list = []

        def hook():
            jobs = fixture.daemon.scheduler.jobs
            before.update(
                {job_id: jobs[job_id].result.steps_executed for job_id in "bc"}
            )
            sent.extend(send(fixture))

        def hooked(params):
            inner_factory = BUILTIN_WORKLOADS["classifier"](params)
            return lambda: _HookedTrainer(inner_factory(), armed, hook)

        fixture = fixture_factory(workloads={"hooked": hooked})
        client = fixture.start()
        assert client.submit(_tiny_spec("b", 500, workload="hooked"))["ok"]
        assert client.submit(_tiny_spec("c", 500))["ok"]
        deadline = time.monotonic() + 30.0
        while not client.status("c")["jobs"]["c"]["steps_executed"]:
            assert time.monotonic() < deadline, "c never joined the passes"
            time.sleep(0.001)
        armed.set()
        while not sent:
            assert time.monotonic() < deadline, "b's hooked step never ran"
            time.sleep(0.001)
        return _joined(sent), before, fixture

    def test_status_is_answered_mid_pass(self, fixture_factory):
        def send(fixture):
            def status():
                return _one_request(fixture.control, "status")

            return [_queue_request(fixture.daemon, status)]

        [status], before, _ = self._run(fixture_factory, send)
        jobs = status["jobs"]
        assert jobs["b"]["steps_executed"] == before["b"] + 1  # b's slot ran
        assert jobs["c"]["steps_executed"] == before["c"]  # c's did not yet

    def test_preempt_waits_for_the_pass_boundary(self, fixture_factory):
        def send(fixture):
            control = fixture.control
            return [
                _queue_request(
                    fixture.daemon,
                    lambda: _one_request(control, **self.PREEMPT_C),
                ),
                _queue_request(
                    fixture.daemon,
                    lambda: _one_request(control, "status", job="c"),
                ),
            ]

        (preempt, status), before, fixture = self._run(fixture_factory, send)
        # The status, queued after the preempt, was answered first: mid-pass,
        # with c still running and its slot still to come.
        mid = status["jobs"]["c"]
        assert mid["state"] == "running" and mid["preemptions"] == 0
        assert mid["steps_executed"] == before["c"]
        assert preempt["ok"] and preempt["preempted"] == ["c"]
        # The preempt took effect after the pass: c still stepped in it.
        after = fixture.client.status("c")["jobs"]["c"]
        assert after["preemptions"] == 1 and after["state"] == "down"
        assert after["steps_executed"] == before["c"] + 1

    def test_one_connection_is_answered_in_send_order(self, fixture_factory):
        frames = [
            {"id": "read-first", "op": "status"},
            {"id": "write-next", **self.PREEMPT_C},
            {"id": "read-last", "op": "status"},
        ]

        def send(fixture):
            client = SocketControlClient(fixture.control / SOCKET_NAME)

            def pipelined():
                sock = client._connect(30.0)
                try:
                    for frame in frames:  # all sent before any answer
                        send_frame(sock, frame)
                    return {"answers": [recv_frame(sock) for _ in frames]}
                finally:
                    sock.close()

            return [_queue_request(fixture.daemon, pipelined)]

        [result], before, _ = self._run(fixture_factory, send)
        first, write, last = result["answers"]
        assert [a["id"] for a in (first, write, last)] == [
            frame["id"] for frame in frames
        ]
        # The read sent first was answered mid-pass ...
        assert first["jobs"]["b"]["steps_executed"] == before["b"] + 1
        assert first["jobs"]["c"]["steps_executed"] == before["c"]
        # ... the write at a later pass boundary (which one depends on when
        # the connection thread hands it over), and the read sent last
        # sees it.
        assert write["ok"] and write["preempted"] == ["c"]
        c = last["jobs"]["c"]
        assert c["preemptions"] == 1
        assert c["steps_executed"] > before["c"]

    def test_unknown_op_is_answered_between_slots(self, fixture_factory):
        """``b``'s step queues an unknown op; ``c``'s step, the next slot of
        the same pass, waits for its answer.  Held to the pass boundary, as
        a write would be, the answer could only come after ``c``'s slot."""
        armed_b, armed_c = threading.Event(), threading.Event()
        answered = threading.Event()
        seen_in_c_slot: list = []
        sent: list = []

        def unknown_op():
            answer = _one_request(fixture.control, "frobnicate")
            answered.set()
            return answer

        def queue_unknown_op():
            sent.append(_queue_request(fixture.daemon, unknown_op))
            armed_c.set()

        def hooked(armed, hook):
            def builder(params):
                factory = BUILTIN_WORKLOADS["classifier"](params)
                return lambda: _HookedTrainer(factory(), armed, hook)

            return builder

        fixture = fixture_factory(
            workloads={
                "b": hooked(armed_b, queue_unknown_op),
                "c": hooked(
                    armed_c,
                    lambda: seen_in_c_slot.append(answered.wait(10.0)),
                ),
            }
        )
        client = fixture.start()
        assert client.submit(_tiny_spec("b", 500, workload="b"))["ok"]
        assert client.submit(_tiny_spec("c", 500, workload="c"))["ok"]
        deadline = time.monotonic() + 30.0
        while not client.status("c")["jobs"]["c"]["steps_executed"]:
            assert time.monotonic() < deadline, "c never joined the passes"
            time.sleep(0.001)
        armed_b.set()
        while not seen_in_c_slot:
            assert time.monotonic() < deadline, "c's hooked step never ran"
            time.sleep(0.001)
        [answer] = _joined(sent)
        assert seen_in_c_slot == [True]
        assert not answer["ok"] and "unknown op 'frobnicate'" in answer["error"]
        # Answered like a read: nothing kept for replay, and no histogram
        # series of its own.
        assert answer["id"] not in fixture.daemon._served_responses
        handled = fixture.daemon.metrics.snapshot()["series"]
        ops = {
            s["labels"]["op"]
            for s in handled
            if s["name"] == "daemon.handle_seconds"
        }
        assert "unknown" in ops and "frobnicate" not in ops


def test_read_only_ops_are_the_tables_read_only_entries():
    assert READ_ONLY_OPS == {
        op for op, (_, read_only) in OPS.items() if read_only
    }
    assert {"submit", "preempt", "drain", "stop"} <= set(OPS) - READ_ONLY_OPS


class TestOneJobSpec:
    """`qckpt daemon submit` argv -> wire -> FleetJobSpec.from_wire."""

    PARAMS = {
        "qubits": 2,
        "layers": 1,
        "samples": 16,
        "batch_size": 4,
        "lr": 0.02,
        "seed": 3,
    }

    @staticmethod
    def _sent_by(argv, monkeypatch):
        from repro.cli import main as qckpt_main

        sent = []

        def submit(self, spec, timeout=None):
            sent.append(json.loads(json.dumps(spec)))  # what crosses the wire
            return {"ok": True, "job": spec["job_id"]}

        monkeypatch.setattr(DaemonClient, "submit", submit)
        assert qckpt_main(["daemon", "submit", "--control", "-", *argv]) == 0
        [wire] = sent
        return wire

    def test_cli_spec_equals_the_harness_spec(self, monkeypatch):
        wire = self._sent_by(
            [
                "--job", "rt", "--steps", "5", "--every", "2",
                "--priority", "2", "--max-pending", "3",
                "--backpressure", "drop-oldest", "--restore-mode", "warm-start",
                "--qubits", "2", "--layers", "1", "--samples", "16",
                "--batch-size", "4", "--lr", "0.02", "--seed", "3",
            ],
            monkeypatch,
        )
        parsed = FleetJobSpec.from_wire(wire, BUILTIN_WORKLOADS)
        harness = FleetJobSpec(
            job_id="rt",
            trainer_factory=BUILTIN_WORKLOADS["classifier"](self.PARAMS),
            target_steps=5,
            checkpoint_every=2,
            max_pending=3,
            backpressure="drop-oldest",
            restore_mode="warm-start",
            priority=2,
        )
        for field in dataclasses.fields(FleetJobSpec):
            if field.name != "trainer_factory":
                assert getattr(parsed, field.name) == getattr(
                    harness, field.name
                ), field.name
        trainers = [parsed.trainer_factory(), harness.trainer_factory()]
        for trainer in trainers:
            trainer.run(2)
        ours, theirs = (t.capture().to_payload()[1] for t in trainers)
        assert set(ours) == set(theirs)
        for name, array in ours.items():
            assert array.tobytes() == theirs[name].tobytes(), name

    def test_only_the_workload_flags_given_are_sent(self, monkeypatch):
        wire = self._sent_by(
            ["--job", "v", "--workload", "vqe", "--qubits", "3"], monkeypatch
        )
        assert wire["workload"] == "vqe" and wire["params"] == {"qubits": 3}
        assert set(wire) <= set(WIRE_KEYS)


class TestVqeThroughTheCli:
    def test_vqe_job_resumes_bitwise_after_a_preempt(
        self, fixture_factory, capsys
    ):
        from repro.cli import main as qckpt_main
        from repro.ml.catalogue import build_trainer

        fixture = fixture_factory()
        client = fixture.start()
        steps = 40
        assert qckpt_main([
            "daemon", "submit", "--control", str(fixture.control),
            "--job", "v", "--workload", "vqe", "--qubits", "3",
            "--steps", str(steps),
        ]) == 0
        assert "submitted v (vqe)" in capsys.readouterr().out
        deadline = time.monotonic() + 30.0
        while (client.status("v")["jobs"]["v"]["step"] or 0) < 3:
            assert time.monotonic() < deadline, "the vqe job never stepped"
            time.sleep(0.001)
        assert client.preempt("v", restart_delay_ticks=2)["ok"]
        status = fixture.wait_job("v")
        assert status["preemptions"] == 1 and status["resumed_from_steps"]
        resumed = fixture.store.load_snapshot("v")
        assert resumed.step == steps and resumed.statevector.shape == (8,)
        reference = build_trainer("vqe", qubits=3)
        reference.run(steps)
        ours = resumed.to_payload()[1]
        theirs = reference.capture().to_payload()[1]
        assert set(ours) == set(theirs)
        for name, array in ours.items():
            assert array.tobytes() == theirs[name].tobytes(), name

    def test_a_parameter_the_workload_lacks_is_refused(
        self, fixture_factory, capsys
    ):
        from repro.cli import main as qckpt_main

        fixture = fixture_factory()
        client = fixture.start()
        code = qckpt_main([
            "daemon", "submit", "--control", str(fixture.control),
            "--job", "v", "--workload", "vqe", "--samples", "8",
        ])
        assert code != 0
        assert "samples" in capsys.readouterr().err
        assert client.status()["jobs"] == {}
