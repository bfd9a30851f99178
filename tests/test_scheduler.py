"""One scheduler, two drivers: the harness and the daemon run the same loop."""

from __future__ import annotations

import queue
import threading
import time

import numpy as np
import pytest

from repro.errors import CheckpointError, StorageError
from repro.faults.injector import PreemptionStorm
from repro.service import (
    ChunkStore,
    DaemonClient,
    DaemonConfig,
    FleetDaemon,
    FleetHarness,
    FleetJobSpec,
    Scheduler,
    WriterPool,
)
from repro.service.daemon import BUILTIN_WORKLOADS
from repro.storage.memory import InMemoryBackend
from repro.storage.tiered import TieredBackend

PARAMS = {"qubits": 2, "layers": 1, "samples": 16, "batch_size": 4}


def _params(lr: float) -> dict:
    return dict(PARAMS, lr=lr)


def _factory(lr: float = 0.02):
    return BUILTIN_WORKLOADS["classifier"](_params(lr))


class _Hooked:
    """A trainer that calls ``before_step(step_count)`` ahead of each step."""

    def __init__(self, inner, before_step):
        self._inner = inner
        self._before_step = before_step

    def train_step(self):
        self._before_step(self._inner.step_count)
        return self._inner.train_step()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _hooked(factory, before_step):
    return lambda: _Hooked(factory(), before_step)


def _run_to_completion(scheduler: Scheduler, max_ticks: int = 200) -> None:
    while scheduler.active_jobs:
        assert scheduler.tick < max_ticks, "fleet did not finish"
        scheduler.step()


def _final_tensors(store: ChunkStore, job_id: str):
    meta, tensors = store.load_tensors(job_id)
    return meta["step"], tensors


def _assert_bitwise(got, want) -> None:
    got_step, got_tensors = got
    want_step, want_tensors = want
    assert got_step == want_step
    assert sorted(got_tensors) == sorted(want_tensors)
    for name, array in want_tensors.items():
        assert got_tensors[name].dtype == array.dtype
        assert np.array_equal(got_tensors[name], array), name


# ---------------------------------------------------------------------------
# The same script under both drivers
# ---------------------------------------------------------------------------

JOBS = {"j0": 0.01, "j1": 0.02, "j2": 0.03}  # job id -> learning rate
TARGET, EVERY = 8, 4
# Every job is killed with step 6 taken and its step-4 checkpoint committed.
KILL_AT_STEP = 6
ACCOUNTING = {
    "final_step": TARGET,
    "preemptions": 1,
    "restores": 1,
    "lost_steps": KILL_AT_STEP - EVERY,
}


def _under_harness(tmp_path):
    store = ChunkStore(InMemoryBackend(), block_bytes=2048)
    pool = WriterPool(workers=2)

    def before_step(step):
        if step == KILL_AT_STEP - 1:
            pool.drain()  # the step-4 save is committed before the storm

    specs = [
        FleetJobSpec(
            job_id=job_id,
            trainer_factory=_hooked(_factory(lr), before_step),
            target_steps=TARGET,
            checkpoint_every=EVERY,
        )
        for job_id, lr in JOBS.items()
    ]
    # Lockstep: at tick 6 every job has taken six steps.
    storm = PreemptionStorm(at_tick=KILL_AT_STEP, restart_delay_ticks=1)
    try:
        result = FleetHarness(store, pool, specs, events=[storm]).run()
    finally:
        pool.close()
    accounting = {
        job_id: {key: getattr(job, key) for key in ACCOUNTING}
        for job_id, job in result.jobs.items()
    }
    return store, accounting


def _under_daemon(tmp_path):
    """The daemon ticks on its own clock, so the script pins each kill to
    the job's own progress: a job about to take step 6 parks the serve
    thread until its ``preempt`` is waiting in the server's request queue,
    which the daemon then answers right after the pass that takes the
    step."""
    store = ChunkStore(InMemoryBackend(), block_bytes=2048)
    pool = WriterPool(workers=2)
    arrivals: "queue.Queue[str]" = queue.Queue()
    released = {job_id: threading.Event() for job_id in JOBS}

    def workload(params):
        params = dict(params)
        job_id = params.pop("job")
        factory = BUILTIN_WORKLOADS["classifier"](params)

        def before_step(step):
            if step == KILL_AT_STEP - 1 and not released[job_id].is_set():
                arrivals.put(job_id)
                assert released[job_id].wait(timeout=60.0)

        return _hooked(factory, before_step)

    control = tmp_path / "ctl"
    daemon = FleetDaemon(
        store,
        pool,
        control,
        config=DaemonConfig(tick_seconds=0.002),
        workloads={"gated": workload},
    )
    answers = []

    def preempt_posted(job_id) -> bool:
        queued = daemon.server._queue
        with queued.mutex:
            requests = [request for request, _, _ in queued.queue]
        return any(
            request["op"] == "preempt" and request["job"] == job_id
            for request in requests
        )

    def kill_each_job_at_its_gate():
        preempters = []
        for _ in JOBS:
            job_id = arrivals.get(timeout=60.0)
            preempter = threading.Thread(
                target=lambda job_id=job_id: answers.append(
                    DaemonClient(control, timeout=60.0).preempt(
                        job_id, restart_delay_ticks=1
                    )
                ),
                daemon=True,
            )
            preempter.start()
            preempters.append(preempter)
            deadline = time.monotonic() + 30.0
            while not preempt_posted(job_id):
                assert time.monotonic() < deadline, "preempt never posted"
                time.sleep(0.002)
            pool.drain()  # the step-4 save is committed before the kill
            released[job_id].set()
        for preempter in preempters:
            preempter.join(timeout=60.0)

    serving = threading.Thread(target=daemon.serve, daemon=True)
    # A job can reach its gate, and park the serve thread, while a later
    # submit is still waiting for its answer: the kills run beside them.
    killer = threading.Thread(target=kill_each_job_at_its_gate, daemon=True)
    client = DaemonClient(control, timeout=60.0)
    try:
        serving.start()
        client.ping()
        killer.start()
        for job_id, lr in JOBS.items():
            response = client.submit(
                {
                    "job_id": job_id,
                    "workload": "gated",
                    "target_steps": TARGET,
                    "checkpoint_every": EVERY,
                    "params": dict(_params(lr), job=job_id),
                }
            )
            assert response["ok"], response
        killer.join(timeout=120.0)
        assert not killer.is_alive()
        assert [a["ok"] for a in answers] == [True] * len(JOBS), answers
        deadline = time.monotonic() + 60.0
        while True:
            status = client.status()["jobs"]
            if all(job["state"] == "finished" for job in status.values()):
                break
            assert time.monotonic() < deadline, status
            time.sleep(0.01)
        client.drain(wait=True, timeout=60.0)
    finally:
        for event in released.values():
            event.set()
        daemon._stop_requested = True
        serving.join(timeout=60.0)
        pool.close()
    assert not serving.is_alive()
    accounting = {
        job_id: {key: job[key] for key in ACCOUNTING}
        for job_id, job in status.items()
    }
    return store, accounting


@pytest.fixture(scope="module")
def uninterrupted():
    store = ChunkStore(InMemoryBackend(), block_bytes=2048)
    pool = WriterPool(workers=2)
    scheduler = Scheduler(store, pool)
    try:
        for job_id, lr in JOBS.items():
            scheduler.submit(
                FleetJobSpec(
                    job_id=job_id,
                    trainer_factory=_factory(lr),
                    target_steps=TARGET,
                    checkpoint_every=EVERY,
                )
            )
        _run_to_completion(scheduler)
    finally:
        pool.close()
    return {job_id: _final_tensors(store, job_id) for job_id in JOBS}


class TestOneScheduler:
    @pytest.mark.parametrize(
        "driver", [_under_harness, _under_daemon], ids=["harness", "daemon"]
    )
    def test_same_script_same_accounting_and_bitwise_checkpoints(
        self, driver, uninterrupted, tmp_path
    ):
        store, accounting = driver(tmp_path)
        # One expected table for both drivers: they agree with each other.
        assert accounting == {job_id: ACCOUNTING for job_id in JOBS}
        for job_id in JOBS:
            _assert_bitwise(
                _final_tensors(store, job_id), uninterrupted[job_id]
            )


# ---------------------------------------------------------------------------
# The daemon's behaviours, under the harness and the bare scheduler
# ---------------------------------------------------------------------------


class _FailingWrites(InMemoryBackend):
    """Refuses every object of one job's checkpoints (its manifests)."""

    def __init__(self, job_id: str):
        super().__init__()
        self._needle = f"job-{job_id}-"

    def write(self, name, data):
        if name.startswith(self._needle):
            raise StorageError(f"disk full writing {name}")
        super().write(name, data)


def _fleet(store, specs, events=()):
    pool = WriterPool(workers=2)
    harness = FleetHarness(store, pool, specs, events=events)
    try:
        return harness, harness.run()
    finally:
        pool.close()


class TestUnifiedBehaviours:
    def test_priority_is_honoured_under_the_harness(self):
        specs = [
            FleetJobSpec(
                job_id="a-low", trainer_factory=_factory(), target_steps=6
            ),
            FleetJobSpec(
                job_id="b-high",
                trainer_factory=_factory(),
                target_steps=6,
                priority=2,
            ),
        ]
        _, result = _fleet(ChunkStore(InMemoryBackend()), specs)
        high, low = result.jobs["b-high"], result.jobs["a-low"]
        assert high.final_step == low.final_step == 6
        assert high.finish_tick < low.finish_tick

    def test_cadence_offset_delays_the_first_step_without_catch_up(self):
        pool = WriterPool(workers=1)
        scheduler = Scheduler(ChunkStore(InMemoryBackend()), pool)
        try:
            held = scheduler.submit(
                FleetJobSpec(
                    job_id="a-held",
                    trainer_factory=_factory(),
                    target_steps=10,
                    cadence_offset=3,
                )
            )
            peer = scheduler.submit(
                FleetJobSpec(
                    job_id="b-peer", trainer_factory=_factory(), target_steps=10
                )
            )
            for tick in range(3):
                assert scheduler.tick == tick
                scheduler.step()
                assert held.result.steps_executed == 0
                assert peer.result.steps_executed == tick + 1
            # Tick 3 is its first step, and the ticks it sat out are not
            # owed to it: one slot a pass each from here on.
            for taken in (1, 2):
                scheduler.step()
                assert held.result.steps_executed == taken
                assert peer.result.steps_executed == 3 + taken
        finally:
            pool.close()

    def test_rejoining_job_enters_level_with_its_peers(self):
        """Three equal jobs, one killed: back from its restore it is owed
        nothing, so every job takes exactly one step in that pass and the
        finish ticks are the ones a loop without priorities gives."""
        pool = WriterPool(workers=2)
        scheduler = Scheduler(ChunkStore(InMemoryBackend()), pool)
        try:
            jobs = {
                job_id: scheduler.submit(
                    FleetJobSpec(
                        job_id=job_id,
                        trainer_factory=_factory(),
                        target_steps=6,
                    )
                )
                for job_id in "abc"
            }
            scheduler.step()
            scheduler.step()
            pool.drain()  # the step-2 saves are committed before the kill
            scheduler.preempt(jobs["a"], 2)  # a storm at tick 2
            while scheduler.tick < 5:
                scheduler.step()
                assert jobs["a"].state == "down"
            before = {k: job.ticks_scheduled for k, job in jobs.items()}
            scheduler.step()  # tick 5: "a" is restored and rejoins
            assert jobs["a"].result.resumed_from_steps == [2]
            assert {k: job.ticks_scheduled for k, job in jobs.items()} == {
                k: taken + 1 for k, taken in before.items()
            }
            _run_to_completion(scheduler)
        finally:
            pool.close()
        finish_ticks = {k: job.result.finish_tick for k, job in jobs.items()}
        assert finish_ticks == {"a": 8, "b": 5, "c": 5}
        assert jobs["a"].result.lost_steps == 0

    def test_failing_job_is_parked_with_its_exception(self):
        def specs():
            return [
                FleetJobSpec(
                    job_id=job_id, trainer_factory=_factory(), target_steps=4
                )
                for job_id in ("bad", "good")
            ]

        pool = WriterPool(workers=2)
        store = ChunkStore(_FailingWrites("bad"))
        scheduler = Scheduler(store, pool)
        try:
            bad, good = (scheduler.submit(spec) for spec in specs())
            _run_to_completion(scheduler)
        finally:
            pool.close()
        assert bad.state == "failed"
        assert isinstance(bad.error, CheckpointError)
        assert "disk full" in str(bad.error)
        assert good.state == "finished" and good.result.final_step == 4
        assert store.load_snapshot("good").step == 4

        pool = WriterPool(workers=2)
        harness = FleetHarness(
            ChunkStore(_FailingWrites("bad")), pool, specs()
        )
        try:
            with pytest.raises(CheckpointError, match="disk full") as raised:
                harness.run()
        finally:
            pool.close()
        assert raised.value is harness.scheduler.jobs["bad"].error

    def test_harness_resumes_an_id_the_store_already_holds(self):
        store = ChunkStore(InMemoryBackend())

        def spec(steps):
            return FleetJobSpec(
                job_id="sweep", trainer_factory=_factory(), target_steps=steps
            )

        _fleet(store, [spec(3)])
        _, result = _fleet(store, [spec(5)])
        job = result.jobs["sweep"]
        assert job.resumed_from_steps == [3]
        assert job.steps_executed == 2 and job.final_step == 5
        calm_store = ChunkStore(InMemoryBackend())
        _fleet(calm_store, [spec(5)])
        _assert_bitwise(
            _final_tensors(store, "sweep"), _final_tensors(calm_store, "sweep")
        )
        # The same target again: nothing is left to train, and nothing is.
        _, again = _fleet(store, [spec(5)])
        job = again.jobs["sweep"]
        assert job.resumed_from_steps == [5]
        assert job.steps_executed == 0 and job.final_step == 5
        assert again.makespan_ticks == 0
        _assert_bitwise(
            _final_tensors(store, "sweep"), _final_tensors(calm_store, "sweep")
        )

    def test_storm_under_the_harness_stages_the_restore_on_a_fast_tier(self):
        def tiered_store():
            return ChunkStore(
                TieredBackend(
                    InMemoryBackend(),
                    InMemoryBackend(),
                    fast_capacity_bytes=1 << 20,
                )
            )

        staged = []
        harnesses = []

        def watch(step):
            scheduler = harnesses[-1].scheduler
            if scheduler.jobs["victim"].state == "down":
                staged.append(scheduler.prefetching("victim"))

        def commit_first(step):
            if step == 1:
                harnesses[-1].pool.drain()  # something to stage at tick 2

        def specs(victim_hook, peer_hook):
            return [
                FleetJobSpec(
                    job_id="victim",
                    trainer_factory=_hooked(_factory(), victim_hook),
                    target_steps=6,
                ),
                FleetJobSpec(
                    job_id="peer",
                    trainer_factory=_hooked(_factory(), peer_hook),
                    target_steps=6,
                ),
            ]

        store = tiered_store()
        pool = WriterPool(workers=2)
        storm = PreemptionStorm(
            at_tick=2, job_ids=["victim"], restart_delay_ticks=2
        )
        harnesses.append(
            FleetHarness(store, pool, specs(commit_first, watch), [storm])
        )
        try:
            result = harnesses[-1].run()
        finally:
            pool.close()
        assert result.jobs["victim"].restores == 1
        assert staged and all(staged)  # held for the whole restart delay
        assert not harnesses[-1].scheduler.prefetching("victim")

        calm_store = tiered_store()
        _fleet(calm_store, specs(lambda step: None, lambda step: None))
        _assert_bitwise(
            _final_tensors(store, "victim"),
            _final_tensors(calm_store, "victim"),
        )
