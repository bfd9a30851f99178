"""Integration tests: whole-stack scenarios on a real filesystem."""

import numpy as np
import pytest

from repro.core.policy import EveryKSteps
from repro.core.serialize import pack_snapshot, unpack_snapshot
from repro.faults.harness import run_with_failures
from repro.faults.injector import CrashAtStep, PoissonStepFailures
from repro.ml.dataset import make_circles
from repro.ml.models import VariationalClassifier, VQEModel
from repro.ml.optimizers import Adam
from repro.ml.trainer import Trainer, TrainerConfig
from repro.quantum.observables import Hamiltonian
from repro.quantum.templates import hardware_efficient, strongly_entangling
from repro.service.chunkstore import ChunkStore
from repro.service.manager import ServiceCheckpointManager
from repro.service.pool import WriterPool
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend


class TestFilesystemWorkflow:
    def test_package_docstring_quickstart_runs_and_resumes(
        self, tmp_path, monkeypatch
    ):
        """The quickstart in ``repro.__doc__`` is executed, not trusted."""
        import textwrap

        import repro

        code = textwrap.dedent(repro.__doc__.split("Quickstart::")[1])
        monkeypatch.chdir(tmp_path)  # it writes ./ckpts
        first, second = {}, {}
        exec(code, first)
        assert first["trainer"].step_count == 100
        exec(code, second)  # a second process resumes, then trains on
        assert second["trainer"].step_count == 200
        assert len(second["store"].checkpoints("default")) == 20

    def test_full_lifecycle_on_disk(self, tmp_path):
        """Train -> checkpoint to disk -> new process (fresh objects) ->
        resume -> verify bitwise continuation."""
        model = VQEModel(hardware_efficient(3, 2),
                         Hamiltonian.transverse_field_ising(3, 1.0, 0.7))
        config = TrainerConfig(seed=21, capture_statevector=True)

        def make_trainer():
            return Trainer(model, Adam(lr=0.08), config=config)

        reference = make_trainer()
        reference.run(20)

        backend = LocalDirectoryBackend(tmp_path / "ckpts")
        store = ChunkStore(backend)
        first = make_trainer()
        manager = ServiceCheckpointManager(store, policy=EveryKSteps(4))
        first.run(11, hooks=[manager])
        del first, manager, store  # "process exit"

        store2 = ChunkStore(LocalDirectoryBackend(tmp_path / "ckpts"))
        second = make_trainer()
        assert ServiceCheckpointManager(store2).resume(second) is not None
        assert second.step_count == 8
        second.run(20 - second.step_count)
        assert np.array_equal(second.params, reference.params)

    def test_statevector_survives_disk_roundtrip(self, tmp_path):
        model = VQEModel(hardware_efficient(4, 2),
                         Hamiltonian.transverse_field_ising(4, 1.0, 0.9))
        trainer = Trainer(
            model,
            Adam(lr=0.05),
            config=TrainerConfig(seed=5, capture_statevector=True),
        )
        trainer.run(3)
        store = ChunkStore(LocalDirectoryBackend(tmp_path / "s"))
        store.save_snapshot("default", trainer.capture())
        loaded = store.load_snapshot("default")
        assert np.array_equal(loaded.statevector, model.statevector(trainer.params))


class TestEndToEndScenarios:
    def _classifier_factory(self, tmp_path=None):
        rng = np.random.default_rng(17)
        dataset = make_circles(24, rng, noise=0.05)
        model = VariationalClassifier(strongly_entangling(2, 1))

        def make():
            return Trainer(
                model,
                Adam(lr=0.1),
                dataset,
                TrainerConfig(batch_size=6, seed=9),
            )

        return make

    def test_poisson_failures_with_recovery_reach_target(self, memory_store):
        make = self._classifier_factory()
        result = run_with_failures(
            make,
            memory_store,
            lambda s: ServiceCheckpointManager(s, policy=EveryKSteps(3)),
            target_steps=15,
            failure_hooks=[
                PoissonStepFailures(8.0, seed=2, fixed_step_seconds=1.0)
            ],
            max_failures=500,
        )
        assert result.final_step == 15
        reference = make()
        reference.run(15)
        final = memory_store.load_snapshot("default")
        assert np.array_equal(final.params, reference.params)

    def test_checkpointing_wastes_less_than_none(self):
        make = self._classifier_factory()

        def run(strategy):
            store = ChunkStore(InMemoryBackend())
            return run_with_failures(
                make,
                store,
                strategy,
                target_steps=12,
                failure_hooks=[CrashAtStep([5, 9])],
            )

        with_ckpt = run(
            lambda s: ServiceCheckpointManager(s, policy=EveryKSteps(2))
        )
        without = run(None)
        assert with_ckpt.wasted_steps < without.wasted_steps

    def test_async_writer_under_crash_recovers_cleanly(self, memory_store):
        make = self._classifier_factory()
        with WriterPool(1) as pool:
            result = run_with_failures(
                make,
                memory_store,
                lambda store: ServiceCheckpointManager(
                    store,
                    channel=pool.channel("default"),
                    policy=EveryKSteps(2),
                ),
                target_steps=10,
                failure_hooks=[CrashAtStep(7)],
            )
        assert result.final_step == 10
        reference = make()
        reference.run(10)
        final = memory_store.load_snapshot("default")
        assert np.array_equal(final.params, reference.params)

    def test_lossy_statevector_does_not_break_exact_params(self):
        """Lossy transforms touch only the statevector cache; parameters and
        optimizer state restore bitwise (the QCKPT container's transforms)."""
        model = VQEModel(hardware_efficient(4, 2),
                         Hamiltonian.transverse_field_ising(4, 1.0, 0.6))
        config = TrainerConfig(seed=31, capture_statevector=True)
        trainer = Trainer(model, Adam(lr=0.05), config=config)
        trainer.run(5)
        snapshot = trainer.capture()
        loaded = unpack_snapshot(
            pack_snapshot(snapshot, transforms={"statevector": "int8-block"})
        )
        assert np.array_equal(loaded.params, snapshot.params)
        fid = abs(np.vdot(loaded.statevector, snapshot.statevector)) ** 2
        assert 0.999 < fid < 1.0  # lossy but close

        fresh = Trainer(model, Adam(lr=0.05), config=config)
        fresh.restore(loaded)
        trainer.run(5)
        fresh.run(5)
        assert np.array_equal(fresh.params, trainer.params)
