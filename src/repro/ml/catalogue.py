"""The workload catalogue: every trainer a job or a figure is built from.

An entry maps a JSON ``params`` dictionary to a *trainer factory* (a
zero-argument callable returning a fresh :class:`~repro.ml.trainer.Trainer`,
one per incarnation of a job) and declares its parameters and their
defaults once.  The daemon, ``qckpt fleet`` and the paper's figures all
build their trainers here.  Parameters are JSON, never code: an unknown
name or a value of the wrong type is a :class:`~repro.errors.ConfigError`
naming it.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Mapping

import numpy as np

from repro.errors import ConfigError
from repro.ml.dataset import make_moons
from repro.ml.models import VariationalClassifier, VQEModel
from repro.ml.optimizers import Adam
from repro.ml.trainer import Trainer, TrainerConfig
from repro.quantum.observables import Hamiltonian
from repro.quantum.templates import hardware_efficient


def checked(key: str, value, like: type):
    """``value`` as a ``like``, or a :class:`ConfigError` naming ``key``:
    a bool is no int, a float no int, a string no bool; an int may stand
    for a float."""
    if like is float and type(value) is int:
        return float(value)
    if type(value) is not like:
        raise ConfigError(
            f"{key} must be of type {like.__name__}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class Workload:
    """``workload(params)`` is a trainer factory.  The keyword defaults of
    ``build`` declare its parameters, and the type of each."""

    build: Callable[..., Trainer]

    @property
    def defaults(self) -> Dict[str, object]:
        parameters = inspect.signature(self.build).parameters.values()
        return {p.name: p.default for p in parameters}

    def __call__(self, params: Mapping) -> Callable[[], Trainer]:
        defaults = self.defaults
        resolved = {}
        for key, value in params.items():
            if key not in defaults:
                raise ConfigError(
                    f"unknown workload parameter {key!r} "
                    f"(have: {sorted(defaults)})"
                )
            resolved[key] = checked(key, value, type(defaults[key]))
        return functools.partial(self.build, **resolved)


def _classifier(
    qubits=4, layers=2, lr=0.01, samples=64, batch_size=8, seed=11,
    gradient_method="adjoint", shots=0,
) -> Trainer:
    """Two-moons variational classifier; ``shots`` 0 = exact expectations,
    and parameter-shift gradients are what ``shard_workers`` fans out."""
    model = VariationalClassifier(
        hardware_efficient(qubits, layers), gradient_method=gradient_method
    )
    dataset = make_moons(samples, np.random.default_rng(seed))
    config = TrainerConfig(batch_size=batch_size, seed=seed, shots=shots or None)
    return Trainer(model, Adam(lr=lr), dataset=dataset, config=config)


def _vqe(qubits=10, seed=7) -> Trainer:
    """TFIM-chain VQE, 4 layers, lr 0.05; snapshots carry the statevector."""
    hamiltonian = Hamiltonian.transverse_field_ising(qubits, 1.0, 0.8)
    model = VQEModel(hardware_efficient(qubits, 4), hamiltonian)
    config = TrainerConfig(seed=seed, capture_statevector=True)
    return Trainer(model, Adam(lr=0.05), config=config)


BUILTIN_WORKLOADS = {"classifier": Workload(_classifier), "vqe": Workload(_vqe)}


def build_trainer(name: str, **params) -> Trainer:
    """One trainer of the catalogue entry ``name``."""
    return BUILTIN_WORKLOADS[name](params)()


def parameters() -> Dict[str, Dict[str, object]]:
    """Every parameter name -> {workload: its default there}."""
    table: Dict[str, Dict[str, object]] = {}
    for name, workload in BUILTIN_WORKLOADS.items():
        for key, default in workload.defaults.items():
            table.setdefault(key, {})[name] = default
    return table
