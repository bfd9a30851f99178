"""The definition of hybrid quantum-classical training state.

:class:`TrainingSnapshot` is the unit the checkpoint layer persists.  Its
payload is split into two parts by :func:`split_tree`:

* a JSON-able *meta tree* (scalars, RNG states, fingerprints, nested dicts),
* a flat ``{path: numpy array}`` *tensor directory* (parameters, optimizer
  moments, sampler permutation, loss history, statevector).

The split is generic: any ``dict`` tree whose leaves are JSON scalars or
numpy arrays round-trips exactly, which keeps the snapshot schema open for
user extensions (the ``extra`` field).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import IncompatibleCheckpointError, SerializationError

_TENSOR_MARKER = "$tensor"


def split_tree(tree: Any, prefix: str = "") -> Tuple[Any, Dict[str, np.ndarray]]:
    """Replace every ndarray leaf by a marker; collect arrays by path.

    Returns ``(json_tree, tensors)``.  Paths join dict keys / list indices
    with ``/``.  Numpy scalars are converted to Python scalars so the JSON
    side serializes cleanly.
    """
    tensors: Dict[str, np.ndarray] = {}
    return _split(tree, prefix, tensors), tensors


# The two walkers are module-level functions, not closures inside
# split_tree / join_tree: a nested function that calls itself is a reference
# cycle, and one that also captures ``tensors`` keeps every array of the
# snapshot (a statevector of megabytes) alive after each save, restore and
# comparison until the cyclic collector next runs.
def _split(node: Any, path: str, tensors: Dict[str, np.ndarray]) -> Any:
    if isinstance(node, np.ndarray):
        tensors[path] = node
        return {_TENSOR_MARKER: path}
    if isinstance(node, (np.integer,)):
        return int(node)
    if isinstance(node, (np.floating,)):
        return float(node)
    if isinstance(node, (np.bool_,)):
        return bool(node)
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"tree keys must be strings, got {key!r} at {path!r}"
                )
            if _TENSOR_MARKER in key or "/" in key:
                raise SerializationError(
                    f"tree key {key!r} may not contain '/' or the tensor marker"
                )
            out[key] = _split(value, f"{path}/{key}" if path else key, tensors)
        return out
    if isinstance(node, (list, tuple)):
        return [_split(v, f"{path}/{i}", tensors) for i, v in enumerate(node)]
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise SerializationError(
        f"unsupported leaf type {type(node).__name__} at {path!r}"
    )


def join_tree(json_tree: Any, tensors: Dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`split_tree`."""
    if isinstance(json_tree, dict):
        if set(json_tree.keys()) == {_TENSOR_MARKER}:
            path = json_tree[_TENSOR_MARKER]
            if path not in tensors:
                raise SerializationError(f"missing tensor {path!r}")
            return tensors[path]
        return {key: join_tree(value, tensors) for key, value in json_tree.items()}
    if isinstance(json_tree, list):
        return [join_tree(v, tensors) for v in json_tree]
    return json_tree


def tree_equal(a: Any, b: Any) -> bool:
    """Exact structural equality of trees with ndarray leaves (bitwise)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
            return False
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b))
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(tree_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(tree_equal(x, y) for x, y in zip(a, b))
    return bool(a == b)


SNAPSHOT_SCHEMA_VERSION = 1


@dataclass
class TrainingSnapshot:
    """Complete, restorable state of one hybrid training run at one step."""

    step: int
    params: np.ndarray
    optimizer_state: Dict
    rng_state: Dict
    model_fingerprint: str
    sampler_state: Optional[Dict] = None
    loss_history: np.ndarray = field(default_factory=lambda: np.zeros(0))
    statevector: Optional[np.ndarray] = None
    wall_time: float = 0.0
    extra: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.params = np.asarray(self.params, dtype=np.float64)
        self.loss_history = np.asarray(self.loss_history, dtype=np.float64)
        if self.statevector is not None:
            self.statevector = np.asarray(self.statevector)
        self.step = int(self.step)
        self.wall_time = float(self.wall_time)

    # -- payload mapping --------------------------------------------------------

    def to_payload(self) -> Tuple[Dict, Dict[str, np.ndarray]]:
        """Return (JSON meta tree, tensor directory) for serialization."""
        tree = {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "step": self.step,
            "wall_time": self.wall_time,
            "model_fingerprint": self.model_fingerprint,
            "params": self.params,
            "optimizer_state": self.optimizer_state,
            "rng_state": self.rng_state,
            "sampler_state": self.sampler_state,
            "loss_history": self.loss_history,
            "statevector": self.statevector,
            "extra": self.extra,
        }
        return split_tree(tree)

    @classmethod
    def from_payload(
        cls, meta: Dict, tensors: Dict[str, np.ndarray]
    ) -> "TrainingSnapshot":
        """Reconstruct a snapshot from :meth:`to_payload` output."""
        tree = join_tree(meta, tensors)
        try:
            schema = int(tree["schema"])
            if schema != SNAPSHOT_SCHEMA_VERSION:
                raise SerializationError(
                    f"unsupported snapshot schema {schema} "
                    f"(this build reads {SNAPSHOT_SCHEMA_VERSION})"
                )
            return cls(
                step=tree["step"],
                params=tree["params"],
                optimizer_state=tree["optimizer_state"],
                rng_state=tree["rng_state"],
                model_fingerprint=tree["model_fingerprint"],
                sampler_state=tree.get("sampler_state"),
                loss_history=tree.get("loss_history", np.zeros(0)),
                statevector=tree.get("statevector"),
                wall_time=tree.get("wall_time", 0.0),
                extra=tree.get("extra", {}),
            )
        except KeyError as exc:
            raise SerializationError(f"snapshot payload missing {exc}") from exc

    # -- helpers -----------------------------------------------------------------

    def copy(self) -> "TrainingSnapshot":
        """Deep copy, so async writers can persist while training mutates."""
        return TrainingSnapshot(
            step=self.step,
            params=self.params.copy(),
            optimizer_state=copy.deepcopy(self.optimizer_state),
            rng_state=copy.deepcopy(self.rng_state),
            model_fingerprint=self.model_fingerprint,
            sampler_state=copy.deepcopy(self.sampler_state),
            loss_history=self.loss_history.copy(),
            statevector=None if self.statevector is None else self.statevector.copy(),
            wall_time=self.wall_time,
            extra=copy.deepcopy(self.extra),
        )

    def check_compatible(self, model_fingerprint: str) -> None:
        """Raise unless this snapshot was produced by the same model structure."""
        if self.model_fingerprint != model_fingerprint:
            raise IncompatibleCheckpointError(
                "snapshot fingerprint "
                f"{self.model_fingerprint[:12]}... does not match model "
                f"{model_fingerprint[:12]}..."
            )

    def nbytes(self) -> int:
        """Raw (uncompressed) tensor payload size in bytes."""
        _, tensors = self.to_payload()
        return int(sum(t.nbytes for t in tensors.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrainingSnapshot):
            return NotImplemented
        mine, my_tensors = self.to_payload()
        theirs, their_tensors = other.to_payload()
        return tree_equal(mine, theirs) and tree_equal(my_tensors, their_tensors)
