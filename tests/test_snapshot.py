"""Unit tests for the snapshot data model and tree splitting."""

import numpy as np
import pytest

from repro.core.snapshot import (
    TrainingSnapshot,
    join_tree,
    split_tree,
    tree_equal,
)
from repro.errors import IncompatibleCheckpointError, SerializationError
from repro.ml.optimizers import Adam
from repro.ml.rng import capture_rng_state


def sample_snapshot(step=7, with_statevector=True) -> TrainingSnapshot:
    rng = np.random.default_rng(step)
    params = rng.standard_normal(12)
    optimizer = Adam(lr=0.05)
    optimizer.step(params, rng.standard_normal(12))
    statevector = None
    if with_statevector:
        vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        statevector = vec / np.linalg.norm(vec)
    return TrainingSnapshot(
        step=step,
        params=params,
        optimizer_state=optimizer.state_dict(),
        rng_state=capture_rng_state(rng),
        model_fingerprint="fp-test",
        sampler_state={
            "epoch": 1,
            "cursor": 3,
            "permutation": np.arange(10),
            "rng_state": capture_rng_state(np.random.default_rng(1)),
            "n_items": 10,
            "batch_size": 4,
        },
        loss_history=np.array([1.0, 0.8, 0.5]),
        statevector=statevector,
        wall_time=12.5,
        extra={"note": "unit-test"},
    )


class TestSplitJoinTree:
    def test_roundtrip_nested(self):
        tree = {
            "a": 1,
            "b": {"c": np.arange(4), "d": [1.5, {"e": np.ones(2)}]},
            "f": None,
            "g": True,
            "h": "text",
        }
        json_tree, tensors = split_tree(tree)
        assert set(tensors) == {"b/c", "b/d/1/e"}
        rebuilt = join_tree(json_tree, tensors)
        assert tree_equal(tree, rebuilt)

    def test_numpy_scalars_converted(self):
        tree = {"i": np.int64(5), "f": np.float64(2.5), "b": np.bool_(True)}
        json_tree, _ = split_tree(tree)
        assert json_tree == {"i": 5, "f": 2.5, "b": True}
        assert isinstance(json_tree["i"], int)

    def test_rejects_non_string_keys(self):
        with pytest.raises(SerializationError):
            split_tree({1: "x"})

    def test_rejects_slash_in_keys(self):
        with pytest.raises(SerializationError):
            split_tree({"a/b": 1})

    def test_rejects_unsupported_leaf(self):
        with pytest.raises(SerializationError):
            split_tree({"fn": lambda: None})

    def test_join_missing_tensor_rejected(self):
        json_tree, tensors = split_tree({"x": np.ones(2)})
        with pytest.raises(SerializationError):
            join_tree(json_tree, {})

    def test_tuple_becomes_list(self):
        json_tree, _ = split_tree({"t": (1, 2)})
        assert json_tree["t"] == [1, 2]

    def test_tree_equal_array_mismatch(self):
        assert not tree_equal({"a": np.ones(2)}, {"a": np.zeros(2)})
        assert not tree_equal({"a": np.ones(2)}, {"a": 1.0})
        assert not tree_equal(
            {"a": np.ones(2)}, {"a": np.ones(2, dtype=np.float32)}
        )

    def test_tree_equal_dict_keys(self):
        assert not tree_equal({"a": 1}, {"b": 1})


class TestTrainingSnapshot:
    def test_payload_roundtrip(self):
        snapshot = sample_snapshot()
        meta, tensors = snapshot.to_payload()
        rebuilt = TrainingSnapshot.from_payload(meta, tensors)
        assert rebuilt == snapshot

    def test_payload_roundtrip_without_optional_fields(self):
        snapshot = TrainingSnapshot(
            step=0,
            params=np.zeros(3),
            optimizer_state={"kind": "sgd", "hyper": {}, "slots": {"t": 0}},
            rng_state={"bit_generator": "PCG64"},
            model_fingerprint="fp",
        )
        meta, tensors = snapshot.to_payload()
        assert TrainingSnapshot.from_payload(meta, tensors) == snapshot

    def test_meta_is_json_serializable(self):
        import json

        meta, _ = sample_snapshot().to_payload()
        json.dumps(meta)

    def test_from_payload_missing_field(self):
        with pytest.raises(SerializationError):
            TrainingSnapshot.from_payload({"schema": 1}, {})

    def test_from_payload_wrong_schema(self):
        meta, tensors = sample_snapshot().to_payload()
        meta = dict(meta)
        meta["schema"] = 99
        with pytest.raises(SerializationError):
            TrainingSnapshot.from_payload(meta, tensors)

    def test_copy_is_independent(self):
        snapshot = sample_snapshot()
        dup = snapshot.copy()
        dup.params[0] = 1e9
        dup.optimizer_state["slots"]["t"] = 999
        assert snapshot.params[0] != 1e9
        assert snapshot.optimizer_state["slots"]["t"] != 999

    def test_copy_equal(self):
        snapshot = sample_snapshot()
        assert snapshot.copy() == snapshot

    def test_equality_detects_param_change(self):
        a, b = sample_snapshot(), sample_snapshot()
        b.params = b.params + 1e-12
        assert a != b

    def test_check_compatible(self):
        snapshot = sample_snapshot()
        snapshot.check_compatible("fp-test")
        with pytest.raises(IncompatibleCheckpointError):
            snapshot.check_compatible("other")

    def test_nbytes_counts_tensors(self):
        with_sv = sample_snapshot(with_statevector=True).nbytes()
        without = sample_snapshot(with_statevector=False).nbytes()
        assert with_sv - without == 16 * 16  # 16 complex128 amplitudes

    def test_types_normalized(self):
        snapshot = TrainingSnapshot(
            step=np.int64(3),
            params=[1, 2, 3],
            optimizer_state={},
            rng_state={},
            model_fingerprint="fp",
        )
        assert isinstance(snapshot.step, int)
        assert snapshot.params.dtype == np.float64


class TestNoGarbageCycles:
    def test_payload_walkers_do_not_pin_the_tensors(self):
        """Saving, restoring and comparing a snapshot must not leave cyclic
        garbage that holds its arrays: a recursive closure over the tensor
        directory kept every statevector alive until the next collector
        pass (tens of MiB of dead checkpoints in a restore-heavy loop)."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            snapshot = sample_snapshot()
            statevector = weakref.ref(snapshot.statevector)
            meta, tensors = snapshot.to_payload()
            rebuilt = TrainingSnapshot.from_payload(meta, tensors)
            assert rebuilt == snapshot
            assert snapshot.nbytes() > 0
            del snapshot, rebuilt, meta, tensors
            assert statevector() is None
        finally:
            gc.enable()
