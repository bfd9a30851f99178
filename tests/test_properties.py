"""Property-based tests (hypothesis) on core invariants.

Targets: the QCKPT container, tree splitting, XOR deltas, byte codecs,
simulator unitarity, and optimizer state round-trips — the invariants the
checkpoint layer's exactness guarantee rests on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.codecs import get_codec, get_transform
from repro.core.delta import apply_delta
from repro.core.serialize import pack_payload, unpack_payload
from repro.core.snapshot import join_tree, split_tree, tree_equal
from repro.quantum.haar import random_circuit
from repro.quantum.statevector import apply_circuit

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int8, np.uint8, np.complex128]
)


def _arrays(dtype):
    return hnp.arrays(
        dtype=dtype,
        shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=16),
        elements=hnp.from_dtype(
            np.dtype(dtype), allow_nan=False, allow_infinity=False
        ),
    )


_TENSOR_DICTS = st.dictionaries(
    keys=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1,
        max_size=8,
    ),
    values=_DTYPES.flatmap(_arrays),
    max_size=5,
)

_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll",)),
                min_size=1,
                max_size=6,
            ),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


class TestSerializeProperties:
    @_SETTINGS
    @given(tensors=_TENSOR_DICTS)
    def test_payload_roundtrip_arbitrary_tensors(self, tensors):
        data = pack_payload({"p": 1}, tensors, codec="zlib-1")
        meta, restored = unpack_payload(data)
        assert meta == {"p": 1}
        assert set(restored) == set(tensors)
        for name in tensors:
            assert restored[name].dtype == tensors[name].dtype
            assert np.array_equal(restored[name], tensors[name])

    @_SETTINGS
    @given(tensors=_TENSOR_DICTS, position=st.floats(min_value=0.0, max_value=0.999))
    def test_any_single_bitflip_detected(self, tensors, position):
        from repro.errors import CheckpointError

        data = bytearray(pack_payload({"p": 1}, tensors, codec="none"))
        offset = int(len(data) * position)
        data[offset] ^= 0x01
        with pytest.raises(CheckpointError):
            unpack_payload(bytes(data))

    @_SETTINGS
    @given(tree=st.dictionaries(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll",)),
            min_size=1,
            max_size=6,
        ),
        _TREES,
        max_size=4,
    ))
    def test_tree_split_join_roundtrip(self, tree):
        json_tree, tensors = split_tree(tree)
        assert tree_equal(join_tree(json_tree, tensors), tree)


class TestCodecProperties:
    @_SETTINGS
    @given(data=st.binary(max_size=4096), name=st.sampled_from(
        ["none", "zlib-1", "zlib-6", "zlib-9", "lzma", "bz2"]
    ))
    def test_codec_roundtrip(self, data, name):
        codec = get_codec(name)
        assert codec.decode(codec.encode(data)) == data

    @_SETTINGS
    @given(
        amplitudes=hnp.arrays(
            np.complex128,
            shape=st.integers(min_value=2, max_value=64).map(lambda n: 2 * n),
            elements=st.complex_numbers(
                max_magnitude=10.0, allow_nan=False, allow_infinity=False
            ),
        ).filter(lambda a: np.linalg.norm(a) > 1e-6)
    )
    def test_lossy_transform_outputs_valid_state(self, amplitudes):
        state = amplitudes / np.linalg.norm(amplitudes)
        for name in ("c64", "f16-pair", "int8-block"):
            transform = get_transform(name)
            encoded, meta = transform.encode(state)
            restored = transform.decode(encoded, meta)
            assert restored.shape == state.shape
            norm = np.linalg.norm(restored)
            assert norm == pytest.approx(1.0, abs=1e-6) or norm == 0.0


class TestDeltaProperties:
    @_SETTINGS
    @given(base=_TENSOR_DICTS, current=_TENSOR_DICTS)
    def test_delta_roundtrip_arbitrary_directories(self, base, current):
        # A delta record as QCKPT stores hold them: XOR where the base
        # tensor matches in dtype and shape, the tensor whole otherwise.
        delta_tensors, entries = {}, {}
        for name, array in current.items():
            old = base.get(name)
            if old is not None and (old.dtype, old.shape) == (
                array.dtype,
                array.shape,
            ):
                delta_tensors[name] = np.bitwise_xor(
                    np.ascontiguousarray(old).view(np.uint8).reshape(-1),
                    np.ascontiguousarray(array).view(np.uint8).reshape(-1),
                )
                entries[name] = {
                    "mode": "xor",
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                }
            else:
                delta_tensors[name], entries[name] = array, {"mode": "full"}
        meta = {"entries": entries, "removed": sorted(set(base) - set(current))}
        rebuilt = apply_delta(base, delta_tensors, meta)
        assert set(rebuilt) == set(current)
        for name in current:
            assert np.array_equal(rebuilt[name], current[name])
            assert rebuilt[name].dtype == current[name].dtype


class TestQuantumProperties:
    @_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_circuits_preserve_norm(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(3, 15, rng, parametric=True)
        state = apply_circuit(circuit)
        assert np.isclose(np.linalg.norm(state), 1.0, atol=1e-9)

    @_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_probabilities_always_sum_to_one(self, seed):
        from repro.quantum.statevector import probabilities

        rng = np.random.default_rng(seed)
        circuit = random_circuit(3, 10, rng)
        probs = probabilities(apply_circuit(circuit))
        assert np.isclose(probs.sum(), 1.0, atol=1e-9)
        assert np.all(probs >= -1e-12)

    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        coeff=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_pauli_expectation_bounded_by_coeff(self, seed, coeff):
        from repro.quantum.haar import haar_state, random_pauli_string

        rng = np.random.default_rng(seed)
        pauli = random_pauli_string(3, rng) * 0.0  # normalize weight then scale
        pauli = type(pauli)(coeff, pauli.paulis)
        state = haar_state(3, rng)
        assert abs(pauli.expectation(state)) <= abs(coeff) + 1e-9


class TestOptimizerProperties:
    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        split=st.integers(min_value=1, max_value=14),
    )
    def test_adam_resume_any_split_point(self, seed, split):
        from repro.ml.optimizers import Adam

        rng = np.random.default_rng(seed)
        grads = [rng.standard_normal(3) for _ in range(15)]

        reference, params_ref = Adam(lr=0.1), np.zeros(3)
        for g in grads:
            params_ref = reference.step(params_ref, g)

        first, params = Adam(lr=0.1), np.zeros(3)
        for g in grads[:split]:
            params = first.step(params, g)
        second = Adam(lr=0.1)
        second.load_state_dict(first.state_dict())
        for g in grads[split:]:
            params = second.step(params, g)
        assert np.array_equal(params, params_ref)
