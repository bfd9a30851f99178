"""Unit tests for byte codecs, lossy transforms, and delta decoding."""

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codecs import (
    CHEAP,
    CODECS,
    COSTLY,
    PROBE_MIN_BYTES,
    STORED,
    TRANSFORMS,
    get_codec,
    get_transform,
)
from repro.core.delta import MODE_APPEND, MODE_FULL, MODE_XOR, apply_delta
from repro.errors import ConfigError, SerializationError
from repro.quantum.haar import haar_state


class TestCodecs:
    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_roundtrip_random_bytes(self, name, rng):
        codec = get_codec(name)
        data = rng.integers(0, 256, 4096).astype(np.uint8).tobytes()
        assert codec.decode(codec.encode(data)) == data

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_roundtrip_empty(self, name):
        codec = get_codec(name)
        assert codec.decode(codec.encode(b"")) == b""

    def test_compressible_data_shrinks(self):
        data = b"\x00" * 100_000
        for name in ("zlib-6", "lzma", "bz2"):
            assert len(get_codec(name).encode(data)) < 1000

    def test_zlib_levels_ordered(self):
        data = bytes(range(256)) * 400
        fast = len(get_codec("zlib-1").encode(data))
        best = len(get_codec("zlib-9").encode(data))
        assert best <= fast

    def test_unknown_codec(self):
        with pytest.raises(ConfigError):
            get_codec("zstd")

    def test_corrupt_stream_decode_fails(self):
        for name in ("zlib-6", "lzma", "bz2"):
            with pytest.raises(SerializationError):
                get_codec(name).decode(b"not compressed data")

    def test_level_validation(self):
        from repro.core.codecs import Bz2Codec, LzmaCodec, ZlibCodec

        with pytest.raises(ConfigError):
            ZlibCodec(0)
        with pytest.raises(ConfigError):
            LzmaCodec(10)
        with pytest.raises(ConfigError):
            Bz2Codec(0)


def _block(kind: str, size: int) -> bytes:
    """Byte patterns the probe must tell apart, at any size."""
    rng = np.random.default_rng([size, len(kind)])
    noise = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
    if kind == "zeros":
        return bytes(size)
    if kind == "random":
        return noise
    if kind == "half-and-half":
        return noise[: size // 2] + bytes(size - size // 2)
    if kind == "sparse-random-tail":
        return bytes(size - size // 16) + noise[: size // 16]
    if kind == "random-head-sparse":  # what a one-window probe would misjudge
        return noise[: size // 8] + bytes(size - size // 8)
    raise AssertionError(kind)


_KINDS = (
    "zeros", "random", "half-and-half", "sparse-random-tail",
    "random-head-sparse",
)
_SIZES = (0, 1, 4095, 4096, 65535, 65536, 1 << 20)


class TestZlibProbe:
    """The ``zlib-N`` contract: whatever the probe decides, the output is a
    zlib stream the parent commit's decoder (bare ``zlib.decompress``) reads,
    never larger than the stored framing of the input."""

    @pytest.mark.parametrize("size", _SIZES)
    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("name", ["zlib-1", "zlib-6", "zlib-9"])
    def test_roundtrip_bound_and_bare_zlib(self, name, kind, size):
        codec = get_codec(name)
        data = _block(kind, size)
        encoded = codec.encode(data)
        assert codec.decode(encoded) == data
        assert zlib.decompress(encoded) == data
        assert len(encoded) <= len(zlib.compress(data, 0))
        if size <= 65536:
            assert len(encoded) <= size + 16
        # views (what the chunk store hands over) encode like bytes
        assert codec.encode(memoryview(data)) == encoded

    @pytest.mark.parametrize("size", [s for s in _SIZES if s >= PROBE_MIN_BYTES])
    def test_verdict_follows_the_bytes(self, size):
        codec = get_codec("zlib-6")
        assert codec.probe(_block("random", size)) == STORED
        for kind in _KINDS:
            if kind != "random":
                assert codec.probe(_block(kind, size)) == COSTLY, kind

    @pytest.mark.parametrize("size", [0, 1, 4095])
    def test_small_inputs_skip_the_probe(self, size):
        assert get_codec("zlib-6").probe(_block("random", size)) == CHEAP

    def test_dense_amplitudes_are_stored_sparse_states_deflated(self, rng):
        codec = get_codec("zlib-6")
        dense = haar_state(12, rng).tobytes()
        sparse = np.zeros(4096, dtype=np.complex128)
        sparse[:13] = haar_state(4, rng)[:13]
        assert codec.probe(dense) == STORED
        assert codec.encode(dense) == zlib.compress(dense, 0)
        assert codec.probe(sparse.tobytes()) == COSTLY
        # a deflated block is byte-identical to what the parent wrote
        assert codec.encode(sparse.tobytes()) == zlib.compress(sparse.tobytes(), 6)

    def test_verdict_passed_in_is_not_probed_again(self, monkeypatch):
        codec = get_codec("zlib-6")
        data = _block("random", 65536)
        monkeypatch.setattr(
            type(codec), "probe", lambda self, data: pytest.fail("probed twice")
        )
        assert codec.encode(data, STORED) == zlib.compress(data, 0)
        assert codec.encode(data, COSTLY) == zlib.compress(data, 6)

    def test_other_codecs_keep_their_behaviour(self):
        data = _block("random", 65536)
        assert get_codec("none").probe(data) == STORED
        assert get_codec("none").encode(data, STORED) is data
        for name in ("lzma", "lzma-6", "bz2"):
            codec = get_codec(name)
            assert codec.probe(data) == COSTLY
            assert codec.probe(b"") == COSTLY
            assert codec.decode(codec.encode(data, COSTLY)) == data

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        runs=st.lists(
            st.tuples(
                st.sampled_from(["zeros", "noise", "ramp"]),
                st.integers(min_value=0, max_value=40_000),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            max_size=6,
        ),
        level=st.sampled_from([1, 6, 9]),
    )
    def test_any_mix_of_runs_roundtrips_within_the_stored_bound(
        self, runs, level
    ):
        parts = []
        for kind, length, seed in runs:
            if kind == "zeros":
                parts.append(bytes(length))
            elif kind == "noise":
                parts.append(
                    np.random.default_rng(seed)
                    .integers(0, 256, length, dtype=np.uint8)
                    .tobytes()
                )
            else:
                parts.append(bytes(i & 0xFF for i in range(length)))
        data = b"".join(parts)
        encoded = get_codec(f"zlib-{level}").encode(data)
        assert zlib.decompress(encoded) == data
        assert len(encoded) <= len(zlib.compress(data, 0))

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=PROBE_MIN_BYTES - 1))
    def test_small_inputs_never_exceed_their_stored_form(self, data):
        # Why inputs under the probe floor need no stored fallback: zlib's
        # block chooser already emits a stored block when deflate loses.
        assert len(get_codec("zlib-6").encode(data)) <= len(
            zlib.compress(data, 0)
        )


class TestTransforms:
    def test_identity_is_lossless(self, rng):
        transform = get_transform("identity")
        array = rng.standard_normal(10)
        encoded, meta = transform.encode(array)
        assert np.array_equal(transform.decode(encoded, meta), array)
        assert not transform.lossy

    @pytest.mark.parametrize("name", ["c64", "f16-pair", "int8-block"])
    def test_lossy_transforms_preserve_fidelity(self, name, rng):
        state = haar_state(8, rng)
        transform = get_transform(name)
        encoded, meta = transform.encode(state)
        restored = transform.decode(encoded, meta)
        fidelity = abs(np.vdot(state, restored)) ** 2
        assert fidelity > 0.999
        assert np.isclose(np.linalg.norm(restored), 1.0)

    def test_fidelity_ordering(self, rng):
        """More aggressive quantization loses more fidelity."""
        state = haar_state(10, rng)
        infidelities = {}
        for name in ("c64", "f16-pair", "int8-block"):
            transform = get_transform(name)
            encoded, meta = transform.encode(state)
            restored = transform.decode(encoded, meta)
            infidelities[name] = 1.0 - abs(np.vdot(state, restored)) ** 2
        assert infidelities["c64"] <= infidelities["f16-pair"]
        assert infidelities["f16-pair"] <= infidelities["int8-block"]

    def test_size_ordering(self, rng):
        state = haar_state(10, rng)
        sizes = {}
        for name in ("identity", "c64", "f16-pair", "int8-block"):
            encoded, _ = get_transform(name).encode(state)
            sizes[name] = encoded.nbytes
        assert sizes["c64"] == sizes["identity"] // 2
        assert sizes["f16-pair"] == sizes["identity"] // 4
        assert sizes["int8-block"] == sizes["identity"] // 8

    @pytest.mark.parametrize("name", ["c64", "f16-pair", "int8-block"])
    def test_reject_non_complex(self, name, rng):
        with pytest.raises(SerializationError):
            get_transform(name).encode(rng.standard_normal(8))

    def test_int8_block_scales_per_block(self, rng):
        from repro.core.codecs import Int8BlockTransform

        transform = Int8BlockTransform(block_size=8)
        state = haar_state(5, rng)  # 32 amplitudes -> 64 values -> 8 blocks
        encoded, meta = transform.encode(state)
        assert len(meta["scales"]) == 8
        restored = transform.decode(encoded, meta)
        assert abs(np.vdot(state, restored)) ** 2 > 0.99

    def test_int8_block_size_validation(self):
        from repro.core.codecs import Int8BlockTransform

        with pytest.raises(ConfigError):
            Int8BlockTransform(block_size=1)

    def test_zero_state_handled(self):
        # all-zero imaginary parts, blocks of zeros: scales fall back to 1.
        state = np.zeros(8, dtype=np.complex128)
        state[0] = 1.0
        for name in ("f16-pair", "int8-block"):
            transform = get_transform(name)
            encoded, meta = transform.encode(state)
            restored = transform.decode(encoded, meta)
            assert abs(np.vdot(state, restored)) ** 2 > 0.999

    def test_unknown_transform(self):
        with pytest.raises(ConfigError):
            get_transform("fp4")

    def test_registry_names_consistent(self):
        for name, transform in TRANSFORMS.items():
            assert transform.name == name


class TestDeltaEncoding:
    """``apply_delta`` over delta records built by hand: nothing writes
    deltas any more, but QCKPT chains on disk still hold them."""

    @staticmethod
    def _xor(base, current):
        """An XOR entry taking ``base`` to ``current``: raw bytes XORed."""
        delta = np.bitwise_xor(
            np.ascontiguousarray(base).view(np.uint8).reshape(-1),
            np.ascontiguousarray(current).view(np.uint8).reshape(-1),
        )
        entry = {
            "mode": MODE_XOR,
            "dtype": np.dtype(current.dtype).str,
            "shape": list(current.shape),
        }
        return delta, entry

    @staticmethod
    def _append(base, current):
        """An append entry: only the suffix past ``base`` is stored."""
        entry = {
            "mode": MODE_APPEND,
            "dtype": np.dtype(current.dtype).str,
            "base_size": int(base.size),
        }
        return np.ascontiguousarray(current[base.size :]), entry

    @staticmethod
    def _full(base, current):
        return current, {"mode": MODE_FULL}

    def _delta(self, base, current, how, removed=()):
        tensors, entries = {}, {}
        for name, encode in how.items():
            tensors[name], entries[name] = encode(base.get(name), current[name])
        return tensors, {"entries": entries, "removed": list(removed)}

    def _tensors(self, rng, offset=0.0):
        return {
            "params": rng.standard_normal(16) + offset,
            "moments": rng.standard_normal(16),
            "ints": np.arange(8),
        }

    def test_roundtrip_exact(self, rng):
        base = self._tensors(rng)
        current = {k: v + 1e-3 for k, v in base.items()}
        current["ints"] = base["ints"]  # unchanged tensor
        delta_tensors, meta = self._delta(
            base, current, {name: self._xor for name in current}
        )
        rebuilt = apply_delta(base, delta_tensors, meta)
        assert set(rebuilt) == set(current)
        for name in current:
            assert np.array_equal(rebuilt[name], current[name]), name
            assert rebuilt[name].dtype == current[name].dtype

    def test_shape_change_falls_back_to_full(self, rng):
        base = {"x": np.ones(4)}
        current = {"x": np.zeros(6)}
        delta_tensors, meta = self._delta(base, current, {"x": self._full})
        rebuilt = apply_delta(base, delta_tensors, meta)
        assert rebuilt["x"].shape == (6,)

    def test_new_tensor_stored_full(self, rng):
        base = {}
        current = {"new": rng.standard_normal(3)}
        delta_tensors, meta = self._delta(base, current, {"new": self._full})
        rebuilt = apply_delta(base, delta_tensors, meta)
        assert np.array_equal(rebuilt["new"], current["new"])

    def test_removed_tensor_dropped(self, rng):
        base = {"old": np.ones(2), "keep": np.ones(3)}
        current = {"keep": np.ones(3)}
        delta_tensors, meta = self._delta(
            base, current, {"keep": self._xor}, removed=["old"]
        )
        rebuilt = apply_delta(base, delta_tensors, meta)
        assert set(rebuilt) == {"keep"}

    def test_apply_missing_base_tensor_rejected(self, rng):
        base = {"x": np.zeros(4)}
        delta_tensors, meta = self._delta(
            base, {"x": np.ones(4)}, {"x": self._xor}
        )
        with pytest.raises(SerializationError):
            apply_delta({}, delta_tensors, meta)

    def test_apply_base_shape_mismatch_rejected(self, rng):
        base = {"x": np.zeros(4)}
        delta_tensors, meta = self._delta(
            base, {"x": np.ones(4)}, {"x": self._xor}
        )
        with pytest.raises(SerializationError):
            apply_delta({"x": np.zeros(5)}, delta_tensors, meta)

    def test_malformed_meta_rejected(self):
        with pytest.raises(SerializationError):
            apply_delta({}, {}, {"entries": {"x": {"mode": "zip"}}, "removed": []})
        with pytest.raises(SerializationError):
            apply_delta({}, {}, None)

    def test_append_mode_for_grown_history(self, rng):
        base = {"history": rng.standard_normal(100)}
        current = {"history": np.concatenate([base["history"], [1.5, 2.5]])}
        delta_tensors, meta = self._delta(
            base, current, {"history": self._append}
        )
        assert delta_tensors["history"].size == 2  # only the suffix stored
        rebuilt = apply_delta(base, delta_tensors, meta)
        assert np.array_equal(rebuilt["history"], current["history"])

    def test_append_preserves_dtype(self):
        base = {"steps": np.arange(5, dtype=np.int32)}
        current = {"steps": np.arange(8, dtype=np.int32)}
        delta_tensors, meta = self._delta(
            base, current, {"steps": self._append}
        )
        rebuilt = apply_delta(base, delta_tensors, meta)
        assert rebuilt["steps"].dtype == np.int32
        assert np.array_equal(rebuilt["steps"], current["steps"])

    def test_append_apply_validates_base(self, rng):
        base = {"h": rng.standard_normal(10)}
        delta_tensors, meta = self._delta(
            base, {"h": np.concatenate([base["h"], [1.0]])}, {"h": self._append}
        )
        with pytest.raises(SerializationError):
            apply_delta({"h": np.zeros(9)}, delta_tensors, meta)
        with pytest.raises(SerializationError):
            apply_delta({}, delta_tensors, meta)

    def test_append_apply_validates_suffix_dtype(self, rng):
        base = {"h": rng.standard_normal(10)}
        delta_tensors, meta = self._delta(
            base, {"h": np.concatenate([base["h"], [1.0]])}, {"h": self._append}
        )
        bad = {"h": delta_tensors["h"].astype(np.float32)}
        with pytest.raises(SerializationError):
            apply_delta(base, bad, meta)
