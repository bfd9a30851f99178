"""Tests for the benchmark workload generators (repro.bench.workloads)."""

import numpy as np
import pytest

from repro.bench.workloads import (
    footprint_breakdown,
    hea_param_count,
    sparse_excitation_state,
    synthetic_snapshot,
)
from repro.mps.entanglement import schmidt_rank


class TestSparseExcitationState:
    def test_normalized(self, rng):
        state = sparse_excitation_state(8, rng)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_support_is_low_excitation_subspace(self, rng):
        n = 7
        state = sparse_excitation_state(n, rng)
        support = np.nonzero(state)[0]
        assert len(support) == n + 1
        for index in support:
            assert bin(int(index)).count("1") <= 1

    def test_mostly_exact_zeros(self, rng):
        state = sparse_excitation_state(10, rng)
        assert np.count_nonzero(state == 0) == 2**10 - 11

    def test_low_schmidt_rank(self, rng):
        # One excitation shared across a cut gives Schmidt rank <= 2.
        state = sparse_excitation_state(6, rng)
        assert schmidt_rank(state, 3) <= 2

    def test_deterministic_for_seed(self):
        a = sparse_excitation_state(6, np.random.default_rng(4))
        b = sparse_excitation_state(6, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)


class TestSyntheticSnapshot:
    @pytest.mark.parametrize("kind", ["haar", "ansatz", "sparse"])
    def test_statevector_kinds_are_normalized(self, kind):
        snapshot = synthetic_snapshot(8, statevector_kind=kind)
        assert snapshot.statevector is not None
        assert np.linalg.norm(snapshot.statevector) == pytest.approx(
            1.0, abs=1e-9
        )
        assert snapshot.statevector.shape == (256,)

    def test_none_kind_omits_statevector(self):
        snapshot = synthetic_snapshot(8, statevector_kind="none")
        assert snapshot.statevector is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synthetic_snapshot(8, statevector_kind="ghz")

    def test_deterministic_for_seed(self):
        a = synthetic_snapshot(6, seed=9)
        b = synthetic_snapshot(6, seed=9)
        assert a == b

    def test_snapshot_roundtrips_through_qckpt(self):
        from repro.core.serialize import pack_snapshot, unpack_snapshot

        snapshot = synthetic_snapshot(6, statevector_kind="sparse")
        assert unpack_snapshot(pack_snapshot(snapshot)) == snapshot


class TestFootprint:
    def test_breakdown_consistency(self):
        row = footprint_breakdown(10)
        assert row["total_bytes"] == (
            row["params_bytes"] + row["optimizer_bytes"] + row["statevector_bytes"]
        )
        assert row["statevector_bytes"] == 2**10 * 16

    def test_param_count_matches_template(self):
        assert footprint_breakdown(6)["n_params"] == hea_param_count(6)

