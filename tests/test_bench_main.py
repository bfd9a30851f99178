"""Tests for the EXPERIMENTS.md generator (python -m repro.bench).

The row generators themselves are exercised by ``benchmarks/``; here we pin
the generator's *wiring*: section identities, and that each shape-check
function detects both conforming and violating row sets (so schema drift in
``repro.bench.experiments`` cannot silently turn every check green).
"""

import pytest

from repro.bench.__main__ import (
    _check,
    _fig1_checks,
    _fig5_checks,
    _fig6_checks,
    _sections,
    _tab3_checks,
    _tab5_checks,
    _tab6_checks,
)


class TestSectionWiring:
    def test_identifiers_unique_and_complete(self):
        sections = _sections()
        idents = [s.ident for s in sections]
        assert len(idents) == len(set(idents))
        # 7 figures + 6 tables = the full reconstructed evaluation.
        assert sum(1 for i in idents if i.startswith("Fig")) == 7
        assert sum(1 for i in idents if i.startswith("Tab")) == 6

    def test_every_section_has_expected_shape_text(self):
        for section in _sections():
            assert len(section.expected) > 20
            assert callable(section.run)
            assert callable(section.checks)


class TestCheckPrimitive:
    def test_pass_and_fail_prefixes(self):
        assert _check("x", True).startswith("PASS")
        assert _check("x", False).startswith("FAIL")


class TestCheckFunctions:
    def test_fig1_detects_wrong_scaling(self):
        good = [
            {"n_qubits": 4, "statevector_bytes": 256, "statevector_share": 0.5},
            {"n_qubits": 6, "statevector_bytes": 1024, "statevector_share": 0.995},
        ]
        assert all(c.startswith("PASS") for c in _fig1_checks(good))
        bad = [dict(r, statevector_bytes=100) for r in good]
        assert any(c.startswith("FAIL") for c in _fig1_checks(bad))

    def test_fig5_detects_dedup_regression(self):
        def series(workload, dedup, full):
            return {
                "workload": workload,
                "cum_dedup": dedup,
                "cum_full_mode": full,
            }

        good = [series("classifier", 40, 100), series("vqe+sv", 99, 100)]
        assert all(c.startswith("PASS") for c in _fig5_checks(good))
        bad = [series("classifier", 90, 100), series("vqe+sv", 99, 100)]
        assert any(c.startswith("FAIL") for c in _fig5_checks(bad))

    def test_fig6_detects_restore_ordering_regression(self):
        def row(n, block_kib, restore_s):
            return {
                "n_qubits": n,
                "block_KiB": block_kib,
                "restore_s": restore_s,
                "stored_bytes": 100_000,
                "params_only_bytes": 3_000,
            }

        good = [row(8, 64, 1.0), row(8, 4, 1.1), row(14, 64, 2.0), row(14, 4, 3.0)]
        assert all(c.startswith("PASS") for c in _fig6_checks(good))
        bad = [row(8, 64, 1.0), row(8, 4, 1.1), row(14, 64, 2.0), row(14, 4, 1.5)]
        assert [c.startswith("FAIL") for c in _fig6_checks(bad)] == [
            False,
            True,
            False,
        ]

    def test_tab3_requires_exact_zero(self):
        good = [{"max_param_delta": 0.0, "bitwise_exact": True}]
        assert _tab3_checks(good)[0].startswith("PASS")
        bad = [{"max_param_delta": 1e-16, "bitwise_exact": True}]
        assert _tab3_checks(bad)[0].startswith("FAIL")

    def test_tab5_detects_mps_regression(self):
        def row(family, transform, bytes_, fidelity, ratio):
            return {
                "family": family,
                "transform": transform,
                "stored_bytes": bytes_,
                "fidelity": fidelity,
                "infidelity": max(0.0, 1 - fidelity),
                "ratio": ratio,
            }

        good = [
            row("shallow", "mps-8", 100, 1.0, 10.0),
            row("shallow", "f16-pair", 400, 1.0, 4.0),
            row("haar", "mps-8", 100, 0.2, 4.0),
            row("haar", "mps-32", 900, 0.9, 0.6),
        ]
        assert all(c.startswith("PASS") for c in _tab5_checks(good))
        bad = [dict(r) for r in good]
        bad[0]["stored_bytes"] = 500  # MPS no longer smaller
        assert any(c.startswith("FAIL") for c in _tab5_checks(bad))

    def test_tab6_detects_replication_cost_change(self):
        good = [
            {"config": "datacenter", "write_s": 1.0},
            {"config": "replicated-3x", "write_s": 1.0},
            {"config": "tiered/write-through", "write_s": 1.0},
            {"config": "tiered/write-back", "write_s": 0.1},
        ]
        assert all(c.startswith("PASS") for c in _tab6_checks(good))
        bad = [dict(r) for r in good]
        bad[1]["write_s"] = 3.0  # serialized replication
        assert any(c.startswith("FAIL") for c in _tab6_checks(bad))


class TestQuickSweepShapes:
    """The quick sweeps must produce rows the check functions accept."""

    @pytest.mark.parametrize(
        "ident", ["Fig. 1", "Tab. 1", "Tab. 4", "Tab. 6"]
    )
    def test_cheap_sections_pass_quick(self, ident):
        section = next(s for s in _sections() if s.ident == ident)
        rows = section.run(True)
        checks = section.checks(rows)
        assert checks and all(c.startswith("PASS") for c in checks)


class TestBenchTrendGate:
    """``tools/bench_trend.py`` warns on seconds but fails on a paired ratio
    above the ceiling its benchmark wrote next to it (``X`` / ``X_max``)."""

    @staticmethod
    def _run(tmp_path, base, fresh):
        import importlib.util
        import json
        from pathlib import Path

        tool = Path(__file__).resolve().parents[1] / "tools" / "bench_trend.py"
        spec = importlib.util.spec_from_file_location("bench_trend", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        paths = []
        for name, doc in (("base", base), ("fresh", fresh)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return module.main(paths)

    @staticmethod
    def _doc(ratio, seconds=0.002):
        return {
            "cpu_count": 2,
            "encode_bypass": {
                "dense": {
                    "encode_seconds_ratio": ratio,
                    "encode_seconds_ratio_max": 0.15,
                    "adaptive_encode_seconds": seconds,
                }
            },
        }

    def test_ratio_above_its_ceiling_fails_the_run(self, tmp_path, capsys):
        assert self._run(tmp_path, self._doc(0.07), self._doc(0.90)) == 1
        assert "ABOVE THEIR CEILING" in capsys.readouterr().out

    def test_a_rise_under_the_ceiling_only_warns(self, tmp_path, capsys):
        # +86% against a baseline from another machine, still healthy by
        # the benchmark's own assert: listed, not failed.
        assert self._run(tmp_path, self._doc(0.07), self._doc(0.13)) == 0
        assert "encode_seconds_ratio" in capsys.readouterr().out
        assert self._run(tmp_path, self._doc(0.07), self._doc(0.01)) == 0

    def test_seconds_only_warn(self, tmp_path, capsys):
        slow = self._doc(0.07, seconds=0.2)
        assert self._run(tmp_path, self._doc(0.07), slow) == 0
        assert "warn-only" in capsys.readouterr().out

    def test_the_committed_generation_carries_its_ceilings(self):
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_substrate.json"
        dense = json.loads(path.read_text())["encode_bypass"]["dense"]
        assert dense["encode_seconds_ratio"] <= dense["encode_seconds_ratio_max"]
