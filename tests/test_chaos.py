"""Crash-point registry + the systematic kill-reopen-assert sweep.

The sweep itself is the test: every registered crash point must trigger in
its scenario and leave the store restorable. Around it: registry mechanics
(arming, n-th-hit, BaseException semantics) and the coverage closure — a
point with no scenario fails loudly instead of silently shrinking coverage.
"""

from __future__ import annotations

import pytest

from repro.faults import chaos
from repro.faults.chaos import CrashPointResult, run_crash_point, run_sweep
from repro.faults.crashpoints import (
    REGISTRY,
    CrashPointTriggered,
    crash_point,
    register_crash_point,
)

# Importing repro.faults.chaos imports every instrumented module, so the
# registry is fully populated before any test below reads it.
EXPECTED_MIN_POINTS = 10


class TestRegistry:
    def test_registered_points_cover_all_write_surfaces(self):
        names = REGISTRY.names()
        assert len(names) >= EXPECTED_MIN_POINTS
        prefixes = {name.split(".")[0] for name in names}
        assert {
            "chunkstore",
            "placement",
            "daemon",
            "scrub",
            "metadb",
        } <= prefixes

    def test_disarmed_hit_is_noop(self):
        crash_point("chunkstore.chunk.before-write")  # must not raise

    def test_armed_hit_raises_and_self_disarms(self):
        point = "chunkstore.chunk.before-write"
        REGISTRY.arm(point)
        with pytest.raises(CrashPointTriggered) as info:
            crash_point(point)
        assert info.value.point == point
        crash_point(point)  # second hit: already disarmed

    def test_nth_hit_arming(self):
        point = "chunkstore.chunk.before-write"
        with REGISTRY.armed(point, on_hit=3):
            crash_point(point)
            crash_point(point)
            with pytest.raises(CrashPointTriggered):
                crash_point(point)

    def test_armed_context_disarms_on_exit(self):
        point = "chunkstore.chunk.before-write"
        with REGISTRY.armed(point):
            pass
        crash_point(point)

    def test_arming_unknown_point_rejected(self):
        with pytest.raises(KeyError):
            REGISTRY.arm("no.such.point")

    def test_triggered_is_baseexception_not_exception(self):
        # An `except Exception` recovery handler must never swallow the
        # simulated kill — that is the whole point of the harness.
        assert issubclass(CrashPointTriggered, BaseException)
        assert not issubclass(CrashPointTriggered, Exception)

    def test_register_is_idempotent(self):
        before = REGISTRY.describe()
        name = register_crash_point(
            "chunkstore.chunk.before-write", "different text ignored"
        )
        assert REGISTRY.describe() == before
        assert name == "chunkstore.chunk.before-write"


class TestSweep:
    def test_unknown_point_reports_missing_scenario(self):
        register_crash_point("orphaned.test.point", "no scenario on purpose")
        try:
            result = run_crash_point("orphaned.test.point")
            assert not result.ok
            assert any("no chaos scenario" in v for v in result.violations)
        finally:
            with REGISTRY._lock:
                REGISTRY._points.pop("orphaned.test.point", None)

    @pytest.mark.parametrize("point", sorted(REGISTRY.describe()))
    def test_every_point_survives_kill_and_reopen(self, point):
        result = run_crash_point(point)
        assert result.triggered, f"{point} never triggered in its scenario"
        assert result.violations == []

    def test_full_sweep_is_green(self):
        results = run_sweep()
        assert len(results) >= EXPECTED_MIN_POINTS
        assert all(isinstance(r, CrashPointResult) for r in results)
        failing = [r.point for r in results if not r.ok]
        assert failing == []


class TestAbortedSaveLeavesNoPackerThread:
    """A save killed at any chunk-store barrier, whichever encode path the
    dying block was on (stored inline, deflated inline, compress-ahead on
    the packer thread), leaves no ``qckpt-pack`` thread behind and a store
    that reopens to the last committed checkpoint."""

    @staticmethod
    def _snapshot(step):
        import numpy as np

        from repro.core.snapshot import TrainingSnapshot

        rng = np.random.default_rng(step)
        ramp = np.arange(4096, dtype=np.float64) + step  # deflates: packer
        return TrainingSnapshot(
            step=step,
            params=rng.normal(size=48),  # under the probe floor: inline
            optimizer_state={"lr": 0.01},
            rng_state={"seed": step},
            model_fingerprint="chaos-model",
            loss_history=ramp,
            statevector=rng.normal(size=2048) + 1j * rng.normal(size=2048),  # stored
        )

    @pytest.mark.parametrize("on_hit", [1, 2, 5, 9])
    @pytest.mark.parametrize(
        "point",
        [p for p in sorted(REGISTRY.describe()) if p.startswith("chunkstore.")],
    )
    def test_kill_reopen_bitwise_and_no_thread(self, point, on_hit):
        import threading

        from repro.service.chunkstore import ChunkStore
        from repro.storage.memory import InMemoryBackend

        backend = InMemoryBackend()
        store = ChunkStore(backend, block_bytes=8192)
        first, second = self._snapshot(1), self._snapshot(2)
        store.save_snapshot("chaos", first)
        assert store.metrics.counter("save.pipeline.speculated").value >= 4
        assert store.metrics.counter("save.encode.stored_blocks").value >= 4
        hit = on_hit if ".chunk." in point else 1  # one manifest per save
        with pytest.raises(CrashPointTriggered):
            with REGISTRY.armed(point, on_hit=hit):
                store.save_snapshot("chaos", second)
        assert not [
            t.name for t in threading.enumerate()
            if t.name.startswith("qckpt-pack")
        ]
        expected = second if point.endswith("manifest.after-write") else first
        _, restored, _ = ChunkStore(backend, block_bytes=8192).latest_valid(
            "chaos"
        )
        assert restored == expected


class TestChaosCli:
    def test_list_mode(self, capsys):
        assert chaos.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "chunkstore.manifest.before-write" in out

    def test_single_point_json(self, capsys):
        assert chaos.main(["--points", "placement.record.after-write", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"triggered": true' in out
        assert '"violations": []' in out

    def test_exit_code_on_violation(self, capsys):
        register_crash_point("orphaned.cli.point", "no scenario on purpose")
        try:
            assert chaos.main(["--points", "orphaned.cli.point"]) == 1
            assert "FAIL" in capsys.readouterr().out
        finally:
            with REGISTRY._lock:
                REGISTRY._points.pop("orphaned.cli.point", None)
