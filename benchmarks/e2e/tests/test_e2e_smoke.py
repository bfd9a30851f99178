"""Schema and smoke test of the end-to-end benchmark (``--scale smoke``).

Runs the real command in subprocesses, as the driver does: all four
workloads untraced, one traced, one with a deliberately corrupted restore,
and once from a directory that holds the benchmark but no program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

engines = pytest.importorskip("repro.quantum.engines")
pytestmark = pytest.mark.skipif(
    not engines.available_tiers()["compiled"],
    reason="the benchmark refuses to run without the compiled engine tier",
)

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
RUN = E2E / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(*args, cwd=ROOT, script=RUN):
    completed = subprocess.run(
        [sys.executable, str(script), "--scale", "smoke", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    lines = completed.stdout.strip().splitlines()
    return completed, lines


def check_result_line(line: dict, declared: list) -> None:
    assert set(line) == RESULT_KEYS
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    assert set(line["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in line["metrics"].items():
        assert NAME.match(name), name
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float)), name


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )
    # The driver's contract: a bound is a share of the parent's median, at
    # most a quarter.  (How each was derived from the acceptance sets'
    # spreads is in the README, under Bounds.)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def all_four(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "all.json"
    completed, lines = run_benchmark("--json", str(out))
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(lines[-1]), json.loads(out.read_text(encoding="utf-8"))


def test_every_workload_emits_exactly_the_declared_end_to_end_metrics(all_four):
    last_line, _ = all_four
    assert set(last_line) == {w["name"] for w in SPEC["workloads"]}
    for workload, line in last_line.items():
        check_result_line(line, SPEC["end_to_end"])
        assert line["correct"] is True and line["failed"] == 0, workload
        for name, metric in line["metrics"].items():
            assert metric["value"] > 0, (workload, name)  # never 0 end to end


def test_result_file_records_environment_and_sample_counts(all_four):
    _, document = all_four
    env = document["env"]
    assert env["scale"] == "smoke"
    assert env["engine_tier"] == "compiled" and env["cpu_count"] >= 1
    assert env["flush_policy"]["fsync"] is True
    for result in document["workloads"].values():
        assert result["timings"], "timings missing"
        for row in result["timings"].values():
            assert row["n"] >= 1 and row["tail_percentile"] >= 50.0
        assert result["yardstick"]["runs"] >= 1


def test_traced_run_emits_every_layer_and_accounts_for_the_time():
    completed, lines = run_benchmark(
        "--workload", "vqe16_bigstate", "--trace", "1"
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    line = json.loads(lines[-1])
    check_result_line(line, SPEC["per_layer"])
    value = {name: m["value"] for name, m in line["metrics"].items()}
    # Restore stages and the training thread's named spans account for at
    # least nine tenths of the time they decompose.  So do save stages at
    # full scale (0.91-0.95 on every workload, see the README's per-layer
    # table); a smoke run makes three to seven 256 KiB saves of about 20 ms,
    # of which some 2 ms (payload split, the packer thread's start and
    # join) belong to no stage of the program's, so its floor is lower.
    assert value["obs.save_stage_coverage"] >= 0.8
    assert value["obs.restore_stage_coverage"] >= 0.9
    assert value["obs.named_span_coverage"] >= 0.9
    assert value["obs.trace_overhead_ratio"] > 0
    assert value["service.pool.task_errors"] == 0
    assert value["storage.backend.errors"] == 0
    stem = E2E / "out" / "trace-vqe16_bigstate"
    spans = [json.loads(l) for l in open(f"{stem}.spans.jsonl", encoding="utf-8")]
    assert {"name", "start", "duration_ms", "span", "parent", "trace"} <= set(spans[0])
    folded = open(f"{stem}.folded", encoding="utf-8").read().splitlines()
    assert folded and all(re.match(r"^\S.* \d+$", row) for row in folded)


def test_corrupted_restore_fails_the_run():
    completed, lines = run_benchmark(
        "--workload", "restore_mix", "--corrupt-restore"
    )
    assert completed.returncode == 1
    line = json.loads(lines[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    script = tmp_path / "benchmarks" / "e2e" / "run.py"
    completed, lines = run_benchmark(
        "--workload", "restore_mix", cwd=tmp_path, script=script
    )
    assert completed.returncode not in (0, None)
    assert not lines or not lines[-1].startswith("{")
