#!/usr/bin/env python3
"""The end-to-end benchmark: train -> checkpoint -> crash -> restore -> continue.

    python3 benchmarks/e2e/run.py --workload vqe12_crashloop --seed 7 \\
        --seconds 10 --trace 0

runs one workload through the public APIs of ``repro.ml``, ``repro.service``,
``repro.core`` and ``repro.storage``, prints every metric by name with its
unit, checks the outputs (bitwise restores, durability after every crash)
and exits non-zero if any check fails.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` all four run, one after the other.

This process only orchestrates.  Each measurement runs in a fresh child
process (so ``peak_rss_mb`` and ``setup_s`` are that workload's alone), and
set-up is repeated in further children so ``setup_s`` is a median.  Everything
the benchmark writes stays under ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Set-ups per run (``setup_s`` is their median): at most this many, and no
#: more once they have taken this long together (but never fewer than three).
SETUP_SAMPLES = 9
SETUP_BUDGET_SECONDS = 6.0
CHILD_TIMEOUT_SECONDS = 170
SMOKE_SECONDS = 0.3

# Bytecode goes under out/ too, whatever the environment says about writing
# it: src/ holds tracked .pyc files that must stay as they are, and every
# child after the first then starts from the same warm cache.
sys.pycache_prefix = str(OUT / "pycache")
sys.dont_write_bytecode = False
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed loop (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", dest="json_out", help="write the full result here")
    parser.add_argument(
        "--engine", choices=("compiled", "numpy"), default="compiled",
        help="engine tier the run must resolve to (it refuses to start otherwise)",
    )
    parser.add_argument(
        "--corrupt-restore", action="store_true",
        help="self-test: flip one bit of every restored parameter tensor; "
        "the correctness gate must then fail the run",
    )
    # Child-process plumbing.
    parser.add_argument("--child", choices=("measure", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--untraced-goodput", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Child: one set-up, and (for "measure") one timed loop
# ---------------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    from repro.obs import trace
    from repro.obs.profile import build_trees, folded_stacks
    from repro.quantum import engines, kernels

    import report
    import wl_crashloop
    import wl_fleet
    import wl_restore_mix
    from harness import drop_kernel_caches
    from probes import Recorder

    builders = {
        "vqe12_crashloop": wl_crashloop.build,
        "vqe16_bigstate": wl_crashloop.build,
        "restore_mix": wl_restore_mix.build,
        "fleet8_daemon": wl_fleet.build,
    }
    tier = engines.select_engine("auto")
    if tier != args.engine:
        print(
            f"engine tier resolved to {tier!r}, but --engine is {args.engine!r}: "
            f"{engines.engine_info()['compiled_reason']}",
            file=sys.stderr,
        )
        return 3

    rec = Recorder(tracing=bool(args.trace))
    previous_sink = rec.install_sink()
    workload = builders[args.workload](
        args.workload, args.scale, args.seed, args.workdir, rec,
        args.corrupt_restore,
    )
    result = {"workload": args.workload}
    try:
        workload.setup()
        result["setup_s"] = time.time() - args.t0
        if args.child == "measure":
            rec.forget_spans()  # set-up's spans and cache lookups are not the run's
            kernels.clear_caches()
            workload.measure(args.seconds)
            res = workload.results()
            drop_kernel_caches(rec)
            hits, misses = rec.counts["kernel_cache.hits"], rec.counts["kernel_cache.misses"]
            res["kernel_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    finally:
        workload.close()
        if rec.tracing:
            trace.set_trace_sink(previous_sink)
    if args.child == "measure":
        result.update(
            end_to_end=report.end_to_end(rec, res, result["setup_s"]),
            goodput=res["ops"] / res["loop_seconds"],
            loop_wall_s=res["loop_wall"],
            yardstick=rec.yardstick_summary(),
            ops=res["ops"],
            timings=report.timing_table(rec),
            info=res["info"],
            attempted=rec.attempted,
            failed=rec.failed,
            failures=rec.failures,
        )
        if rec.tracing:
            result["per_layer"] = report.per_layer(rec, res, args.untraced_goodput)
            records = rec.span_records()
            OUT.mkdir(parents=True, exist_ok=True)
            stem = OUT / f"trace-{args.workload}"
            with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            with open(f"{stem}.folded", "w", encoding="utf-8") as handle:
                handle.write("\n".join(folded_stacks(build_trees(records))) + "\n")
            result["trace_files"] = [f"{stem}.spans.jsonl", f"{stem}.folded"]
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# ---------------------------------------------------------------------------
# Parent: orchestration, printing, the result line
# ---------------------------------------------------------------------------


def environment(args: argparse.Namespace) -> dict:
    import numpy

    from harness import STORE_POLICY
    from repro.quantum import engines

    return {
        "engine_tier": engines.active_engine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "flush_policy": STORE_POLICY,
        "scale": args.scale,
    }


#: Children alive right now; a terminated parent takes them along.
_CHILDREN: list = []


def _terminated(signum, frame) -> None:
    for child in _CHILDREN:
        child.kill()
    sys.exit(128 + signum)  # unwinds through the finally blocks


def spawn(args, mode: str, workload: str, seconds: float, trace: int,
          workdir: Path, untraced_goodput: float = 0.0) -> dict:
    """Run one child to its end; returns its result file's content."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", mode, "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--scale", args.scale, "--engine", args.engine,
        "--workdir", str(workdir), "--result", str(result_path),
        "--untraced-goodput", repr(untraced_goodput), "--t0", repr(time.time()),
    ]
    if args.corrupt_restore:
        command.append("--corrupt-restore")
    # A fixed hash seed: dict and set layouts, and so the interpreter's
    # speed, then repeat from one child to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(command, env=env, stdout=sys.stderr)
    _CHILDREN.append(child)
    try:
        returncode = child.wait(timeout=CHILD_TIMEOUT_SECONDS)
    finally:
        child.kill()  # no-op once it has ended
        child.wait()
        _CHILDREN.remove(child)
    if returncode != 0:
        raise RuntimeError(f"{mode} child of {workload} exited {returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(args, spec: dict, workload: str, seconds: float, work: Path) -> dict:
    measured = spawn(args, "measure", workload, seconds, 0, work / "measure")
    setups = [measured["setup_s"]]
    # A traced run reports no set-up time: one sample (the child's) will do.
    while args.scale != "smoke" and not args.trace and len(setups) < SETUP_SAMPLES and (
        len(setups) < 3 or sum(setups) < SETUP_BUDGET_SECONDS
    ):
        child = spawn(args, "setup", workload, seconds, 0, work / f"setup{len(setups)}")
        setups.append(child["setup_s"])
    measured["setup_samples_s"] = setups
    measured["end_to_end"]["setup_s"] = statistics.median(setups)
    if args.trace:
        traced = spawn(
            args, "measure", workload, seconds, 1, work / "traced",
            untraced_goodput=measured["goodput"],
        )
        measured["per_layer"] = traced["per_layer"]
        measured["traced"] = {
            key: traced[key]
            for key in ("timings", "info", "attempted", "failed", "failures",
                        "trace_files", "goodput")
        }
        measured["attempted"] += traced["attempted"]
        measured["failed"] += traced["failed"]
        measured["failures"] += traced["failures"]
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = schema_problems(declared, measured["end_to_end"])
    if args.trace:
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        problems += schema_problems(layers, measured["per_layer"])
    measured["schema_problems"] = problems
    measured["correct"] = measured["failed"] == 0 and not problems
    return measured


def schema_problems(declared: dict, emitted: dict) -> list:
    """The emitted names must be exactly the declared ones, all numbers."""
    problems = [f"missing metric {name}" for name in declared if name not in emitted]
    problems += [f"undeclared metric {name}" for name in emitted if name not in declared]
    problems += [
        f"metric {name} is not a finite number: {value!r}"
        for name, value in emitted.items()
        if not isinstance(value, (int, float)) or not math.isfinite(value)
    ]
    return problems


def print_metrics(declared: list, values: dict, width: int) -> None:
    """One line per declared metric; one that was not emitted, or is not a
    number, is listed among the schema problems below instead."""
    for metric in declared:
        value = values.get(metric["name"])
        if isinstance(value, (int, float)):
            print(f"   {metric['name']:<{width}} {value:>14.4f} {metric['unit']}")


def print_report(spec: dict, workload: str, result: dict, env: dict, trace: int) -> None:
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload]
    print(f"== {workload}  ({why})")
    print(
        f"   engine={env['engine_tier']} cpu_count={env['cpu_count']} "
        f"python={env['python']} numpy={env['numpy']} scale={env['scale']} "
        f"flush={json.dumps(env['flush_policy'], sort_keys=True)}"
    )
    print(f"   info: {json.dumps(result['info'], sort_keys=True)}")
    print(
        f"   yardstick: {json.dumps(result['yardstick'], sort_keys=True)} "
        f"loop_wall_s={result['loop_wall_s']:.3f}"
    )
    print("-- end to end (tracing off; times on the yardstick clock)")
    print_metrics(spec["end_to_end"], result["end_to_end"], 28)
    print(f"   setup samples: {[round(s, 4) for s in result['setup_samples_s']]} s")
    print(
        "-- timings (tracing off): median, and the highest percentile with "
        ">=10 samples beyond it"
    )
    for name, row in result["timings"].items():
        print(
            f"   {name:<40} n={row['n']:<6} p50={row['p50_ms']:>10.3f} ms  "
            f"p{row['tail_percentile']:g}={row['tail_ms']:>10.3f} ms"
        )
    if trace:
        print("-- per layer (traced run)")
        print_metrics(spec["per_layer"], result["per_layer"], 44)
        print(f"   trace files: {result['traced']['trace_files']}")
    print(
        f"-- checks: attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    )
    for failure in result["failures"] + result["schema_problems"]:
        print(f"   FAILED: {failure}")


def result_line(spec: dict, result: dict, trace: int) -> dict:
    section, values = (
        ("per_layer", result.get("per_layer", {})) if trace
        else ("end_to_end", result["end_to_end"])
    )
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
            for m in spec[section]
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(
            f"{ROOT} holds no src/repro package (or no BENCHMARK.json): "
            "nothing to measure",
            file=sys.stderr,
        )
        return 2
    if args.child:
        return child_main(args)
    signal.signal(signal.SIGTERM, _terminated)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.scale == "smoke" else float(spec["run_seconds"])

    # Everything a run writes stays in the checkout: the engine's compile
    # cache, temporary files, stores, traces.
    fresh_checkout = not (OUT / "pycache").is_dir()
    OUT.mkdir(parents=True, exist_ok=True)
    os.environ.setdefault("QCKPT_ENGINE_CACHE", str(OUT / "engine-cache"))
    os.environ["QCKPT_ENGINE"] = "auto"
    os.environ.pop("QCKPT_SHARD_WORKERS", None)
    os.environ.pop("QCKPT_METADB", None)
    # Unmeasured prelude: build (or load) the compiled tier now, so every
    # child's setup_s is a warm-compile-cache number.
    from repro.quantum import engines

    tier = engines.select_engine("auto")
    if tier != args.engine:
        print(
            f"engine tier resolved to {tier!r}, but --engine is {args.engine!r} "
            f"({engines.engine_info()['compiled_reason']}); refusing to start",
            file=sys.stderr,
        )
        return 3
    env = environment(args)

    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    os.environ["TMPDIR"] = str(work)
    results = {}
    try:
        if fresh_checkout and args.scale != "smoke":
            # Still the prelude: every workload once at smoke size, so that
            # no measuring child compiles bytecode (of repro, numpy or the
            # standard library: all of it lands under out/).  A child that
            # did held 5 MiB more at its peak than any later one.
            smoke = argparse.Namespace(
                **{**vars(args), "scale": "smoke", "corrupt_restore": False}
            )
            for workload in names:
                spawn(smoke, "measure", workload, SMOKE_SECONDS, 0, work / "warm" / workload)
        for workload in [args.workload] if args.workload else names:
            results[workload] = run_workload(
                args, spec, workload, seconds, work / workload
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for workload, result in results.items():
        print_report(spec, workload, result, env, args.trace)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(
                {"env": env, "seed": args.seed, "seconds": seconds,
                 "trace": args.trace, "workloads": results},
                handle, indent=1, sort_keys=True,
            )
    lines = {w: result_line(spec, r, args.trace) for w, r in results.items()}
    sys.stdout.flush()
    print(json.dumps(lines[args.workload] if args.workload else lines))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
