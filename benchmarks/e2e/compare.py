#!/usr/bin/env python3
"""Compare two sets of end-to-end results by the small-sandbox rule.

    python3 benchmarks/e2e/compare.py --parent out/parent --change out/change
    python3 benchmarks/e2e/compare.py --self out/setA out/setB

Each directory holds result files written by ``run.py --json`` — at least ten
per workload and side, the same seeds on both sides, produced by alternating
which side runs first.  One row is printed per workload x end-to-end metric:
each side's median and quartiles, the change's median over the parent's (the
base is printed beside every ratio), the paired wins, and a verdict:

* ``improved``   the change wins at least 9/10 of the seed pairs (ties count
                 for neither) and the medians differ by more than the distance
                 between the parent's own quartiles;
* ``regressed``  the change's median is worse than the parent's by more than
                 the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` neither, and a side's quartile distance over its median is
                 wider than the bound, so "no change" cannot be told;
* ``unchanged``  neither, and both spreads are within the bound.

``--self`` compares two sets from one commit: every row must be ``unchanged``
(the exit code says so), which is the benchmark's own acceptance test.

Files are refused when they are smoke-scale, report a failed check, or
disagree on engine tier, ``cpu_count``, flush policy, run length or seeds.

Every time in a result file is read against the yardstick the measuring
thread runs after each operation (``probes.Yardstick``).  The yardstick's own
median reading is printed per workload and side: a change that slows the
yardstick (by contending for the core or the caches it runs on) would have
its own slowdown under-reported by that much, and shows here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_RUNS = 10
#: Fields of a result file's ``env`` that must agree across every file.
ENV_KEYS = ("engine_tier", "cpu_count", "flush_policy", "scale")


class Refused(Exception):
    """The two sets cannot be compared."""


def load_side(directory: Path) -> Tuple[Dict[str, Dict[int, dict]], dict]:
    """``{workload: {seed: result}}`` and the shared environment of a set."""
    runs: Dict[str, Dict[int, dict]] = {}
    shared = None
    files = sorted(directory.glob("*.json"))
    if not files:
        raise Refused(f"{directory}: no result files")
    for path in files:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        env = dict({key: data["env"][key] for key in ENV_KEYS},
                   seconds=data["seconds"])
        if env["scale"] != "full":
            raise Refused(f"{path}: a {env['scale']}-scale run is not a measurement")
        if shared is None:
            shared = env
        elif env != shared:
            raise Refused(f"{path}: environment {env} differs from {shared}")
        for workload, result in data["workloads"].items():
            if result["failed"] or not result["correct"]:
                raise Refused(f"{path}: {workload} failed {result['failed']} checks")
            if data["seed"] in runs.setdefault(workload, {}):
                raise Refused(f"{path}: second run of {workload} seed {data['seed']}")
            runs[workload][data["seed"]] = result
    return runs, shared


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def judge(parent: List[float], change: List[float], better: str,
          bound: float) -> Tuple[str, int, int]:
    """Verdict, the change's paired wins, and the pairs that were not ties."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    decided = sum(1 for a, b in zip(parent, change) if a != b)
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    gain = sign * (change_median - parent_median)
    if decided and wins >= 0.9 * len(parent) and gain > (q3 - q1):
        return "improved", wins, decided
    if -gain > bound * abs(parent_median):
        return "regressed", wins, decided
    if max(spread(parent), spread(change)) > bound:
        return "unresolved", wins, decided
    return "unchanged", wins, decided


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> List[dict]:
    parent_runs, parent_env = load_side(parent_dir)
    change_runs, change_env = load_side(change_dir)
    if parent_env != change_env:
        raise Refused(f"environments differ: {parent_env} vs {change_env}")
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = parent_runs.get(workload, {}), change_runs.get(workload, {})
        if sorted(a) != sorted(b):
            raise Refused(f"{workload}: seeds differ: {sorted(a)} vs {sorted(b)}")
        if len(a) < MIN_RUNS:
            raise Refused(f"{workload}: {len(a)} runs per side, need {MIN_RUNS}")
        seeds = sorted(a)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [a[seed]["end_to_end"][name] for seed in seeds]
            change = [b[seed]["end_to_end"][name] for seed in seeds]
            verdict, wins, decided = judge(
                parent, change, metric["better"], metric["bound"]
            )
            rows.append(
                {
                    "workload": workload, "metric": name, "unit": metric["unit"],
                    "yardstick_ms": tuple(
                        statistics.median(
                            side[seed]["yardstick"]["p50_ms"] for seed in seeds
                        )
                        for side in (a, b)
                    ),
                    "better": metric["better"], "bound": metric["bound"],
                    "parent": quartiles(parent), "change": quartiles(change),
                    "parent_spread": spread(parent), "change_spread": spread(change),
                    "wins": wins, "decided": decided, "pairs": len(seeds),
                    "verdict": verdict,
                }
            )
    return rows


def print_rows(rows: List[dict], labels: Tuple[str, str]) -> None:
    first, second = labels
    print(
        f"{'workload':<16} {'metric':<26} {'unit':<6} "
        f"{first + ' q1/median/q3':<34} {second + ' q1/median/q3':<34} "
        f"{'ratio (base)':<26} {'wins':<8} {'spreads':<13} {'bound':<6} verdict"
    )
    workload = None
    for row in rows:
        if row["workload"] != workload:
            # Times are read against the yardstick; had the change made the
            # yardstick itself slower (more contention for the thread that
            # runs it), its other rows would flatter it by that much.
            workload = row["workload"]
            base, other = row["yardstick_ms"]
            print(
                f"{workload:<16} yardstick run, median of medians: "
                f"{first} {base:.4f} ms, {second} {other:.4f} ms "
                f"({other / base:.3f} of {base:.4f})"
            )
        p, c = row["parent"], row["change"]
        ratio = c[1] / p[1] if p[1] else float("nan")
        print(
            f"{row['workload']:<16} {row['metric']:<26} {row['unit']:<6} "
            f"{p[0]:>10.4f}/{p[1]:>10.4f}/{p[2]:>10.4f}   "
            f"{c[0]:>10.4f}/{c[1]:>10.4f}/{c[2]:>10.4f}   "
            f"{ratio:>7.4f} (of {p[1]:>10.4f})   "
            f"{row['wins']:>2}/{row['pairs']:<4}  "
            f"{row['parent_spread']:.3f}/{row['change_spread']:.3f}   "
            f"{row['bound']:<6} {row['verdict']} ({row['better']} is better)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="results of the parent commit")
    parser.add_argument("--change", type=Path, help="results of the change")
    parser.add_argument(
        "--self", dest="self_sets", nargs=2, type=Path, metavar=("A", "B"),
        help="two result sets of one commit; every row must be unchanged",
    )
    args = parser.parse_args(argv)
    if bool(args.self_sets) == bool(args.parent and args.change):
        parser.error("give either --parent and --change, or --self A B")
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        if args.self_sets:
            rows = compare(args.self_sets[0], args.self_sets[1], spec)
            print_rows(rows, ("A", "B"))
            moved = [r for r in rows if r["verdict"] != "unchanged"]
            print(f"{len(rows) - len(moved)} of {len(rows)} rows unchanged")
            return 1 if moved else 0
        rows = compare(args.parent, args.change, spec)
    except Refused as refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2
    print_rows(rows, ("parent", "change"))
    counts = {v: sum(1 for r in rows if r["verdict"] == v)
              for v in ("improved", "unchanged", "unresolved", "regressed")}
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
