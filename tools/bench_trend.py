#!/usr/bin/env python
"""Benchmark trend diff vs a committed baseline; gates on paired ratios.

CI runs the benchmark smoke suites (which rewrite ``BENCH_fleet.json`` /
``BENCH_substrate.json`` in the workspace) and then calls this tool with
the committed generation as the baseline::

    git show HEAD:BENCH_fleet.json > /tmp/base.json
    python tools/bench_trend.py /tmp/base.json BENCH_fleet.json

It walks both JSON trees, compares every numeric leaf, and prints the
leaves whose relative change exceeds the threshold (default 25% — CI
runners are noisy; this is a trend light, not a gate).  Direction
matters: a metric whose name says "seconds"/"_ms" regresses *upward*,
one that says "per_second"/"speedup"/"dedup_ratio" regresses
*downward*; metrics with no recognizable direction are reported as
informational changes only.

A trend warning never fails the build (`--annotate` additionally emits
GitHub ``::warning::`` lines so regressions surface on the workflow
summary).  *Paired ratios* are different: both sides of such a ratio were
measured in the same run on the same machine, so they hold on a noisy
runner where seconds do not.  A benchmark marks one as gated by writing its
ceiling next to it — leaf ``X`` with a sibling ``X_max``, today the
``encode_bypass`` ratios of ``BENCH_substrate.json`` (adaptive zlib encode
over forced level-6) — and a fresh ``X`` above the fresh ``X_max`` fails
the run: exit code 1.  The ceiling is absolute, not relative to the
baseline, because the baseline was measured on another machine: the same
number the benchmark itself asserts, so the two cannot disagree.
"""

import argparse
import json
import sys

# Order matters: "overhead_ratio" must classify as lower-is-better before
# the generic "ratio" suffix gets a chance to mean anything else.
LOWER_IS_BETTER = (
    "overhead_ratio",
    "seconds",
    "_ms",
    "lost_steps",
    "failure_rate",
    "crashes",
    "abandoned",
    "exhausted",
)
HIGHER_IS_BETTER = (
    "per_second",
    "speedup",
    "dedup_ratio",
    "recovered",
    "coverage",
    "hits",
)


def walk(prefix, value, out):
    if isinstance(value, dict):
        for key in sorted(value):
            child = f"{prefix}.{key}" if prefix else str(key)
            walk(child, value[key], out)
    elif isinstance(value, bool):
        return
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)


def direction(key):
    lowered = key.lower()
    for needle in LOWER_IS_BETTER:
        if needle in lowered:
            return "lower"
    for needle in HIGHER_IS_BETTER:
        if needle in lowered:
            return "higher"
    return None


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench-trend: cannot read {path}: {exc}")
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed benchmark JSON")
    parser.add_argument("fresh", help="freshly produced benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative change that counts as a trend (default 0.25)",
    )
    parser.add_argument(
        "--annotate",
        action="store_true",
        help="emit GitHub ::warning:: annotations for regressions",
    )
    args = parser.parse_args(argv)

    baseline_doc = load(args.baseline)
    fresh_doc = load(args.fresh)
    if baseline_doc is None or fresh_doc is None:
        print("bench-trend: skipped (missing/invalid input; this is fine "
              "for a first run)")
        return 0

    baseline, fresh = {}, {}
    walk("", baseline_doc, baseline)
    walk("", fresh_doc, fresh)

    # Gated leaves: every fresh ``X`` that carries its ceiling ``X_max``.
    failures = [
        (key, fresh[f"{key}_max"], value)
        for key, value in sorted(fresh.items())
        if value > fresh.get(f"{key}_max", float("inf"))
    ]

    regressions, improvements, changes = [], [], []
    for key in sorted(set(baseline) & set(fresh)):
        base, new = baseline[key], fresh[key]
        if base == new:
            continue
        if base == 0:
            continue  # no meaningful relative change
        rel = (new - base) / abs(base)
        if abs(rel) <= args.threshold:
            continue
        row = (key, base, new, rel)
        kind = "lower" if f"{key}_max" in fresh else direction(key)
        if kind == "lower":
            (regressions if rel > 0 else improvements).append(row)
        elif kind == "higher":
            (regressions if rel < 0 else improvements).append(row)
        else:
            changes.append(row)

    only = sorted(set(baseline) ^ set(fresh))
    if not (regressions or improvements or changes or only or failures):
        print(
            f"bench-trend: no leaf moved more than "
            f"{args.threshold:.0%} ({args.fresh} vs {args.baseline})"
        )
        return 0

    def show(title, rows):
        if not rows:
            return
        print(f"\n{title}")
        print(f"  {'METRIC':<58} {'BASE':>12} {'FRESH':>12} {'DELTA':>8}")
        for key, base, new, rel in sorted(rows, key=lambda r: -abs(r[3])):
            print(f"  {key:<58} {base:>12.4g} {new:>12.4g} {rel:>+8.0%}")

    if failures:
        print("\nGATED PAIRED RATIOS ABOVE THEIR CEILING")
        print(f"  {'METRIC':<58} {'CEILING':>12} {'FRESH':>12}")
        for key, cap, new in failures:
            print(f"  {key:<58} {cap:>12.4g} {new:>12.4g}")
    show(f"POSSIBLE REGRESSIONS (>{args.threshold:.0%}, warn-only)",
         regressions)
    show("IMPROVEMENTS", improvements)
    show("OTHER CHANGES (no known direction)", changes)
    if only:
        print(f"\nkeys present in only one side: {len(only)}")
        for key in only[:10]:
            side = "baseline" if key in baseline else "fresh"
            print(f"  {key} ({side} only)")
    if args.annotate:
        for key, base, new, rel in regressions:
            print(
                f"::warning title=bench trend::{key} moved {rel:+.0%} "
                f"({base:.4g} -> {new:.4g})"
            )
        for key, cap, new in failures:
            print(
                f"::error title=bench gate::{key} is {new:.4g}, above its "
                f"ceiling {cap:.4g}"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
