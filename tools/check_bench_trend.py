#!/usr/bin/env python3
"""Compare bench JSON artifacts and flag throughput regressions.

Usage:
    tools/check_bench_trend.py BASELINE.json CURRENT.json
        [--threshold=0.20] [--strict]
    tools/check_bench_trend.py BASELINE_DIR/ CURRENT_DIR/
        [--threshold=0.20] [--strict]

File mode compares two artifacts directly. Directory mode scans
CURRENT_DIR for every BENCH_*.json and compares each against the
same-named file in BASELINE_DIR, so one invocation covers every bench
job; a current artifact with no baseline counterpart is reported as new
and skipped.

The artifacts are the BENCH_*.json emitted by the bench runners
(tools/run_ext_bench.sh NAME): a top-level "results" list of rows, each row a
flat object mixing key fields (threads, domains, scenario, ...) with
measured metrics. "ticks_per_sec*" metrics are higher-is-better: a drop
beyond the threshold (default 20%) is reported. "*imbalance*" metrics
(max/mean shard load from the sharded event loop) are lower-is-better:
a rise beyond the same threshold is reported. Rows are matched across
files by their remaining key fields.

Warn-only by default: regressions are printed but the exit code stays 0,
so CI surfaces the trend without going red on a noisy shared runner.
--strict exits 1 on any regression instead (for local gating runs).
Missing baselines (first run, renamed bench) exit 0 with a notice.
"""

import argparse
import json
import os
import sys

METRIC_PREFIX = "ticks_per_sec"
LOWER_IS_BETTER = "imbalance"


def is_metric(key):
    return key.startswith(METRIC_PREFIX) or LOWER_IS_BETTER in key


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path} is not valid JSON: {e}")


def row_key(row):
    """Identity of a results row: every non-metric, non-derived field."""
    return tuple(
        sorted(
            (k, v)
            for k, v in row.items()
            if not is_metric(k) and k != "speedup"
        )
    )


def metrics(row):
    return {k: v for k, v in row.items() if is_metric(k)}


def compare(baseline, current, current_name, threshold):
    """Compare one artifact pair; return the number of regressions."""
    base_rows = {row_key(r): metrics(r) for r in baseline.get("results", [])}
    regressions = []
    compared = 0
    for row in current.get("results", []):
        base = base_rows.get(row_key(row))
        if base is None:
            continue
        for name, value in metrics(row).items():
            old = base.get(name)
            if not isinstance(old, (int, float)) or old <= 0:
                continue
            compared += 1
            if LOWER_IS_BETTER in name:
                # Imbalance: a rise is the regression.
                change = (value - old) / old
            else:
                change = (old - value) / old
            if change > threshold:
                label = ", ".join(
                    f"{k}={v}" for k, v in row.items()
                    if not is_metric(k) and k != "speedup"
                )
                direction = "rose" if LOWER_IS_BETTER in name else "dropped"
                regressions.append(
                    f"  {name} [{label}]: {direction} {old:.2f} -> "
                    f"{value:.2f} ({change:+.0%})"
                )

    bench = current.get("bench", current_name)
    if not compared:
        print(f"{bench}: no comparable metrics between the two artifacts")
        return 0
    if regressions:
        print(
            f"WARNING: {bench}: {len(regressions)} metric(s) regressed "
            f"more than {threshold:.0%}:"
        )
        print("\n".join(regressions))
        return len(regressions)
    print(f"{bench}: {compared} metric(s) within {threshold:.0%} "
          "of baseline")
    return 0


def compare_dirs(baseline_dir, current_dir, threshold):
    """Compare every BENCH_*.json in current_dir against baseline_dir."""
    names = sorted(
        f for f in os.listdir(current_dir)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not names:
        print(f"no BENCH_*.json artifacts in {current_dir}; "
              "nothing to compare")
        return 0
    total = 0
    for name in names:
        current = load(os.path.join(current_dir, name))
        if current is None:
            sys.exit(f"error: cannot read {os.path.join(current_dir, name)}")
        baseline = load(os.path.join(baseline_dir, name))
        if baseline is None:
            print(f"{name}: no baseline in {baseline_dir}; skipping "
                  "(new bench or first run)")
            continue
        total += compare(baseline, current, name, threshold)
    return total


def main():
    parser = argparse.ArgumentParser(
        description="warn on bench throughput regressions between two "
        "BENCH_*.json artifacts or two artifact directories"
    )
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="fractional drop that counts as a regression (default 0.20)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on regression instead of warn-only",
    )
    args = parser.parse_args()

    if os.path.isdir(args.current):
        if not os.path.isdir(args.baseline):
            # First run of the aggregate check: no cached baseline dir.
            print(f"no baseline directory at {args.baseline}; "
                  "nothing to compare")
            return 0
        regressions = compare_dirs(args.baseline, args.current,
                                   args.threshold)
        return 1 if (regressions and args.strict) else 0

    baseline = load(args.baseline)
    if baseline is None:
        print(f"no baseline at {args.baseline}; nothing to compare")
        return 0
    current = load(args.current)
    if current is None:
        sys.exit(f"error: current artifact {args.current} not found")

    regressions = compare(baseline, current, args.current, args.threshold)
    return 1 if (regressions and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
