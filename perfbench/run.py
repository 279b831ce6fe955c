#!/usr/bin/env python3
"""The repository's benchmark. Builds perfbench/capes_benchmark from source
and runs the named workloads of BENCHMARK.json through it.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  prints every metric as `name value unit`; its last line is one JSON object
  {"correct", "attempted", "failed", "metrics"} holding the end-to-end
  metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).

Sets of runs, their comparison, and a quick smoke check:
    python3 perfbench/run.py --seed 7 --repeats 5 --out DIR [--trace]
    python3 perfbench/run.py --compare DIR_A DIR_B
    python3 perfbench/run.py --smoke

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
# The one correctness rule the compare adds on top of the deterministic
# block: the model's tuned-over-baseline gain may not fall by more than
# this many percentage points.
GAIN_BOUND_PP = 1.0
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {SPEC_PATH}: {exc}")


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure once, then bring capes_benchmark up to date."""
    out = build_dir()
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    # A failed configure leaves a cache but no build file behind.
    if not ((out / "build.ninja").exists() or (out / "Makefile").exists()):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(out), "--target", "capes_benchmark",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "capes_benchmark"


def run_driver(binary, workload, seed, seconds, trace_file=None, scale=None):
    """One capes_benchmark process; returns (result JSON, text lines)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace_file is not None:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={trace_file}")
    if scale is not None:
        cmd.append(f"--scale={scale}")
    try:
        # A run must end within 180 s; run() kills and reaps a hung driver.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: capes_benchmark ran past {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: capes_benchmark printed no result "
             f"(exit {proc.returncode})")
    return result, lines[:-1]


def expected_metrics(spec, traced):
    group = spec["per_layer"] if traced else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def missing_metrics(spec, result, traced):
    """Names of BENCHMARK.json metrics absent from a result or in the
    wrong unit."""
    got = result["layers"] if traced else result["metrics"]
    return [name for name, unit in expected_metrics(spec, traced).items()
            if name not in got or got[name]["unit"] != unit]


# ---- one run ------------------------------------------------------------------

def single_run(spec, args):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; expected one of {names}")
    binary = build()
    traced = args.trace == 1
    trace_file = (build_dir() / "traces" / f"{args.workload}-seed{args.seed}.json"
                  if traced else None)
    result, lines = run_driver(binary, args.workload, args.seed, args.seconds,
                               trace_file)
    for line in lines:
        print(line)
    missing = missing_metrics(spec, result, traced)
    if missing:
        print(f"metrics missing or in another unit: {missing}", file=sys.stderr)
    got = result["layers"] if traced else result["metrics"]
    correct = bool(result["correct"]) and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: got[name] for name in expected_metrics(spec, traced)
                    if name in got},
    }))
    return 0 if correct else 1


# ---- sets of runs -------------------------------------------------------------

def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def repeated_runs(spec, args):
    binary = build()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    data = {name: {"runs": [], "traced": None} for name in names}
    problems = []
    nproc = None
    for r in range(args.repeats):
        # Rotate the order so no workload always runs first (cold caches)
        # or right after the same neighbour.
        for name in names[r % len(names):] + names[:r % len(names)]:
            result, _ = run_driver(binary, name, args.seed, args.seconds)
            print(f"repeat {r + 1}/{args.repeats} {name}: "
                  f"{result['metrics']['workflow_ticks_per_s']['value']:.1f} ticks/s",
                  flush=True)
            data[name]["runs"].append(result)
            nproc = result["nproc"]
    if args.trace:
        for name in names:
            result, _ = run_driver(binary, name, args.seed, args.seconds,
                                   out / "traces" / f"{name}-seed{args.seed}.json")
            data[name]["traced"] = result
            missing = missing_metrics(spec, result, traced=True)
            if missing:
                problems.append(f"{name}: traced run lacks {missing}")

    report = {"seed": args.seed, "seconds": args.seconds, "nproc": nproc,
              "workloads": {}}
    for name in names:
        runs = data[name]["runs"]
        dets = {run["det"] for run in runs}
        traced = data[name]["traced"]
        if traced is not None:
            dets.add(traced["det"])
        if len(dets) > 1:
            problems.append(f"{name}: deterministic block differs between runs "
                            f"at one seed (or traced vs untraced)")
        for run in runs + ([traced] if traced else []):
            if not run["correct"]:
                problems.append(f"{name}: a run failed its own checks "
                                f"(failed={run['failed']})")
            missing = missing_metrics(spec, run, traced=False)
            if missing:
                problems.append(f"{name}: missing {missing}")
        metrics = {}
        for metric, meta in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            metrics[metric] = {"unit": meta["unit"], "values": values,
                               **summarize(values)}
        report["workloads"][name] = {
            "threads": runs[0]["threads"], "det": runs[0]["det"],
            "metrics": metrics,
            "layers": traced["layers"] if traced else None,
        }
        print(f"\n{name} ({len(runs)} runs, {runs[0]['threads']} threads)")
        for metric, s in metrics.items():
            print(f"  {metric:28s} {s['median']:12.6g} {s['unit']:9s} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}]")
        if traced is not None:
            for metric, m in traced["layers"].items():
                print(f"  {metric:28s} {m['value']:12.6g} {m['unit']}")
    (out / "results.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out / 'results.json'}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


# ---- comparison ---------------------------------------------------------------

def verdict(a, b, bound, better):
    """better / within bound / worse beyond bound / unresolved, plus the
    share of index-matched pairs B won (ties count for neither)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = wins / len(pairs) if pairs else 0.0
    sa, sb = summarize(a), summarize(b)
    spread = max((sa["q3"] - sa["q1"]) / sa["median"],
                 (sb["q3"] - sb["q1"]) / sb["median"])
    change = sign * (sb["median"] - sa["median"]) / sa["median"]
    b_beats_all = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not b_beats_all:
        return "unresolved", share
    if change < -bound:
        return "worse beyond bound", share
    if share >= 0.9 and sign * (sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]:
        return "better", share
    return "within bound", share


def det_diff(a, b):
    fa = dict(kv.split("=", 1) for kv in a.split())
    fb = dict(kv.split("=", 1) for kv in b.split())
    return [f"{k}: {fa.get(k)} -> {fb.get(k)}"
            for k in sorted(set(fa) | set(fb)) if fa.get(k) != fb.get(k)]


def compare(spec, a_dir, b_dir):
    a = json.loads((Path(a_dir) / "results.json").read_text())
    b = json.loads((Path(b_dir) / "results.json").read_text())
    if a["nproc"] != b["nproc"]:
        fail(f"refusing to compare: nproc {a['nproc']} vs {b['nproc']}")
    bad = 0
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':20s} {'metric':24s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s}  verdict (pairs won)")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        if wa["threads"] != wb["threads"]:
            fail(f"refusing to compare {name}: {wa['threads']} vs "
                 f"{wb['threads']} threads")
        for metric, m in bounds.items():
            va, vb = wa["metrics"][metric]["values"], wb["metrics"][metric]["values"]
            v, share = verdict(va, vb, m["bound"], m["better"])
            sa, sb = summarize(va), summarize(vb)
            print(f"{name:20s} {metric:24s} "
                  f"{sa['median']:12.6g} [{sa['q1']:.5g}, {sa['q3']:.5g}] "
                  f"{sb['median']:12.6g} [{sb['q1']:.5g}, {sb['q3']:.5g}]  "
                  f"{v} ({share:.0%})")
            bad += v in ("worse beyond bound", "unresolved")
        for metric, ma in wa["metrics"].items():
            if metric in bounds or metric not in wb["metrics"]:
                continue
            mb = wb["metrics"][metric]
            print(f"{name:20s} {metric:24s} {ma['median']:12.6g}"
                  f"{'':>18s} {mb['median']:12.6g}{'':>18s}  info")
        gain_a = wa["metrics"]["tuned_gain_pct"]["median"]
        gain_b = wb["metrics"]["tuned_gain_pct"]["median"]
        if gain_b < gain_a - GAIN_BOUND_PP:
            print(f"{name:20s} tuned_gain_pct fell {gain_a:.3f} -> {gain_b:.3f} pp")
            bad += 1
        if wa["det"] != wb["det"]:
            print(f"{name:20s} simulated output changed:")
            for line in det_diff(wa["det"], wb["det"]):
                print(f"{'':22s}{line}")
    return 1 if bad else 0


# ---- smoke --------------------------------------------------------------------

def smoke(spec):
    """Every workload at 2% of its ticks, untraced and traced: names and
    units match BENCHMARK.json and the correctness checks pass."""
    binary = build()
    failed = False
    for w in spec["workloads"]:
        name = w["name"]
        problems = []
        plain, _ = run_driver(binary, name, 7, 0, scale=0.02)
        traced, _ = run_driver(binary, name, 7, 0, scale=0.02,
                               trace_file=build_dir() / "traces" / f"{name}-smoke.json")
        for result, is_traced in ((plain, False), (traced, True)):
            missing = missing_metrics(spec, result, is_traced)
            if missing:
                problems.append(f"missing {missing}")
            if not result["correct"]:
                problems.append("correctness check failed")
        if plain["det"] != traced["det"]:
            problems.append("tracing changed the deterministic block")
        print(f"{name}: {'; '.join(problems) or 'ok'}", flush=True)
        failed = failed or bool(problems)
    if not failed:
        print("smoke OK")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return compare(spec, *args.compare)
    if args.smoke:
        return smoke(spec)
    if args.repeats:
        if not args.out:
            parser.error("--repeats needs --out")
        return repeated_runs(spec, args)
    if not args.workload:
        parser.error("give --workload, --repeats, --compare or --smoke")
    return single_run(spec, args)


if __name__ == "__main__":
    sys.exit(main())
