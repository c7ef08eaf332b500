#!/usr/bin/env python3
"""Steadiness runner: repeats workloads over seeds and summarises each metric.

    python3 perfbench/steady.py --workload paper_q1 --seeds 1-10
    python3 perfbench/steady.py --workload fleet --seeds 1-10 --sets 2
    python3 perfbench/steady.py --workload batch_rff --seeds 1-5 --trace 1

For every workload it runs perfbench/run.py once per seed (--seconds
defaults to BENCHMARK.json's run_seconds) and prints, per metric, the
median and quartiles of the values (Python's statistics.quantiles, n=4)
and the spread: the distance between the quartiles as a share of the
median.  With --sets N the whole seed list runs N times, and each later
set's median is compared with the first set's in the metric's worse
direction.  Spreads above a third of the bound, or medians that moved by
more than the bound, are flagged; the exit code is 1 when any spread
exceeds its bound or any later median is worse than the first by more
than the bound (setup_s is exempt from the spread check, as in the
acceptance rule).  --out writes every raw value as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if result is None or not result["correct"] or proc.returncode != 0:
        sys.stdout.write(proc.stdout + proc.stderr)
    return result, proc.returncode, wall


def summarise(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    seeds = parse_seeds(args.seeds)
    raw = {}
    ok = True
    for workload in args.workload:
        sets = []
        for set_index in range(args.sets):
            values = {name: [] for name in metrics}
            for seed in seeds:
                result, code, wall = run_once(workload, seed, seconds, args.trace)
                status = "ok" if result and result["correct"] and code == 0 else f"FAIL({code})"
                print(f"{workload} set {set_index + 1} seed {seed}: {status} in {wall:.1f} s",
                      flush=True)
                if result is None:
                    ok = False
                    continue
                ok = ok and status == "ok"
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            sets.append(values)
        raw[workload] = sets
        if args.out:
            Path(args.out).write_text(json.dumps(raw, indent=1))

        print(f"\n== {workload}: {len(seeds)} seeds x {args.sets} set(s), "
              f"{seconds:g} s runs, trace {args.trace}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  flags")
        for name, metric in metrics.items():
            bound = metric.get("bound")
            for set_index, values in enumerate(sets):
                if not values.get(name):
                    continue
                median, q1, q3, spread = summarise(values[name])
                flags = []
                if bound is not None and name != "setup_s":
                    if spread > bound:
                        flags.append("SPREAD>BOUND")
                        ok = False
                    elif spread > bound / 3:
                        flags.append("spread>bound/3")
                if bound is not None and set_index > 0 and sets[0].get(name):
                    first = statistics.median(sets[0][name])
                    change = (median - first) / first if first else 0.0
                    worse = change if metric["better"] == "lower" else -change
                    flags.append(f"vs set 1: {change:+.1%}")
                    if worse > bound:
                        flags.append("MEDIAN-WORSE>BOUND")
                        ok = False
                label = name if args.sets == 1 else f"{name} [{set_index + 1}]"
                bound_text = f"{bound:.2f}" if bound is not None else "-"
                print(f"{label:34} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.1%} "
                      f"{bound_text:>6}  {' '.join(flags)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
