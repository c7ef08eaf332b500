#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_q1 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  The first call configures and builds
perfbench/ (which compiles the library from src/) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build.  The workload's output is passed through, and the
last stdout line is the result object: correct, attempted, failed and the
metrics BENCHMARK.json lists for the mode (end_to_end with --trace 0,
per_layer with --trace 1).  Exits non-zero, without a result line, when
the build or the run fails or the metrics do not match BENCHMARK.json;
exits 1 after the result line when an output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_ = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"]
    if subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(build_dir)
    workdir = build_dir / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", str(workdir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Keep the span export of traced runs; drop journals and the rest.
        if workdir.exists():
            for path in workdir.iterdir():
                if path.suffix == ".jsonl":
                    shutil.move(str(path), str(build_dir / path.name))
            shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit code {proc.returncode})")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.stdout.write(proc.stdout)
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, "
             f"units {sorted(n for n in got if n in expected and got[n] != expected[n])}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
