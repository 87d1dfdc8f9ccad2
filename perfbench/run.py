#!/usr/bin/env python3
"""Build the mapqn benchmark and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload fig4-sweep --seed 2008 --seconds 20 --trace 0

The benchmark is built with dune into .bench_build/, apart from the
repository's own _build/, and run with the same arguments. Its output is
passed through: the last line is the JSON result, and the exit code is the
benchmark's (nonzero when a correctness check failed). The wrapper also
checks that the result names exactly the metrics BENCHMARK.json lists.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench/run.py: run it from the root of the mapqn repository")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"perfbench/run.py: build failed (exit {build.returncode})")
    run = subprocess.run([EXE] + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    lines = run.stdout.strip().splitlines()
    names = list(json.loads(lines[-1])["metrics"]) if lines else []
    if names != expected_metrics(trace):
        sys.exit("perfbench/run.py: the metrics differ from BENCHMARK.json")


if __name__ == "__main__":
    main()
