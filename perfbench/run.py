#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload size|signoff|serve --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe with
--profile release, generates the workload's inputs from the seed (see
gen.py), runs the measured process, checks its outputs and prints, as the
last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 prints the end-to-end metrics; --trace 1 runs the
workload with spans recorded and prints the per-layer metrics.  See
NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import reduce  # noqa: E402

BUILD_DIR = ".bench_build"
CACHE_DIR = ".bench_inputs"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
# A run must end within 180 s; the measured processes share this.
RUN_BUDGET_S = 160


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        fail("run from the repository root: dune-project, lib/ and perfbench/dune are needed", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail("build failed")


def measure(workload, paths, seconds, trace, tag, timeout):
    out = os.path.join(BUILD_DIR, f"perfbench-{workload}-{tag}-{os.getpid()}.json")
    cmd = [EXE, "--workload", workload, "--seeds", paths["seeds"],
           "--netlist", paths["netlist"], "--schedule", paths["schedule"],
           "--seconds", repr(seconds), "--trace", str(trace), "--out", out]
    try:
        done = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run exceeded {timeout} s")
    if done.returncode != 0:
        fail(f"{workload} run exited with code {done.returncode}")
    with open(out) as f:
        rec = json.load(f)
    os.remove(out)
    return rec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["size", "signoff", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    paths = gen.materialize(a.workload, a.seed, CACHE_DIR)
    rec = measure(a.workload, paths, a.seconds, a.trace, "run", RUN_BUDGET_S)
    if a.trace:
        values, units = reduce.per_layer(rec), reduce.PER_LAYER
    else:
        values, units = reduce.end_to_end(rec), reduce.END_TO_END
    attempted, failed = reduce.totals(rec)
    print(f"# {rec['workload']} trace={rec['trace']} wall={rec['wall_s']:.2f}s "
          f"attempted={attempted} failed={failed} incorrect={rec['incorrect']}")
    for kind, (n, bad) in sorted(rec["kinds"].items()):
        print(f"#   {kind}: attempted={n} failed={bad}")
    for f in rec["failures"]:
        print(f"#   failed: {f}")
    for row in reduce.timing_summary(rec):
        print(f"#   {row}")
    print(reduce.result_line(rec["incorrect"] == 0, attempted, failed,
                             {k: (values[k], units[k]) for k in units}))


if __name__ == "__main__":
    main()
