#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload bulk|incast|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to .bench_build/ with
dune's shared cache off, so nothing is written outside the checkout;
the GC event ring and the traced run's spans go there too.  The benchmark's own output, ending in one JSON line, goes to
standard output; build output goes to standard error.  The exit code is
the benchmark's (0 when every correctness check passed), or the build's
when the build fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["bulk", "incast", "churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=BUILD_DIR)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--require-dune-project-file",
         "--build-dir", BUILD_DIR, "--profile", "release", "--display", "quiet",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    trace_file = os.path.join(
        BUILD_DIR, "perfbench-trace-%s-%d.json" % (args.workload, args.seed))
    sys.stdout.flush()
    bench = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--trace-file", trace_file],
        env=env)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
