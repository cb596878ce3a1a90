#!/usr/bin/env python3
"""Builds the explain benchmark from source and runs it.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With --workload it runs that workload and its last line of output is the
result as one JSON object. Without it, it runs every workload in turn.
Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the root
of the checkout); records and traces go to perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["beers-paper", "tpch-wide-t2", "fuzz-interactive"]


def main(argv):
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    exe = [os.path.join(target, "release", "perfbench"),
           "--out-dir", os.path.join(HERE, "out")]
    if "--workload" in argv:
        return subprocess.run(exe + argv, cwd=ROOT).returncode
    status = 0
    for name in WORKLOADS:
        status |= subprocess.run(exe + ["--workload", name] + argv, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except OSError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
