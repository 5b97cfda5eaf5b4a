#!/usr/bin/env python3
"""Build and run the midband5g end-to-end benchmark.

    python3 perfbench/run.py --workload export --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds `perfbench/` (its own Cargo
workspace, taking the library crates by path) into `$CARGO_TARGET_DIR`,
default `.bench_build`, then runs it with `MIDBAND5G_THREADS` pinned to
the number of usable cores and the invariant audit off. The last line of
standard output is the benchmark's JSON result. Any other arguments
(`--plant`, `--bless`) are passed through to the benchmark binary.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["export", "reload", "cell_load", "qoe"]
RUN_TIMEOUT_S = 170


def tool_output(cmd):
    """First line a tool prints, or "unknown" when it is not there."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    nproc = len(os.sched_getaffinity(0))
    env["MIDBAND5G_THREADS"] = str(nproc)
    env["MIDBAND5G_AUDIT"] = "0"
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rustc", tool_output(["rustc", "--version"]),
        "--git-rev", tool_output(["git", "-C", HERE, "rev-parse", "--short", "HEAD"]),
    ] + extra
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
