#!/usr/bin/env python3
"""Build and run the RiseFL round benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Builds perfbench/rbench.exe with dune (output goes to stderr), then runs
it. The last line of stdout is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "rbench.exe")
RUN_TIMEOUT_S = 170


def git_info():
    """(commit, dirty) of the tree, or ("unknown", None) outside git."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if commit.returncode != 0:
            return "unknown", None
        status = subprocess.run(
            ["git", "status", "--porcelain"], capture_output=True, text=True, timeout=10
        )
        return commit.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no RiseFL sources here (run from the repository root)", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/rbench.exe"], stdout=sys.stderr, env=env
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    commit, dirty = git_info()
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--commit", commit,
        "--dirty", "-1" if dirty is None else str(int(dirty)),
    ]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
