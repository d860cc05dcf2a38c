#!/usr/bin/env python3
"""Build the served binary and the benchmark from source, then run one
benchmark invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload <point|analytic|write-churn|all> \
        --seed N --seconds S --trace <0|1>

`--workload all` runs the three workloads one after the other on the same
seed and fails if any of them does.

Both the `certainty` server (the main workspace) and the `perfbench` driver
(its own package in this directory) are built in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`). Cargo's output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. The driver and every server it starts run in their own process
group, which is killed if the run outlives its time limit.
"""

import os
import signal
import subprocess
import sys

# A run must end well inside three minutes; the first build may take longer.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "cqa-cli",
         "--manifest-path", os.path.join(root, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for command in builds:
        try:
            built = subprocess.run(command, stdout=sys.stderr, env=env, cwd=root,
                                   timeout=BUILD_LIMIT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: build failed: {error}", file=sys.stderr)
            return 1
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return built.returncode
    args = sys.argv[1:]
    workloads = [None]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        at = args.index("--workload")
        args = args[:at] + args[at + 2:]
        workloads = ["point", "analytic", "write-churn"]
    status = 0
    for workload in workloads:
        chosen = args if workload is None else ["--workload", workload, *args]
        status = status or run(target, env, root, chosen)
    return status


def run(target, env, root, args):
    command = [os.path.join(target, "release", "perfbench"), *args,
               "--server-bin", os.path.join(target, "release", "certainty")]
    child = subprocess.Popen(command, cwd=root, env=env, start_new_session=True)
    try:
        return child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s; stopping it", file=sys.stderr)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
