#!/usr/bin/env python3
"""Build gpuperf and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-replay|fleet-cold|serve-mix \
        --seed N --seconds S --trace 0|1

The last line of standard output is the result JSON printed by
perfbench/main.exe; the build's own output goes to standard error.  Files
the run leaves behind (the dune build directory, traces and scratch
caches) stay inside the repository, under _build/ and .perfbench/.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled",
             "perfbench/main.exe", "bin/gpuperf.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S,
        ).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # The untraced run, which gives the end-to-end metrics, is pinned to
    # one CPU: its pace sampler (perfbench/pace.ml) then times the CPU the
    # work runs on.  The traced run keeps every CPU for its parallel probe.
    if args.trace == "0":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--daemon", os.path.join(ROOT, "_build", "default", "bin", "gpuperf.exe"),
        "--out", os.path.join(ROOT, ".perfbench"),
        "--decls", os.path.join(ROOT, "BENCHMARK.json"),
        "--started", repr(time.time()),
    ]
    # Its own process group, so a timeout takes down the serve daemon too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
