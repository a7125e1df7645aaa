#!/usr/bin/env python3
"""Build the SPIDER serving benchmark and run one workload on one CPU.

    python3 perfbench/run.py --workload <warm_sweep|plan_churn|tenant_open_loop>
                             --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. The benchmark is built from source (release
profile, offline) into $CARGO_TARGET_DIR, or perfbench/target when that is
unset, then confined to a single CPU of this process's affinity set before
it starts, so every thread it spawns shares that CPU. The last line of
standard output is the run's JSON result; the exit code is non-zero when
the build, a request or a correctness check failed. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("warm_sweep", "plan_churn", "tenant_open_loop")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # One CPU for the whole run: the last one this process may use.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    scratch = os.path.join(target, "perfbench-scratch-%d" % os.getpid())
    cmd = [
        os.path.join(target, "release", "spider-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", scratch,
    ]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
