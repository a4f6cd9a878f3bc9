#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <paper-figs|channel-grid|seed-fanout> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The release build goes to
$CARGO_TARGET_DIR (default .bench_build). Cargo's output goes to stderr,
so the last line on stdout is the benchmark's JSON result. The exit code
is the benchmark's: 0 when every check passed, 1 when one failed, 2 on
bad arguments, and 3 when the build failed.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns its exit code.

    On timeout or interrupt the whole group is killed and reaped, so no
    compiler or benchmark process outlives this script.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        if run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 3
        exe = os.path.join(target, "release", "perfbench")
        return run([exe] + sys.argv[1:], RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: timed out: {' '.join(e.cmd)}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
