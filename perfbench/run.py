#!/usr/bin/env python3
"""Build powerlim and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload sweep16|bound512|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a powerlim checkout.  The build goes to _build/
(dune); the workload itself is perfbench/main.ml, whose last line of
stdout is the result JSON.  Exits 2 without a result when the checkout
holds no powerlim sources to build.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group (the
    benchmark and any daemon it started) on timeout or when this script
    is terminated."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def terminated(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    signal.signal(signal.SIGINT, terminated)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    for needed in ("dune-project", os.path.join("bin", "powerlim.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing: no powerlim sources to build",
                  file=sys.stderr)
            return 2
    build = ["dune", "build", "--root", ".", "--display", "quiet",
             "perfbench/main.exe", "bin/powerlim.exe"]
    # dune's own output must not reach stdout, whose last line is the result
    status = run(build, BUILD_TIMEOUT_S, sys.stderr)
    if status != 0:
        print(f"perfbench: build failed ({status})", file=sys.stderr)
        return 2
    bench = [os.path.join("_build", "default", "perfbench", "main.exe"), *sys.argv[1:],
             "--powerlim", os.path.join("_build", "default", "bin", "powerlim.exe")]
    return run(bench, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
