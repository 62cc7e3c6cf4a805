#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (release profile, into
perfbench/_build so it never disturbs the default _build), then runs it
from the repository root with the same arguments. The benchmark prints
its result as the last line of standard output; this script passes its
exit code through. It fails without running anything outside a frepro
checkout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(HERE, "_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from a frepro checkout (no dune-project/lib here)",
              file=sys.stderr)
        return 2
    # No shared cache: the build reads and writes only inside the checkout.
    build = ["dune", "build", "--root", ".", "--profile", "release",
             "--cache=disabled", "--build-dir", BUILD_DIR,
             "./perfbench/perfbench.exe"]
    # Build output goes to stderr: the last line of stdout is the result.
    code = run(build, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code if code > 0 else 1
    sys.stdout.flush()
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
