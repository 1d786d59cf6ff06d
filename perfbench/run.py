#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_j1 --seed 1 --seconds 12 --trace 0

Builds perfbench/main.exe with dune (the first run in a fresh checkout
compiles the libraries), then runs it with the given arguments. Its
standard output ends with one JSON result line; build output goes to
standard error. Exits non-zero, printing no result, when the checkout
cannot be built.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: dune-project and lib/ not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
