#!/usr/bin/env python3
"""Build perf/perf.exe from source, then run one benchmark invocation.

Run from the root of a checkout:

    python3 perf/run.py --workload solve-abd3 --seed 1 --seconds 15 --trace 0

Every argument is passed on to perf.exe (see perf/README.md). The build
goes to $CARGO_TARGET_DIR if set, else .bench_build, with dune's shared
cache disabled, so nothing is written outside the checkout; temporary
files (the out-of-core memo's segments) go to <build dir>/tmp. Build
output goes to standard error, so the last line of standard output is
perf.exe's result. Exits non-zero without a result if the build fails.
"""

import os
import subprocess
import sys


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp), DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--display", "quiet", "./perf/perf.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join(build_dir, "default", "perf", "perf.exe")
    # perf.exe replaces this process, so no child outlives the run.
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
