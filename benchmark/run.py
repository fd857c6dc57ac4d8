#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the repository root:

    python3 benchmark/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

The arguments go to benchmark/main.exe unchanged (see benchmark/README.md).
The build goes to .bench_build, or to $CARGO_TARGET_DIR when that is set,
and its output goes to standard error, so the last line of standard output
is the workload's JSON result.  A failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [
            "dune", "build", "--root", ".", "--build-dir", build_dir,
            "--profile", "release", "--display", "quiet", "-j", "2",
            "./benchmark/main.exe",
        ],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(build_dir, "default", "benchmark", "main.exe")
    # exec, so no child process outlives this one
    os.execv(exe, [exe] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
