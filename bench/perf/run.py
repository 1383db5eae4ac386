#!/usr/bin/env python3
"""Build zam_perf from source, then run it with this script's arguments.

    python3 bench/perf/run.py --workload rsa_decrypt --seed 1 --seconds 10 --trace 0
    python3 bench/perf/run.py --runs 10 --json set.json    # every workload
    python3 bench/perf/run.py compare parent.json change.json

The build goes to .bench_build/perf under the repository root (override it
with ZAM_PERF_BUILD_DIR). Build output goes to stderr, so the last line on
stdout stays the benchmark's JSON result. Traced runs write their spans to
perf.trace.json in the build directory unless --trace-out is given.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    build = os.environ.get("ZAM_PERF_BUILD_DIR") or os.path.join(
        root, ".bench_build", "perf")
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build, "--target", "zam_perf", "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            print("error: building zam_perf failed", file=sys.stderr)
            return 1

    args = sys.argv[1:]
    if args[:1] != ["compare"] and "--trace-out" not in args:
        args += ["--trace-out", os.path.join(build, "perf.trace.json")]
    return subprocess.call([os.path.join(build, "zam_perf")] + args)


if __name__ == "__main__":
    sys.exit(main())
