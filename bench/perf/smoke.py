#!/usr/bin/env python3
"""Smoke test for zam_perf.

    python3 smoke.py path/to/zam_perf path/to/BENCHMARK.json

Runs every workload untraced and traced at a 0.2 s budget and checks that
each run is correct with no failed runs, that it emits exactly the metrics
BENCHMARK.json declares for its mode, each with the declared unit, and that
every span trace parses as JSON. Writes its files to the current directory.
"""

import json
import subprocess
import sys


def check_set(path, declared, errors):
    """Yields (workload, run) for every run in the set file at path."""
    with open(path) as f:
        runs = json.load(f)["runs"]
    for workload in declared["workloads"]:
        name = workload["name"]
        if name not in runs:
            errors.append(f"{path}: no run of {name}")
        for run in runs.get(name, []):
            if not run["correct"] or run["failed"] != 0 or run["attempted"] < 1:
                errors.append(f"{path}: {name} failed {run['failed']} of "
                              f"{run['attempted']} runs")
            yield name, run


def main():
    exe, bench = sys.argv[1], sys.argv[2]
    with open(bench) as f:
        declared = json.load(f)
    errors = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = f"smoke.trace{trace}.json"
        rc = subprocess.call([exe, "--seconds", "0.2", "--trace", str(trace),
                              "--json", out, "--trace-out", "smoke.spans.json"])
        if rc != 0:
            errors.append(f"zam_perf --trace {trace} exited with {rc}")
            continue
        want = {m["name"]: m["unit"] for m in declared[section]}
        for name, run in check_set(out, declared, errors):
            got = {k: v["unit"] for k, v in run["metrics"].items()}
            if got != want:
                errors.append(f"{name} --trace {trace}: metrics {got} != "
                              f"declared {want}")
            if trace:
                with open(f"smoke.spans.{name}.json") as f:
                    json.load(f)
    for e in errors:
        print("FAIL:", e)
    if not errors:
        print("perf_smoke OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
