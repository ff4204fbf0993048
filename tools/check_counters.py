"""Check the benchmark's work counters against the newest committed record.

    python3 tools/check_counters.py

Runs perfbench/run.py once on every workload of BENCHMARK.json, traced, on
seed 1 for one second, and compares every ``*.calls`` metric with the
traced seed-1 run of the newest BENCH_<pr>.json.  A traced run does a fixed
amount of work, so its counts depend on the code alone, not on the host or
the seconds.  Prints each difference as the workload, the metric and both
values, and exits 1 on any, or on a run that is not correct.  A change that
moves a count commits a new record and says why.
"""

import glob
import json
import os
import re
import sys

from bench_record import ROOT, run


def newest_record() -> str:
    paths = glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    return max(paths, key=lambda p: int(re.search(r"BENCH_(\d+)\.json$", p).group(1)))


def calls(metrics) -> dict:
    return {name: m["value"] for name, m in metrics.items() if name.endswith(".calls")}


def main() -> int:
    path = newest_record()
    with open(path) as f:
        record = json.load(f)
    want = {r["workload"]: calls(r["metrics"]) for r in record["runs"]
            if r["seed"] == 1 and r["trace"] == 1}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = False
    for workload in workloads:
        _, entry = run(workload, 1, 1, 1)
        got = calls(entry["metrics"])
        if not entry["correct"]:
            print("%s: the traced run is not correct" % workload)
            failed = True
        diffs = [(name, want[workload].get(name), got.get(name))
                 for name in sorted(set(want[workload]) | set(got))
                 if want[workload].get(name) != got.get(name)]
        for name, old, new in diffs:
            print("%s %s: %s in %s, %s now" % (workload, name, old, os.path.basename(path), new))
        failed = failed or bool(diffs)
        if not diffs:
            print("%s: %d counts equal %s" % (workload, len(got), os.path.basename(path)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
