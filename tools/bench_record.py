"""Write BENCH_<pr>.json: the whole benchmark, once, as a committed record.

    python3 tools/bench_record.py 31

Runs perfbench/run.py on every workload of BENCHMARK.json, on seeds 1 and
20261018, untraced and traced, each at BENCHMARK.json's run_seconds, and
writes their metrics to BENCH_<pr>.json at the root of the checkout, with
the Python and numpy versions, the core count and each run's host
slowdown.  Two records of one host compare the commits they were made at.

Each run starts from a copy of the checkout's src and perfbench without
their __pycache__ directories, under PYTHONDONTWRITEBYTECODE=1, so every
child compiles tropgeo as in a fresh export of the commit: bytecode left
by a test run would otherwise make setup_s and the cli workload read faster
than a fresh export of the same code.  A PYTHONPYCACHEPREFIX would hide the
tree's bytecode too, but then numpy and the standard library compile in
every child as well: ``import numpy`` went from about 0.22 to 0.85 s.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 20261018)  # the second is run.py's SECOND_SEED


def copy_tree(tree):
    """Copy the checkout's src and perfbench into tree, without __pycache__."""
    for part in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part),
                        ignore=shutil.ignore_patterns("__pycache__"))


def run(workload, seed, trace, seconds, tree=None):
    """One perfbench/run.py process on tree, a directory that holds src and
    perfbench; by default a fresh copy of the checkout's.  Returns the run
    record and this tool's entry for the run."""
    if tree is None:
        with tempfile.TemporaryDirectory() as tree:
            copy_tree(tree)
            return run(workload, seed, trace, seconds, tree)
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, cwd=tree,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1")).stdout.splitlines()
    record, result = json.loads(out[-2])["record"], json.loads(out[-1])
    slowdown = result["metrics"]["host.slowdown"]["value"] if trace else record["slowdown"]
    return record, dict(workload=workload, seed=seed, trace=trace, correct=result["correct"],
                        slowdown=slowdown, metrics=result["metrics"])


def main(pr):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    runs = []
    for w in bench["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                record, entry = run(w["name"], seed, trace, seconds)
                print(json.dumps(entry), flush=True)
                runs.append(entry)
    out = dict(pr=pr, python=record["python"], numpy=record["numpy"], nproc=record["nproc"],
               run_seconds=seconds, runs=runs)
    with open(os.path.join(ROOT, "BENCH_%d.json" % pr), "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]))
