"""tropgeo benchmark: one workload, one run, one JSON result on the last line.

    python3 perfbench/run.py --workload tiling --seed 1 --seconds 12 --trace 0

--trace 0 takes the set-up time as the median of several cold starts, then
runs the timed loop in a fresh runner process and prints the end-to-end
metrics.  --trace 1 runs the traced mode instead and prints the per-layer
metrics.  The line before the result is the run record: versions, core
count, the second seed and the witnesses of any failed op.  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RUNNER = os.path.join(HERE, "runner.py")
WORKLOADS = ("tiling", "queries", "regions", "cli")
COLD_STARTS = 5
# Later claims are checked again on this seed, one not used while tuning.
SECOND_SEED = 20261018
RUNNER_TIMEOUT_S = 170
MAX_WITNESSES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def runner(workload, seed, mode, *extra):
    """Run one fresh runner process and return its JSON record.  On timeout
    the runner's whole session is killed, CLI children included."""
    cmd = [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, *extra]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env(), start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=RUNNER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit("runner %s timed out after %d s" % (mode, RUNNER_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit("runner %s failed with exit code %d" % (mode, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def setup_s(workload, seed):
    """Median wall time from spawning a fresh runner to the end of its first
    op, less the runner's seeded input generation, at nominal host speed."""
    times, witnesses = [], []
    for _ in range(COLD_STARTS):
        t0 = time.monotonic()
        rec = runner(workload, seed, "cold")
        times.append((rec["done"] - t0 - rec["gen_s"]) / rec["slowdown"])
        witnesses += rec["witnesses"]
    return statistics.median(times), witnesses


def numpy_version():
    out = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                         stdout=subprocess.PIPE, text=True, env=child_env(), check=True)
    return out.stdout.strip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "tropgeo")):
        sys.exit("no tropgeo sources at %s: run from a checkout of the repository" % SRC)

    if args.trace:
        rec = runner(args.workload, args.seed, "trace")
        metrics = rec["per_layer"]
        witnesses = rec["witnesses"]
        extra = {}
    else:
        setup, witnesses = setup_s(args.workload, args.seed)
        rec = runner(args.workload, args.seed, "measure", "--seconds", str(args.seconds))
        witnesses += rec["witnesses"]
        values = dict(rec, setup_s=setup,
                      ok_ratio=(rec["attempted"] - rec["failed"]) / rec["attempted"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        extra = {"raw": rec["raw"], "slowdown": rec["slowdown"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "second_seed": SECOND_SEED,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "fail_ratio": rec["failed"] / rec["attempted"],
        "witnesses": witnesses[:MAX_WITNESSES],
        **extra,
    }
    for w in witnesses:
        sys.stderr.write("FAILED %s\n" % json.dumps(w))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not witnesses,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
