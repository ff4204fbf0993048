"""One benchmark process for one workload; started fresh by run.py.

Modes:
  cold     import, draw inputs, set up, run op 0; print the monotonic clock
           at its end, the input-generation time and the host slowdown, so
           the parent can take the set-up time of a fresh interpreter.
  measure  warm up, then run the timed closed loop; print the end-to-end
           metrics of the run.
  trace    warm up, run a fixed number of ops untraced and then traced;
           print the per-layer metrics.
  replay   run a single op index and print its check result.

Usage: python3 perfbench/runner.py --workload W --seed N --mode measure
(run.py sets PYTHONPATH to the checkout's src and the thread variables).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
import workloads

WARMUP_S = 1.5
MIN_OPS = 100  # so that p90 has at least 10 samples beyond it
BLOCKS = 10  # ops_per_s is the median rate over this many consecutive blocks
HARD_CAP_S = 120.0  # a loop never runs longer, whatever it still lacks
PROBE_REPEATS = 5
FAILED = sys.float_info.max  # a failed op is slower than any success
SMOOTH = 2  # an op's slowdown is the median over this many samples either side


class HostSpeed:
    """How much slower than nominal the host runs right now.

    The host is shared, and its speed swings by up to 1.5x over seconds,
    which moves raw times far more than most code changes do.  Before each
    op the runner times two fixed kernels that never touch tropgeo: one
    numpy, one pure Python.  The mean of their times over the nominal ones
    is the op's slowdown, and every reported time is divided by it.

    The kernels allocate nothing while timed (numpy writes into buffers made
    here, the Python loop builds no containers), so the allocator and the
    garbage collector state an op leaves behind cannot reach them, and each
    is timed as the faster of two passes, so that the cache contents an op
    leaves behind are reloaded by the first pass.
    """

    NUMPY_S = 1.0e-3  # nominal kernel times: fast phases of a 2-core x86 VM
    PYTHON_S = 0.54e-3
    PASSES = 2

    def __init__(self):
        self.x = np.random.default_rng(0).uniform(-10.0, 10.0, (20_000, 6))
        self.frac = np.empty_like(self.x)
        self.spread = np.empty(len(self.x))
        self.pts = [(i * 0.37 % 7.0, i * 0.91 % 5.0, i * 0.13 % 3.0) for i in range(600)]

    def _numpy_kernel(self):
        f = self.frac
        np.floor(self.x, out=f)
        np.subtract(self.x, f, out=f)
        f.sort(axis=1)
        np.subtract(f[:, -1], f[:, 0], out=self.spread)

    def _python_kernel(self):
        acc = 0.0
        for _ in range(6):
            for a, b, c in self.pts:
                d1, d2, d3 = a - b, b - c, c - a
                hi = d1 if d1 > d2 else d2
                hi = hi if hi > d3 else d3
                lo = d1 if d1 < d2 else d2
                lo = lo if lo < d3 else d3
                acc += (hi if hi > 0.0 else 0.0) - (lo if lo < 0.0 else 0.0)
        return acc

    def _best_s(self, kernel):
        best = math.inf
        for _ in range(self.PASSES):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    def sample(self):
        return 0.5 * (self._best_s(self._numpy_kernel) / self.NUMPY_S
                      + self._best_s(self._python_kernel) / self.PYTHON_S)


def smoothed(samples):
    k = SMOOTH
    return [statistics.median(samples[max(0, i - k): i + k + 1]) for i in range(len(samples))]


def run_op(w, i):
    """Time op ``i`` alone; returns (seconds, output, error or None).  The
    workload's tracer records only while the op runs, not while it is
    checked."""
    w.tracer.active = True
    t0 = time.perf_counter()
    try:
        out, err = w.op(i), None
    except Exception as exc:  # a failed op is counted, never retried
        out, err = None, "op raised %r" % (exc,)
    dt = time.perf_counter() - t0
    w.tracer.active = False
    return dt, out, err


def check_op(w, seed, i, out, err):
    """Off the clock: None, or the witness of a failed op."""
    if err is None:
        try:
            err = w.check(i, out)
        except Exception as exc:
            err = "check raised %r" % (exc,)
    if err is None:
        return None
    return {"workload": w.name, "seed": seed, "op": i, "error": err, "input": w.witness(i)}


def run_loop(w, seed, *, seconds=0.0, max_ops=None, speed=None):
    """Closed loop, one op at a time, for ``max_ops`` ops or else for
    ``seconds`` and at least MIN_OPS ops.  Returns per-op times, per-op success,
    the witnesses of the failed ops and, given ``speed``, the host slowdown
    sampled before each op."""
    times, oks, witnesses, slowdowns = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        if speed is not None:
            slowdowns.append(speed.sample())
        dt, out, err = run_op(w, i)
        witness = check_op(w, seed, i, out, err)
        times.append(dt)
        oks.append(witness is None)
        if witness is not None:
            witnesses.append(witness)
        i += 1
        elapsed = time.perf_counter() - start
        if max_ops is not None:
            if i >= max_ops:
                break
        elif (elapsed >= seconds and i >= MIN_OPS) or elapsed >= HARD_CAP_S:
            break
    return times, oks, witnesses, slowdowns


def warm_up(w, speed=None):
    """Untimed spin, so the first timed ops do not pay for an idle CPU."""
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < WARMUP_S:
        if speed is not None:
            speed.sample()
        try:
            w.op(i)
        except Exception:  # the timed loop counts failures; warm-up only spins
            pass
        i += 1


def summarize(times, oks):
    n = len(times)
    lat = sorted(t if ok else FAILED for t, ok in zip(times, oks))
    cuts = [n * b // BLOCKS for b in range(BLOCKS + 1)] if n >= BLOCKS else [0, n]
    rates = [sum(oks[a:b]) / sum(times[a:b]) for a, b in zip(cuts, cuts[1:])]
    return {
        "attempted": n,
        "failed": n - sum(oks),
        "ops_per_s": statistics.median(rates),
        "latency_p50_us": min(statistics.median(lat) * 1e6, FAILED),
        "latency_p90_us": min(lat[math.ceil(0.9 * n) - 1] * 1e6, FAILED),
    }


def peak_rss_mb(w):
    """ru_maxrss of this process, or of its largest child for the cli
    workload, whose work happens in children."""
    who = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _spawn_s(code):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def cli_probes(w):
    """Where a one-shot CLI process spends its time."""
    def med(code):
        return statistics.median(_spawn_s(code) for _ in range(PROBE_REPEATS))

    bare = med("pass")
    main_s = []
    for argv in w.argvs:
        t0 = time.perf_counter()
        workloads.cli_main_stdout(argv)
        main_s.append(time.perf_counter() - t0)
    return {
        "cli.interpreter_s": bare,
        "cli.numpy_import_s": med("import numpy") - bare,
        "cli.import_s": med("import tropgeo.cli") - bare,
        "cli.main_s": statistics.mean(main_s),
    }


def trace(w, seed):
    """Run ``w.trace_ops`` ops untraced, then as many traced.  Both passes
    sample the host speed before each op, as a measured run does, so the
    slowdown and the raw rate are in the per-layer metrics."""
    speed = HostSpeed()
    warm_up(w, speed)
    k = w.trace_ops
    t_plain, ok_plain, wit_plain, slow_plain = run_loop(w, seed, max_ops=k, speed=speed)
    tracer = layers.Tracer()
    tracer.install()
    w.tracer = tracer
    try:
        t_traced, ok_traced, wit_traced, slow_traced = run_loop(w, seed, max_ops=k, speed=speed)
    finally:
        w.tracer = layers.NULL_TRACER
        tracer.restore()
    metrics = tracer.metrics()
    op_s = sum(t_traced)
    probes = dict.fromkeys(layers.CLI_METRICS, 0.0)
    if w.name == "cli":
        probes = cli_probes(w)
        coverage = (probes["cli.interpreter_s"] + probes["cli.import_s"]
                    + probes["cli.main_s"]) / (op_s / k)
    else:
        coverage = tracer.top_busy_s / op_s
    metrics.update({name: (v, "s") for name, v in probes.items()})
    rate = lambda times, oks: sum(oks) / sum(times)
    metrics["trace.overhead_ratio"] = (rate(t_plain, ok_plain) / rate(t_traced, ok_traced), "ratio")
    metrics["trace.coverage"] = (coverage, "ratio")
    metrics["host.slowdown"] = (statistics.median(slow_plain + slow_traced), "ratio")
    metrics["host.raw_ops_per_s"] = (rate(t_plain, ok_plain), "1/s")
    return {
        "attempted": 2 * k,
        "failed": 2 * k - sum(ok_plain) - sum(ok_traced),
        "witnesses": wit_plain + wit_traced,
        "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("cold", "measure", "trace", "replay"))
    ap.add_argument("--seconds", type=float, help="length of the timed loop (--mode measure)")
    ap.add_argument("--op", type=int, default=0, help="op index for --mode replay")
    args = ap.parse_args(argv)
    # one CPU for the runner and its CLI children, so the host-speed kernels
    # run where the ops run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    cls = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    inputs = cls.make_inputs(args.seed)
    gen_s = time.perf_counter() - t0
    w = cls(inputs)

    if args.mode == "cold":
        _, out, err = run_op(w, 0)
        done = time.monotonic()
        witness = check_op(w, args.seed, 0, out, err)
        speed = HostSpeed()
        rec = {"done": done, "gen_s": gen_s, "witnesses": [witness] if witness else [],
               "slowdown": statistics.median(speed.sample() for _ in range(3))}
    elif args.mode == "measure":
        speed = HostSpeed()
        warm_up(w, speed)
        times, oks, witnesses, slowdowns = run_loop(w, args.seed, seconds=args.seconds,
                                                    speed=speed)
        rec = summarize([t / s for t, s in zip(times, smoothed(slowdowns))], oks)
        rec.update(raw=summarize(times, oks), slowdown=statistics.median(slowdowns),
                   peak_rss_mb=peak_rss_mb(w), witnesses=witnesses)
    elif args.mode == "trace":
        rec = trace(w, args.seed)
    else:
        _, out, err = run_op(w, args.op)
        witness = check_op(w, args.seed, args.op, out, err)
        rec = {"op": args.op, "input": w.witness(args.op),
               "witnesses": [witness] if witness else []}
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
