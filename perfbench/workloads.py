"""The four benchmark workloads: seeded inputs, one timed op, its output check.

A workload is built in two steps.  ``make_inputs(seed)`` draws every input
from the seed (this is not counted as set-up time); the workload class then
does its expected-answer set-up in ``__init__``.  ``op(i)`` is the timed
bundle for op index ``i`` and returns its raw outputs; ``check(i, out)`` runs
off the clock and returns ``None`` or a description of what was wrong.
``witness(i)`` is the input of op ``i``, so a failure can be replayed from
the workload name, the seed and the op index.  ``trace_ops`` is the fixed
op count of a traced run, and ``tracer`` is replaced by a ``layers.Tracer``
for its traced pass.

Library calls go through module and class attributes (``hc.locate``,
``geo.hull``, ``region.contains``) so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import subprocess
import sys

import numpy as np

from tropgeo import cli, core
from tropgeo import ball as tball
from tropgeo import geodesy as geo
from tropgeo import honeycomb as hc

from layers import NULL_TRACER

EPS = core.DEFAULT_EPS
BOX = 10.0  # the default box of verify_tiling: every input has |x_i| <= 10
CIRCLE_LENGTH = 4.0 + 2.0 * math.sqrt(2.0)


def _in_lattice(c) -> bool:
    return sum(c) % (len(c) + 1) == 0


def _locate_error(x, res):
    if not _in_lattice(res.center):
        return "center %r is not a lattice point" % (res.center,)
    if res.center not in res.all_centers:
        return "center %r not among all_centers" % (res.center,)
    if core.dist(res.center, x) > 1.0 + EPS:
        return "center %r is farther than 1 from the point" % (res.center,)
    return None


class Tiling:
    """``verify_tiling`` at n = 3, 6, 9, the only batch (numpy) path.

    The sample counts make the three op classes cost about the same at the
    commit that introduced the benchmark, so that a batch locator shows as
    scaling in n rather than as a change of mix.
    """

    name = "tiling"
    DIMS = (3, 6, 9)
    SAMPLES = {3: 24_000, 6: 3_400, 9: 480}
    trace_ops = 30
    tracer = NULL_TRACER

    def __init__(self, inputs):
        self.seeds = inputs

    @staticmethod
    def make_inputs(seed):
        rng = random.Random(seed)
        return [rng.randrange(2**31) for _ in range(32)]

    def witness(self, i):
        n = self.DIMS[i % 3]
        return {"n": n, "samples": self.SAMPLES[n], "seed": self.seeds[i % len(self.seeds)]}

    def op(self, i):
        w = self.witness(i)
        with self.tracer.span("honeycomb.verify_tiling.n%d" % w["n"], w["samples"]):
            return hc.verify_tiling(w["n"], samples=w["samples"], seed=w["seed"])

    def check(self, i, rep):
        w = self.witness(i)
        if rep.mismatches != 0:
            return "%d mismatches" % rep.mismatches
        if rep.interior + rep.boundary != w["samples"]:
            return "interior + boundary = %d, expected %d" % (
                rep.interior + rep.boundary, w["samples"])
        return None


def _lattice_center(rng, n):
    c = [rng.randint(-5, 5) for _ in range(n)]
    c[-1] -= sum(c) % (n + 1)
    return tuple(c)


def _sphere_point(rng, n):
    x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    return tuple(v / core.norm(x) for v in x)


class Queries:
    """One script's worth of the scalar calls a user script makes.

    Interior points take the O(n log n) locate fast path; points with one
    integer coordinate take the brute-force fallback.  ``neighbors`` runs
    many small closures (n <= 4) through ``ball.hrep``.  The counts keep
    every call kind below about 40% of the op time.
    """

    name = "queries"
    INTERIOR_DIMS = (2, 6, 10)
    ON_INTEGER_DIMS = (4, 6, 8, 10)
    NEIGHBOR_DIMS = (2, 3, 4)
    N_INTERIOR = 120
    N_ON_INTEGER = 4
    N_PAIRS = 200
    N_CONTAINS = 400
    POLE_DIMS = (2, 3, 4, 5)
    trace_ops = 60
    tracer = NULL_TRACER

    def __init__(self, inputs):
        self.scripts, hull_points = inputs
        self.region = geo.hull(hull_points)
        self.expected_contains = [
            self.region.contains_batch(np.array(s["contains"])).tolist()
            for s in self.scripts
        ]

    @classmethod
    def make_inputs(cls, seed):
        rng = random.Random(seed)

        def box(n):
            return tuple(rng.uniform(-BOX, BOX) for _ in range(n))

        def on_integer(n):
            x = list(box(n))
            k = rng.randrange(n)
            x[k] = float(round(x[k]))
            return tuple(x)

        scripts = []
        for _ in range(16):
            scripts.append({
                "interior": {n: [box(n) for _ in range(cls.N_INTERIOR)]
                             for n in cls.INTERIOR_DIMS},
                "on_integer": {n: [on_integer(n) for _ in range(cls.N_ON_INTEGER)]
                               for n in cls.ON_INTEGER_DIMS},
                "centers": {n: _lattice_center(rng, n) for n in cls.NEIGHBOR_DIMS},
                "pairs": [(box(8), box(8)) for _ in range(cls.N_PAIRS)],
                "contains": [tuple(rng.uniform(-6.0, 6.0) for _ in range(6))
                             for _ in range(cls.N_CONTAINS)],
                "poles": [_sphere_point(rng, n) for n in cls.POLE_DIMS],
            })
        hull_points = [tuple(rng.uniform(-5.0, 5.0) for _ in range(6)) for _ in range(40)]
        return scripts, hull_points

    def witness(self, i):
        # the check's error names the failing call's input
        return {"script": i % len(self.scripts)}

    def op(self, i):
        s = self.scripts[i % len(self.scripts)]
        span = self.tracer.span
        out = {"interior": {}, "on_integer": {}, "neighbors": {}}
        for n, pts in s["interior"].items():
            with span("honeycomb.locate.interior.n%d" % n, len(pts)):
                out["interior"][n] = [hc.locate(x) for x in pts]
        for n, pts in s["on_integer"].items():
            with span("honeycomb.locate.on_integer.n%d" % n, len(pts)):
                out["on_integer"][n] = [hc.locate(x) for x in pts]
        for n, c in s["centers"].items():
            with span("honeycomb.neighbors.n%d" % n, 1):
                out["neighbors"][n] = hc.neighbors(c)
        out["dist"] = [core.dist(x, y) for x, y in s["pairs"]]
        out["segment"] = [core.segment(x, y) for x, y in s["pairs"]]
        region = self.region
        out["contains"] = [region.contains(x) for x in s["contains"]]
        out["circle"] = geo.curve_length(
            lambda t: (math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)))
        out["poles"] = [tball.pole_distances(x) for x in s["poles"]]
        return out

    def check(self, i, out):
        s = self.scripts[i % len(self.scripts)]
        for kind in ("interior", "on_integer"):
            for n, pts in s[kind].items():
                for x, res in zip(pts, out[kind][n]):
                    err = _locate_error(x, res)
                    if err:
                        return "locate %r: %s" % (x, err)
        for n, c in s["centers"].items():
            found = out["neighbors"][n]
            if len(found) != n * (n + 1) or not all(map(_in_lattice, found)):
                return "neighbors %r: %d results, expected %d lattice points" % (
                    c, len(found), n * (n + 1))
        for (x, y), d, seg in zip(s["pairs"], out["dist"], out["segment"]):
            _, linf = core.lp_distances(x, y)
            if not linf <= d <= 2 * linf:
                return "dist %r %r = %r outside [linf, 2 linf]" % (x, y, d)
            if seg.vertices[0] != x or seg.vertices[-1] != y:
                return "segment %r %r does not join its inputs" % (x, y)
            if abs(seg.length() - d) > 1e-9:
                return "segment %r %r length %r != dist %r" % (x, y, seg.length(), d)
        if out["contains"] != self.expected_contains[i % len(self.scripts)]:
            return "contains disagrees with contains_batch"
        if abs(out["circle"] - CIRCLE_LENGTH) > 1e-5:
            return "circle length %r, expected %r" % (out["circle"], CIRCLE_LENGTH)
        for x, (dp, dm) in zip(s["poles"], out["poles"]):
            if abs(dp + dm - 3.0) > 1e-9:
                return "pole distances of %r sum to %r" % (x, dp + dm)
        return None


class Regions:
    """The bound-system kernel used the other way round from ``queries``:
    a few large closures (n = 12 and n = 60) and bulk membership tests."""

    name = "regions"
    DIM = 12
    CLOUD = 500
    BIG_DIM = 60
    BIG_POINTS = 6
    BATCH = 20_000
    FIXED_ROWS = 64
    trace_ops = 30
    tracer = NULL_TRACER

    def __init__(self, inputs):
        self.cases = inputs

    @classmethod
    def make_inputs(cls, seed):
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(4):
            # the two clouds overlap on [-5, 5]^12, so the hulls intersect
            a = rng.uniform(-BOX, 5.0, (cls.CLOUD, cls.DIM))
            b = rng.uniform(-5.0, BOX, (cls.CLOUD, cls.DIM))
            # the bounds of a small hull at n = 60, each loosened by its own slack
            m = cls.BIG_DIM
            p = rng.uniform(-BOX, BOX, (cls.BIG_POINTS, m))
            diff = (p[:, :, None] - p[:, None, :]).min(axis=0) - rng.uniform(0.0, 1.0, (m, m))
            np.fill_diagonal(diff, 0.0)
            cases.append({
                "a": [tuple(r) for r in a.tolist()],
                "b": [tuple(r) for r in b.tolist()],
                "a_arr": a,
                "b_arr": b,
                "big_points": p.tolist(),
                "big_lower": (p.min(axis=0) - rng.uniform(0.0, 1.0, m)).tolist(),
                "big_upper": (p.max(axis=0) + rng.uniform(0.0, 1.0, m)).tolist(),
                "big_diff": diff.tolist(),
                "batch": rng.uniform(-6.0, 6.0, (cls.BATCH, cls.DIM)),
            })
        return cases

    def witness(self, i):
        return {"case": i % len(self.cases)}

    def op(self, i):
        c = self.cases[i % len(self.cases)]
        ha = geo.hull(c["a"])
        hb = geo.hull(c["b"])
        both = ha.intersect(hb)
        big = geo.GeodesicRegion(c["big_lower"], c["big_upper"], c["big_diff"])
        with self.tracer.span("geodesy.contains_batch.rows", self.BATCH):
            mask = both.contains_batch(c["batch"])
        return ha, hb, both, big, mask

    def check(self, i, out):
        c = self.cases[i % len(self.cases)]
        ha, hb, both, big, mask = out
        if not ha.contains_batch(c["a_arr"]).all() or not hb.contains_batch(c["b_arr"]).all():
            return "a cloud point lies outside its hull"
        rows = c["batch"][: self.FIXED_ROWS]
        scalar = [both.contains(tuple(r)) for r in rows.tolist()]
        if mask[: self.FIXED_ROWS].tolist() != scalar:
            return "contains_batch disagrees with contains on the fixed rows"
        if not all(big.contains(p) for p in c["big_points"]):
            return "closed n = %d region lost a point of its hull" % self.BIG_DIM
        return None


# The README's command-line examples, each writing to stdout; the plot goes
# to stdout as csv.  The seed picks the order and the verify seed.
CLI_EXAMPLES = (
    ["dist", "0,0", "1,2"],
    ["norm", "--", "-3,-2,1"],
    ["segment", "0,0", "2,1"],
    ["circle-length", "--radius", "1"],
    ["hull", "0,0,0", "1,0,0", "1,1,0", "1,1,1"],
    ["classify2d", "--a=-1", "--a2", "1", "--b=-1", "--b2", "1", "--c=-1", "--c2", "1"],
    ["ball", "decompose", "--point=-0.4,0.3"],
    ["sphere", "poles", "--point", "0.2,1"],
    ["honeycomb", "locate", "--point", "1.2,0.7"],
    ["--seed", "SEED", "honeycomb", "verify", "--dim", "2", "--samples", "2000"],
    ["--format", "csv", "honeycomb", "plot2d", "--box", "3"],
    ["--format", "csv", "honeycomb", "plot2d", "--box", "2"],
)


def cli_main_stdout(argv) -> bytes:
    """What ``cli.main(argv)`` prints to stdout, run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError("cli.main(%r) returned %d" % (argv, rc))
    return buf.getvalue().encode()


class Cli:
    """One fresh ``python -m tropgeo.cli`` process per op: the latency of a
    one-shot command, which interpreter start and imports dominate."""

    name = "cli"
    trace_ops = 24
    tracer = NULL_TRACER

    def __init__(self, inputs):
        self.argvs = inputs
        self.expected = [cli_main_stdout(a) for a in self.argvs]

    @staticmethod
    def make_inputs(seed):
        rng = random.Random(seed)
        verify_seed = str(rng.randrange(1000))
        argvs = [[verify_seed if a == "SEED" else a for a in argv] for argv in CLI_EXAMPLES]
        rng.shuffle(argvs)
        return argvs

    def witness(self, i):
        return {"argv": self.argvs[i % len(self.argvs)]}

    def op(self, i):
        argv = self.argvs[i % len(self.argvs)]
        proc = subprocess.run([sys.executable, "-m", "tropgeo.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, i, out):
        rc, stdout, stderr = out
        if rc != 0:
            return "exit code %d: %s" % (rc, stderr.decode(errors="replace").strip())
        if stdout != self.expected[i % len(self.argvs)]:
            return "stdout differs from in-process cli.main"
        return None


WORKLOADS = {w.name: w for w in (Tiling, Queries, Regions, Cli)}
