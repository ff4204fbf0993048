"""Per-layer accounting for the traced run.

``Tracer.install`` replaces public entry points of the library with wrappers
that delegate unchanged and, while the tracer is active (inside a timed op),
record calls, busy time and self time (busy time minus time spent in other
wrapped calls).  ``Tracer.restore`` puts every original back.  Spans are
labelled intervals the workloads open around groups of calls, for the
per-class figures (microseconds per call, rows per second).

``dist`` and ``segment`` are wrapped only as attributes of ``tropgeo.core``:
the library's own modules hold their own references, so the ``core``
figures count the benchmark's direct calls, not the hot inner ones.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from tropgeo import ball as tball
from tropgeo import core
from tropgeo import geodesy as geo
from tropgeo import honeycomb as hc

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Stands in for a tracer in measured (untraced) runs."""

    active = False

    def span(self, name, units):
        return _NULL_SPAN


NULL_TRACER = NullTracer()


def _region_size(args, kwargs):
    # the workloads build regions at n <= 4 and n >= 12 only
    n = len(args[1] if len(args) > 1 else kwargs["lower"])
    return "geodesy.GeodesicRegion.%s" % ("small" if n <= 4 else "large")


# (owner, attribute, layer name or a function of the call's arguments)
TARGETS = (
    (hc, "locate", "honeycomb.locate"),
    (hc, "locate_bruteforce", "honeycomb.locate_bruteforce"),
    (hc, "neighbors", "honeycomb.neighbors"),
    (hc, "verify_tiling", "honeycomb.verify_tiling"),
    (hc, "hrep", "ball.hrep"),
    (tball, "hrep", "ball.hrep"),
    (geo, "hull", "geodesy.hull"),
    (geo, "curve_length", "geodesy.curve_length"),
    (geo.GeodesicRegion, "__init__", _region_size),
    (geo.GeodesicRegion, "intersect", "geodesy.intersect"),
    (geo.GeodesicRegion, "contains", "geodesy.contains"),
    (geo.GeodesicRegion, "contains_batch", "geodesy.contains_batch"),
    (core, "dist", "core.dist"),
    (core, "segment", "core.segment"),
)


# (layer, which time it reports besides its call count)
CALL_METRICS = (
    ("honeycomb.locate", "self_s"),
    ("honeycomb.locate_bruteforce", "busy_s"),
    ("honeycomb.verify_tiling", "self_s"),
    ("honeycomb.neighbors", "self_s"),
    ("ball.hrep", "busy_s"),
    ("geodesy.GeodesicRegion.small", "busy_s"),
    ("geodesy.GeodesicRegion.large", "busy_s"),
    ("geodesy.hull", "self_s"),
    ("geodesy.intersect", "self_s"),
    ("geodesy.contains_batch", "busy_s"),
    ("geodesy.contains", "busy_s"),
    ("geodesy.curve_length", "busy_s"),
    ("core.dist", "busy_s"),
    ("core.segment", "busy_s"),
)

CLI_METRICS = ("cli.interpreter_s", "cli.numpy_import_s", "cli.import_s", "cli.main_s")
TRACE_METRICS = (("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"))


class Tracer:
    """Per-layer calls and times of one traced pass."""

    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.busy_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.span_s = defaultdict(float)
        self.span_units = defaultdict(float)
        self.top_busy_s = 0.0  # wrapped time not nested in another wrapped call
        self._child_s = []  # one accumulator per open wrapped call
        self._saved = []

    def install(self):
        for owner, attr, layer in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = layer(args, kwargs) if callable(layer) else layer
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_s.pop()
                self.calls[name] += 1
                self.busy_s[name] += dt
                self.self_s[name] += dt - child
                if self._child_s:
                    self._child_s[-1] += dt
                else:
                    self.top_busy_s += dt

        return wrapper

    @contextlib.contextmanager
    def span(self, name, units):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.span_s[name] += time.perf_counter() - t0
            self.span_units[name] += units

    def _per_unit_us(self, span):
        units = self.span_units[span]
        return self.span_s[span] / units * 1e6 if units else 0.0

    def _units_per_s(self, span):
        t = self.span_s[span]
        return self.span_units[span] / t if t else 0.0

    def metrics(self):
        """Every per-layer metric except the ``cli.*`` and ``trace.*``
        ones; a layer the workload never reaches reads 0."""
        out = {}
        for name, kind in CALL_METRICS:
            out[name + ".calls"] = (self.calls[name], "count")
            table = self.self_s if kind == "self_s" else self.busy_s
            out[name + "." + kind] = (table[name], "s")
        locates = self.calls["honeycomb.locate"]
        fallbacks = self.calls["honeycomb.locate_bruteforce"]
        out["honeycomb.locate.fallback_ratio"] = (
            fallbacks / locates if locates else 0.0, "ratio")
        for n in (2, 6, 10):
            out["honeycomb.locate.us_interior.n%d" % n] = (
                self._per_unit_us("honeycomb.locate.interior.n%d" % n), "us")
        for n in (4, 6, 8, 10):
            out["honeycomb.locate.us_on_integer.n%d" % n] = (
                self._per_unit_us("honeycomb.locate.on_integer.n%d" % n), "us")
        for n in (3, 6, 9):
            out["honeycomb.verify_tiling.rows_per_s.n%d" % n] = (
                self._units_per_s("honeycomb.verify_tiling.n%d" % n), "1/s")
        for n in (2, 3, 4):
            out["honeycomb.neighbors.us.n%d" % n] = (
                self._per_unit_us("honeycomb.neighbors.n%d" % n), "us")
        out["geodesy.contains_batch.rows_per_s"] = (
            self._units_per_s("geodesy.contains_batch.rows"), "1/s")
        return out
