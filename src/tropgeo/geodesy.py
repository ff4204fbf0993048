"""Geodesics, curve length, and geodesically closed regions.

A compact set is geodesically closed for the min-plus metric exactly when it
is cut out by bounds ``a_i <= x_i <= a'_i`` together with difference bounds
``x_i - x_j >= b_ij``.  Such a system is one (n+1) x (n+1) difference-bound
matrix L, with node 0 standing for the constant 0 and L[i, j] a lower bound
on x_i - x_j.  ``GeodesicRegion`` stores its canonical form, the max-plus
Kleene star of L (every bound tightened to the value the system implies),
computed in float64; ``==`` compares that form exactly, so two systems equal
in exact arithmetic can differ in the last bits after rounding.  ``hull``
builds the smallest region containing a point set, and ``classify2d`` names
the polygon shapes these systems cut out in the plane.  The array kernels
(closure, ``hull``'s intake and reductions, ``contains_batch``) live in
``_batch``, the one module that imports numpy, and are loaded on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    DEFAULT_EPS,
    ConvergenceError,
    DimensionMismatch,
    DomainError,
    EmptyRegionError,
    Point,
    as_point,
    check_eps,
    dist,
)


def polyline_length(points) -> float:
    """Total min-plus length of a polyline given by its vertices."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise DomainError("polyline needs at least one vertex")
    # dist raises DimensionMismatch for a pair of mixed dimensions
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        total += dist(a, b)
    return total


def polyline_evaluator(points):
    """Callable t in [0,1] -> point, tracing the polyline at uniform speed
    in parameter space (breakpoints at i/m for m segments)."""
    pts = [as_point(p) for p in points]
    if len(pts) < 2:
        raise DomainError("evaluator needs at least two vertices")
    m = len(pts) - 1

    def curve(t: float) -> Point:
        s = t * m
        i = int(math.floor(s))
        if i < 0:
            i = 0
        if i >= m:
            i = m - 1
        u = s - i
        a, b = pts[i], pts[i + 1]
        return tuple((1.0 - u) * p + u * q for p, q in zip(a, b))

    return curve


# Doublings curve_length tries before it gives up: the last level samples
# 2^24 + 1 points, one at a time.
_MAX_DEPTH = 24


def curve_length(curve, tol: float = 1e-6) -> float:
    """Length of a curve [0,1] -> R^n by dyadic refinement.

    Doubles the number of uniform samples until two successive polyline
    lengths differ by less than ``tol``; the sequence is nondecreasing, so the
    last value is returned.  Raises ConvergenceError (carrying the last two
    estimates) if ``_MAX_DEPTH`` doublings do not stabilize; a one-level
    budget (``_MAX_DEPTH = 2``) has a single estimate and reports it as both
    ends of the bracket.  Converges for piecewise linear curves and for
    smooth curves of bounded turning.  Each level's length is summed as its
    samples are taken, so memory does not grow with the depth.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tol must be positive and finite")
    start = as_point(curve(0.0))
    prev = cur = None
    for depth in range(2, _MAX_DEPTH + 1):
        # polyline_length of the samples i / 2^depth, in its order; dist
        # raises DimensionMismatch if the curve changes dimension
        denom = 2**depth
        prev, cur = cur, 0.0
        a = start
        for i in range(1, denom + 1):
            b = as_point(curve(i / denom))
            cur += dist(a, b)
            a = b
        if prev is not None and cur - prev < tol:
            return cur
    bracket = (cur if prev is None else prev, cur)
    raise ConvergenceError(
        "curve length did not converge by depth %d (last bracket %r)"
        % (_MAX_DEPTH, bracket),
        bracket=bracket,
    )


def is_geodesic(points, eps: float = DEFAULT_EPS) -> bool:
    """True when the polyline realizes the distance between its endpoints."""
    check_eps(eps)
    pts = [as_point(p) for p in points]
    if len(pts) < 2:
        return True
    return polyline_length(pts) <= dist(pts[0], pts[-1]) + eps


def is_between(x, z, y, eps: float = DEFAULT_EPS) -> bool:
    """True when z lies on some geodesic from x to y."""
    check_eps(eps)
    return dist(x, z) + dist(z, y) <= dist(x, y) + eps


class GeodesicRegion:
    """Canonical compact region ``{a_i <= x_i <= a'_i, x_i - x_j >= b_ij}``.

    The canonical form is the max-plus Kleene star of the (n+1) x (n+1)
    difference-bound matrix whose node 0 is the constant 0 (see
    ``_batch._close_bounds``): construction tightens every bound to the
    value the system implies, and raises EmptyRegionError when a cycle of
    bounds contradicts itself by more than eps.  Rounding can leave a feasible
    system's cycle excess a few ulps above 0; that passes the eps check,
    and its bounds are kept as computed.  ``lower``, ``upper`` and
    ``diff_lb`` are tuples of floats read off the closed matrix, with a 0
    diagonal and every zero stored as 0.0; instances are immutable, and
    ``==`` and ``hash`` compare these canonical bounds exactly.
    """

    __slots__ = ("lower", "upper", "diff_lb")

    def __init__(self, lower, upper, diff_lb=None, *, eps: float = DEFAULT_EPS):
        check_eps(eps)
        lo = as_point(lower)
        up = as_point(upper)
        n = len(lo)
        if len(up) != n:
            raise DimensionMismatch("lower and upper bounds differ in length")
        from . import _batch

        rows = _batch._closed_rows(lo, up, diff_lb)
        worst = max(rows[k][k] for k in range(n + 1))
        if worst > eps:
            raise EmptyRegionError(
                "bound system is infeasible (cycle excess %g)" % worst
            )
        for k, row in enumerate(rows):
            row[k] = 0.0
        object.__setattr__(self, "lower", tuple(row[0] for row in rows[1:]))
        object.__setattr__(self, "upper", tuple(0.0 - v for v in rows[0][1:]))
        object.__setattr__(self, "diff_lb", tuple(tuple(row[1:]) for row in rows[1:]))

    def __setattr__(self, name, value):
        raise AttributeError("GeodesicRegion is immutable")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeodesicRegion):
            return NotImplemented
        return (
            self.lower == other.lower
            and self.upper == other.upper
            and self.diff_lb == other.diff_lb
        )

    def __hash__(self):
        return hash((self.lower, self.upper, self.diff_lb))

    def __repr__(self):
        return "GeodesicRegion(lower=%r, upper=%r, diff_lb=%r)" % (
            self.lower,
            self.upper,
            self.diff_lb,
        )

    def contains(self, x, eps: float = DEFAULT_EPS) -> bool:
        check_eps(eps)
        px = as_point(x)
        if len(px) != self.dim:
            raise DimensionMismatch("point dimension does not match region")
        for v, lo, up in zip(px, self.lower, self.upper):
            if v < lo - eps or v > up + eps:
                return False
        n = self.dim
        for i in range(n):
            for j in range(n):
                if i != j and px[i] - px[j] < self.diff_lb[i][j] - eps:
                    return False
        return True

    def contains_batch(self, X, eps: float = DEFAULT_EPS):
        """Vectorized membership for an (m, n) array; returns a bool array.

        On a finite row each entry equals ``contains`` with the same eps; a
        row with a NaN or an infinite entry, which ``contains`` rejects,
        tests False, and numpy reads a None entry as NaN.  The rows are
        tested in chunks of bounded size, coordinate-major, with one
        subtraction x_i - x_j per pair i < j serving both of its difference
        bounds, so for a float64 X memory beyond the result does not grow
        with m.  Raises DimensionMismatch when X is not an (m, n) array of
        numbers, such as a ragged or non-numeric sequence, or holds an int
        too large for float64.
        """
        check_eps(eps)
        from . import _batch

        return _batch._contains_batch(self, X, eps)

    def intersect(self, other: "GeodesicRegion", eps: float = DEFAULT_EPS):
        """Intersection, recanonicalized; raises EmptyRegionError if empty."""
        if self.dim != other.dim:
            raise DimensionMismatch("regions have different dimensions")
        lo = tuple(map(max, self.lower, other.lower))
        up = tuple(map(min, self.upper, other.upper))
        diff = [tuple(map(max, a, b)) for a, b in zip(self.diff_lb, other.diff_lb)]
        return GeodesicRegion(lo, up, diff, eps=eps)

    def affine_dim(self, eps: float = DEFAULT_EPS) -> int:
        """Dimension of the affine hull of the region."""
        check_eps(eps)
        n = self.dim
        parent = list(range(n + 1))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for i in range(n):
            if self.upper[i] - self.lower[i] <= eps:
                union(i + 1, 0)
        for i in range(n):
            for j in range(i + 1, n):
                if self.diff_lb[i][j] + self.diff_lb[j][i] >= -eps:
                    union(i + 1, j + 1)
        comps = len({find(k) for k in range(n + 1)})
        return comps - 1

    def sample(self, rng) -> Point:
        """A point of the region, one coordinate at a time within the bounds
        the earlier choices leave open.  Covers the region, not uniformly."""
        n = self.dim
        out: list[float] = []
        for k in range(n):
            lo = self.lower[k]
            up = self.upper[k]
            for j in range(k):
                lo = max(lo, self.diff_lb[k][j] + out[j])
                up = min(up, out[j] - self.diff_lb[j][k])
            if up < lo:
                up = lo
            out.append(rng.uniform(lo, up))
        return tuple(out)


def hull(points, eps: float = DEFAULT_EPS) -> GeodesicRegion:
    """Smallest geodesically closed region containing ``points``, a sequence
    of points or an (m, n) array, read and checked once in ``_batch``."""
    from . import _batch

    return GeodesicRegion(*_batch._hull_bounds(points), eps=eps)


EDGE_NAMES = ("x=a'", "y=b'", "y-x=c'", "x=a", "y=b", "y-x=c")

POINT_ID = -1
SEGMENT_X_ID = -2
SEGMENT_Y_ID = -3
SEGMENT_DIAG_ID = -4


@dataclass(frozen=True)
class Shape2DType:
    """Combinatorial type of a planar region.

    ``kind`` is ``polygon``, ``point``, ``segment-x``, ``segment-y`` or
    ``segment-diag``.  For polygons, ``present_edges`` indexes EDGE_NAMES in
    boundary order and ``canonical_id`` encodes the missing edges as a
    bitmask (so the full hexagon has id 0).  Degenerate kinds get negative
    ids of their own.
    """

    kind: str
    present_edges: tuple[int, ...]
    edge_count: int
    canonical_id: int


def classify2d(region: GeodesicRegion, eps: float = DEFAULT_EPS) -> Shape2DType:
    """Name the shape a planar bound system cuts out.

    A bound contributes an edge when the face it supports is a segment of
    positive length; bounds meeting the region in a single vertex are
    recorded as missing.  Missing edges are never adjacent on the boundary
    cycle, which leaves 18 polygon types.
    """
    check_eps(eps)
    if region.dim != 2:
        raise DimensionMismatch("classify2d needs a planar region")
    a, b = region.lower
    a2, b2 = region.upper
    c = region.diff_lb[1][0]
    c2 = -region.diff_lb[0][1]
    wx = a2 - a
    wy = b2 - b
    wd = c2 - c
    if wx <= eps and wy <= eps:
        return Shape2DType("point", (), 0, POINT_ID)
    if wx <= eps:
        return Shape2DType("segment-y", (), 0, SEGMENT_Y_ID)
    if wy <= eps:
        return Shape2DType("segment-x", (), 0, SEGMENT_X_ID)
    if wd <= eps:
        return Shape2DType("segment-diag", (), 0, SEGMENT_DIAG_ID)
    faces = (
        min(b2, a2 + c2) - max(b, a2 + c),    # x = a'
        min(a2, b2 - c) - max(a, b2 - c2),    # y = b'
        min(a2, b2 - c2) - max(a, b - c2),    # y - x = c'
        min(b2, a + c2) - max(b, a + c),      # x = a
        min(a2, b - c) - max(a, b - c2),      # y = b
        min(a2, b2 - c) - max(a, b - c),      # y - x = c
    )
    present = tuple(k for k, f in enumerate(faces) if f > eps)
    missing = [k for k in range(6) if k not in present]
    for k in missing:
        if (k + 1) % 6 in missing:
            raise DomainError(
                "adjacent boundary edges both degenerate; bounds %r" % (region,)
            )
    mask = sum(1 << k for k in missing)
    return Shape2DType("polygon", present, len(present), mask)
