"""Geodesics, curve length, and geodesically closed regions.

A compact set is geodesically closed for the min-plus metric exactly when it
is cut out by bounds ``a_i <= x_i <= a'_i`` together with difference bounds
``x_i - x_j >= b_ij``.  ``GeodesicRegion`` stores such a system in canonical
(tightest-bounds) form; ``hull`` builds the smallest one containing a point
set, and ``classify2d`` names the polygon shapes these systems cut out in the
plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_EPS,
    ConvergenceError,
    DimensionMismatch,
    DomainError,
    EmptyRegionError,
    Point,
    as_point,
    dist,
)


def polyline_length(points) -> float:
    """Total min-plus length of a polyline given by its vertices."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise DomainError("polyline needs at least one vertex")
    n = len(pts[0])
    for p in pts:
        if len(p) != n:
            raise DimensionMismatch("polyline vertices have mixed dimensions")
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


def curve_length(curve, tol: float = 1e-6, max_depth: int = 24) -> float:
    """Length of a curve [0,1] -> R^n by dyadic refinement.

    Doubles the number of uniform samples until two successive polyline
    lengths differ by less than ``tol``; the sequence is nondecreasing, so the
    last value is returned.  Raises ConvergenceError (carrying the last two
    estimates) if ``max_depth`` doublings do not stabilize.  Converges for
    piecewise linear curves and for smooth curves of bounded turning.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tol must be positive and finite")
    depth = 2
    pts = [as_point(curve(i / 2**depth)) for i in range(2**depth + 1)]
    n = len(pts[0])
    for p in pts:
        if len(p) != n:
            raise DimensionMismatch("curve changes dimension along the way")
    prev = cur = polyline_length(pts)
    while depth < max_depth:
        depth += 1
        refined = []
        denom = 2**depth
        for i, p in enumerate(pts[:-1]):
            refined.append(p)
            refined.append(as_point(curve((2 * i + 1) / denom)))
        refined.append(pts[-1])
        pts = refined
        cur = polyline_length(pts)
        if cur - prev < tol:
            return cur
        prev = cur
    raise ConvergenceError(
        "curve length did not converge by depth %d (last bracket %r)"
        % (max_depth, (prev, cur)),
        bracket=(prev, cur),
    )


def is_geodesic(points, eps: float = DEFAULT_EPS) -> bool:
    """True when the polyline realizes the distance between its endpoints."""
    pts = [as_point(p) for p in points]
    if len(pts) < 2:
        return True
    return polyline_length(pts) <= dist(pts[0], pts[-1]) + eps


def is_between(x, z, y, eps: float = DEFAULT_EPS) -> bool:
    """True when z lies on some geodesic from x to y."""
    return dist(x, z) + dist(z, y) <= dist(x, y) + eps


def _close_bounds(lower, upper, diff_lb):
    """Tighten a bound system by propagating all chained consequences.

    Node 0 stands for the constant 0, node i for x_i; entry L[i][j] is the
    best known lower bound on x_i - x_j.  Returns the closed matrix.
    """
    n = len(lower)
    m = n + 1
    L = [[0.0] * m for _ in range(m)]
    for i in range(1, m):
        L[i][0] = lower[i - 1]
        L[0][i] = -upper[i - 1]
        row = diff_lb[i - 1]
        for j in range(1, m):
            if i != j:
                L[i][j] = row[j - 1]
    for k in range(m):
        Lk = L[k]
        for i in range(m):
            Li = L[i]
            lik = Li[k]
            for j in range(m):
                v = lik + Lk[j]
                if v > Li[j]:
                    Li[j] = v
    return L


class GeodesicRegion:
    """Canonical compact region ``{a_i <= x_i <= a'_i, x_i - x_j >= b_ij}``.

    Construction tightens every bound to the value actually attained on the
    region and raises EmptyRegionError when the system has no solution.
    Instances are immutable and compare by their canonical bounds.
    """

    __slots__ = ("lower", "upper", "diff_lb")

    def __init__(self, lower, upper, diff_lb=None, *, eps: float = DEFAULT_EPS):
        lo = as_point(lower)
        up = as_point(upper)
        n = len(lo)
        if len(up) != n:
            raise DimensionMismatch("lower and upper bounds differ in length")
        if diff_lb is None:
            # loosest box-consistent difference bounds
            diff = [[lo[i] - up[j] for j in range(n)] for i in range(n)]
        else:
            diff = [[float(v) for v in row] for row in diff_lb]
            if len(diff) != n or any(len(row) != n for row in diff):
                raise DimensionMismatch("diff_lb must be an n by n table")
            for row in diff:
                for v in row:
                    if not math.isfinite(v):
                        raise DomainError("difference bounds must be finite")
        L = _close_bounds(lo, up, diff)
        m = n + 1
        worst = max(L[k][k] for k in range(m))
        if worst > eps:
            raise EmptyRegionError(
                "bound system is infeasible (cycle excess %g)" % worst
            )
        object.__setattr__(self, "lower", tuple(L[i][0] for i in range(1, m)))
        object.__setattr__(self, "upper", tuple(-L[0][i] for i in range(1, m)))
        object.__setattr__(
            self,
            "diff_lb",
            tuple(
                tuple(L[i][j] if i != j else 0.0 for j in range(1, m))
                for i in range(1, m)
            ),
        )

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

    def isclose(self, other: "GeodesicRegion", eps: float = DEFAULT_EPS) -> bool:
        if self.dim != other.dim:
            return False
        n = self.dim
        pairs = [(self.lower, other.lower), (self.upper, other.upper)]
        for a, b in pairs:
            if any(abs(u - v) > eps for u, v in zip(a, b)):
                return False
        for i in range(n):
            for j in range(n):
                if abs(self.diff_lb[i][j] - other.diff_lb[i][j]) > eps:
                    return False
        return True

    def contains(self, x, eps: float = DEFAULT_EPS) -> bool:
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
        """Vectorized membership for an (m, n) array; returns a bool array."""
        A = np.asarray(X, dtype=float)
        if A.ndim != 2 or A.shape[1] != self.dim:
            raise DimensionMismatch("expected an (m, %d) array" % self.dim)
        lo = np.array(self.lower)
        up = np.array(self.upper)
        ok = np.all(A >= lo - eps, axis=1) & np.all(A <= up + eps, axis=1)
        n = self.dim
        for i in range(n):
            for j in range(n):
                if i != j:
                    ok &= (A[:, i] - A[:, j]) >= (self.diff_lb[i][j] - eps)
        return ok

    def intersect(self, other: "GeodesicRegion", eps: float = DEFAULT_EPS):
        """Intersection, recanonicalized; raises EmptyRegionError if empty."""
        if self.dim != other.dim:
            raise DimensionMismatch("regions have different dimensions")
        n = self.dim
        lo = tuple(max(a, b) for a, b in zip(self.lower, other.lower))
        up = tuple(min(a, b) for a, b in zip(self.upper, other.upper))
        diff = [
            [max(self.diff_lb[i][j], other.diff_lb[i][j]) for j in range(n)]
            for i in range(n)
        ]
        return GeodesicRegion(lo, up, diff, eps=eps)

    def witness(self) -> Point:
        """A feasible point: the canonical lower-bound vector."""
        return self.lower

    def affine_dim(self, eps: float = DEFAULT_EPS) -> int:
        """Dimension of the affine hull of the region."""
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
    """Smallest geodesically closed region containing the given points."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise DomainError("hull needs at least one point")
    n = len(pts[0])
    for p in pts:
        if len(p) != n:
            raise DimensionMismatch("hull points have mixed dimensions")
    lo = tuple(min(p[i] for p in pts) for i in range(n))
    up = tuple(max(p[i] for p in pts) for i in range(n))
    diff = [
        [min(p[i] - p[j] for p in pts) if i != j else 0.0 for j in range(n)]
        for i in range(n)
    ]
    return GeodesicRegion(lo, up, diff, eps=eps)


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
