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
the polygon shapes these systems cut out in the plane.

The closure and ``hull``'s bounds come in two layouts of one rule, chosen
by size against ``_SMALL_WORK``: pure Python here for a system of n <= 6
and for a list or tuple of m points with m n^2 within the budget, and the
array kernels of ``_batch``, the one module that imports numpy, for
larger ones, for every ndarray and for any input the pure-Python layout
cannot read, so that numpy's layout raises every input error.  A
one-shot command that builds only small regions, such as ``tropgeo hull``
of four points, ``classify2d`` or ``neighbors`` at n <= 6, never imports
numpy; ``contains_batch`` always does.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import sub

from .core import (
    DEFAULT_EPS,
    ConvergenceError,
    DimensionMismatch,
    DomainError,
    EmptyRegionError,
    Point,
    _dist,
    _Record,
    _as_real,
    _setfield,
    _same_dim,
    as_point,
    check_eps,
    dist,
)


def polyline_length(points) -> float:
    """Total min-plus length of a polyline given by its vertices."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise DomainError("polyline needs at least one vertex")
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        _same_dim(a, b)
        total += _dist(a, b)
    return total


def polyline_evaluator(points):
    """Callable t in [0,1] -> point, tracing the polyline at uniform speed
    in parameter space (breakpoints at i/m for m segments).  A t outside
    [0, 1] extends the first or last segment; a t that is not a real, or
    whose t * m is not finite, raises DomainError."""
    pts = [as_point(p) for p in points]
    if len(pts) < 2:
        raise DomainError("evaluator needs at least two vertices")
    m = len(pts) - 1

    def curve(t: float) -> Point:
        s = _as_real(t) * m
        if not math.isfinite(s):
            raise DomainError("t must be a real with t * %d finite, got %r" % (m, t))
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
    tol = _as_real(tol)
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tol must be positive and finite")
    start = as_point(curve(0.0))
    prev = cur = None
    for depth in range(2, _MAX_DEPTH + 1):
        # polyline_length of the samples i / 2^depth, in its order
        denom = 2**depth
        prev, cur = cur, 0.0
        a = start
        for i in range(1, denom + 1):
            b = as_point(curve(i / denom))
            _same_dim(a, b)
            cur += _dist(a, b)
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
    # polyline_length has checked that every vertex has one dimension
    return polyline_length(pts) <= _dist(pts[0], pts[-1]) + eps


def is_between(x, z, y, eps: float = DEFAULT_EPS) -> bool:
    """True when z lies on some geodesic from x to y."""
    check_eps(eps)
    return dist(x, z) + dist(z, y) <= dist(x, y) + eps


# Work budget of the pure-Python layouts: a bound system is closed in pure
# Python when its (n+1)^3 Floyd-Warshall steps are at most this, so up to
# n = 6, and ``hull`` takes its bounds in pure Python when its m n^2
# differences are too.  It sits at the measured crossover: a region built
# in pure Python took 8-23 us at n = 1..5 against 14-27 us in numpy, and
# both about 31 us at n = 6, where numpy wins from n = 7 on; hull's bounds
# broke even at m n^2 of about 250-290 for n = 2..8.  Above it, and for
# every ndarray, the ``_batch`` kernels run.
_SMALL_WORK = 343

# The types the pure-Python layouts take as read, for a table and for its
# entries; any other goes to numpy's conversion and its errors.
_SEQS = (list, tuple)
_REALS = frozenset((float, int))


def _table(rows, n: int) -> bool:
    """True when rows are lists or tuples of n floats and ints, n >= 1."""
    return (
        n > 0
        and set(map(type, rows)).issubset(_SEQS)
        and set(map(len, rows)) == {n}
        and _REALS.issuperset(map(type, chain.from_iterable(rows)))
    )


def _closed_rows(lo, up, diff_lb) -> list[list[float]] | None:
    """The closed matrix of GeodesicRegion(lo, up, diff_lb) as nested lists,
    in pure Python; None when the system is above _SMALL_WORK or needs
    ``_batch._closed_rows`` to read it.

    The rule is that of ``_batch._closed_rows``, in the same float64
    arithmetic: max-plus Floyd-Warshall, where pass k reads row k and
    column k as they stood before the pass, as numpy's temporary
    ``L[:, k:k+1] + L[k:k+1, :]`` does.  So the two layouts agree bit for
    bit, once every zero is stored as 0.0.  Returns None, and leaves the
    error to numpy's layout, when diff_lb is not a list or tuple of n lists
    or tuples of finite floats and ints, when a default difference
    lo_i - up_j overflows, or when a chain of bounds overflows to inf.
    Only +inf can arise: a sum that overflows to -inf loses to the finite
    bound it is compared with, so no NaN does either.
    """
    n = len(lo)
    if (n + 1) ** 3 > _SMALL_WORK:
        return None
    if diff_lb is None:
        rows = [[a - b for b in up] for a in lo]
    else:
        if not (type(diff_lb) in _SEQS and len(diff_lb) == n and _table(diff_lb, n)):
            return None
        try:
            rows = [list(map(float, row)) for row in diff_lb]
        except OverflowError:  # an int past float64
            return None
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        return None
    L = [[0.0, *[-v for v in up]]] + [[a, *row] for a, row in zip(lo, rows)]
    m = n + 1
    for k in range(m):
        L[k][k] = 0.0  # x_i - x_i >= 0, whatever diff_lb's diagonal holds
    span = range(m)
    for k in span:
        Lk = L[k][:]
        for Li in L:
            a = Li[k]
            for j in span:
                v = a + Lk[j]
                if v > Li[j]:
                    Li[j] = v
    if max(map(max, L)) == math.inf:
        return None
    # a tie of -0.0 and 0.0 keeps either, so every zero is stored as 0.0
    return [[v + 0.0 for v in row] for row in L]


class GeodesicRegion(_Record):
    """Canonical compact region ``{a_i <= x_i <= a'_i, x_i - x_j >= b_ij}``.

    The canonical form is the max-plus Kleene star of the (n+1) x (n+1)
    difference-bound matrix whose node 0 is the constant 0 (see
    ``_batch._closed_rows``): construction tightens every bound to the
    value the system implies, and raises EmptyRegionError when a cycle of
    bounds contradicts itself by more than eps, as the closed diagonal
    measures it; rounding can leave a feasible system's a few ulps above 0.
    An accepted region keeps its bounds as computed, so a lower bound may
    lie above its upper bound, even by more than eps: with eps=0.2,
    ``GeodesicRegion((1,), (0.9,))`` has lower (1.1,) and upper (0.8,).
    ``lower``, ``upper`` and
    ``diff_lb`` are tuples of floats read off the closed matrix, with a 0
    diagonal and every zero stored as 0.0.  A region is a record (see
    ``core._Record``): immutable, ``==`` and ``hash`` compare these canonical
    bounds exactly, and a copy or a pickle keeps them bit for bit.
    """

    __slots__ = ("lower", "upper", "diff_lb")

    def __init__(self, lower, upper, diff_lb=None, *, eps: float = DEFAULT_EPS):
        check_eps(eps)
        lo = as_point(lower)
        up = as_point(upper)
        n = len(lo)
        if len(up) != n:
            raise DimensionMismatch("lower and upper bounds differ in length")
        rows = _closed_rows(lo, up, diff_lb)
        if rows is None:
            from . import _batch

            rows = _batch._closed_rows(lo, up, diff_lb)
        worst = max(rows[k][k] for k in range(n + 1))
        if worst > eps:
            raise EmptyRegionError(
                "bound system is infeasible (cycle excess %g)" % worst
            )
        for k, row in enumerate(rows):
            row[k] = 0.0
        _setfield(self, "lower", tuple(row[0] for row in rows[1:]))
        _setfield(self, "upper", tuple(0.0 - v for v in rows[0][1:]))
        _setfield(self, "diff_lb", tuple(tuple(row[1:]) for row in rows[1:]))

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains(self, x, eps: float = DEFAULT_EPS) -> bool:
        check_eps(eps)
        px = as_point(x)
        if len(px) != len(self.lower):
            raise DimensionMismatch("point dimension does not match region")
        for v, lo, up in zip(px, self.lower, self.upper):
            if v < lo - eps or v > up + eps:
                return False
        # the stored 0.0 diagonal never fails: 0.0 < 0.0 - eps is false
        for v, row in zip(px, self.diff_lb):
            for w, b in zip(px, row):
                if v - w < b - eps:
                    return False
        return True

    def contains_batch(self, X, eps: float = DEFAULT_EPS):
        """Vectorized membership for an (m, n) array; returns a bool array.

        On a finite row each entry equals ``contains`` with the same eps; a
        row with a NaN or an infinite entry, which ``contains`` rejects,
        tests False, and numpy reads a None entry as NaN.  A row outside the
        box ``lower - eps <= x <= upper + eps``, such as one with a NaN or an
        infinite entry, is rejected before any subtraction; only the rows
        inside it take the difference bounds, with one subtraction x_i - x_j
        per pair i < j serving both, and a difference that overflows float64
        compares as the exact one would, without a numpy warning.  The rows
        are tested in chunks of bounded size, coordinate-major, so for a
        float64 X memory beyond the result does not grow with m.  Raises
        DimensionMismatch when X is not an (m, n) array of numbers, such as
        a ragged or non-numeric sequence, or holds an int too large for
        float64.
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
    of points or an (m, n) array.

    A list or tuple of m points of n coordinates takes its bounds in pure
    Python when both m n^2 and the closure's (n+1)^3 are within
    _SMALL_WORK; any other input, and any small one that is not plainly a
    finite table of numbers, is read and checked once in ``_batch``.
    """
    bounds = _hull_rows(points)
    if bounds is None:
        from . import _batch

        bounds = _batch._hull_bounds(points)
    return GeodesicRegion(*bounds, eps=eps)


def _hull_rows(points):
    """(lower, upper, diff) of the hull of a list or tuple of points, as
    float tuples and lists: the column minima and maxima, and
    min_p (p_i - p_j).  None when the points are above _SMALL_WORK, are not
    a list or tuple of n-tuples of finite floats and ints, or a difference
    overflows, so that ``_batch`` reads them and raises its own error.

    The size is taken from len(points) and len(points[0]) before anything
    is converted, so a large list pays nothing here."""
    if not (type(points) in _SEQS and points and type(points[0]) in _SEQS):
        return None
    m, n = len(points), len(points[0])
    if m * n * n > _SMALL_WORK or (n + 1) ** 3 > _SMALL_WORK or not _table(points, n):
        return None
    try:
        cols = [list(map(float, c)) for c in zip(*points)]
    except OverflowError:  # an int past float64
        return None
    if not all(map(math.isfinite, chain.from_iterable(cols))):
        return None
    diff = [[min(map(sub, ci, cj)) for cj in cols] for ci in cols]
    if not all(map(math.isfinite, chain.from_iterable(diff))):
        return None
    return tuple(map(min, cols)), tuple(map(max, cols)), diff


EDGE_NAMES = ("x=a'", "y=b'", "y-x=c'", "x=a", "y=b", "y-x=c")

POINT_ID = -1
SEGMENT_X_ID = -2
SEGMENT_Y_ID = -3
SEGMENT_DIAG_ID = -4


class Shape2DType(_Record):
    """Combinatorial type of a planar region.

    ``kind`` is ``polygon``, ``point``, ``segment-x``, ``segment-y`` or
    ``segment-diag``.  For polygons, ``present_edges`` indexes EDGE_NAMES in
    boundary order and ``canonical_id`` encodes the missing edges as a
    bitmask (so the full hexagon has id 0).  Degenerate kinds get negative
    ids of their own.
    """

    __slots__ = ("kind", "present_edges", "edge_count", "canonical_id")

    def __init__(
        self, kind: str, present_edges: tuple[int, ...], edge_count: int, canonical_id: int
    ):
        _setfield(self, "kind", kind)
        _setfield(self, "present_edges", present_edges)
        _setfield(self, "edge_count", edge_count)
        _setfield(self, "canonical_id", canonical_id)


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
