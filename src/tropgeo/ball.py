"""The min-plus unit ball, its faces, and the intrinsic sphere geometry.

The unit ball centered at the origin of R^n is the polytope
``|x_i| <= 1, |x_i - x_j| <= 1``.  It has n(n+1) facets and 2^(n+1) - 2
vertices (the nonzero 0/1 and 0/-1 vectors), and it is a zonotope: every
member splits as a nonnegative combination of the n+1 unit directions
e_1 ... e_n and -(1,...,1).
"""

from __future__ import annotations

import itertools

from .core import (
    DEFAULT_EPS,
    DimensionMismatch,
    DomainError,
    Point,
    _dist,
    _finite_point,
    _norm,
    _Record,
    _as_dim,
    _capped_dim,
    _as_int,
    _as_radius,
    _setfield,
    as_point,
    check_eps,
    dist,
)


class Ball(_Record):
    """A min-plus ball given by center and radius."""

    __slots__ = ("center", "radius")

    def __init__(self, center: Point, radius: float = 1.0):
        _setfield(self, "center", as_point(center))
        _setfield(self, "radius", _as_radius(radius))


def unit_ball(n: int) -> Ball:
    n = _as_dim(n)
    return Ball((0.0,) * n, 1.0)


def units(n: int) -> tuple[Point, ...]:
    """The n+1 unit directions: e_1 ... e_n and the all -1 vector."""
    n = _as_dim(n)
    basis = [tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n)]
    basis.append((-1.0,) * n)
    return tuple(basis)


def neg_units(n: int) -> tuple[Point, ...]:
    """Negated unit directions: -e_1 ... -e_n and the all 1 vector."""
    return tuple(tuple(-v for v in u) for u in units(n))


def contains(ball: Ball, x, eps: float = DEFAULT_EPS) -> bool:
    check_eps(eps)
    return dist(ball.center, x) <= ball.radius + eps


def hrep(ball: Ball, eps: float = DEFAULT_EPS):
    """Ball as a canonical GeodesicRegion (already tight as written);
    DomainError above _MAX_HREP_DIM."""
    # geodesy loads here, on the first region: the ball decompositions and
    # locate build none
    from .geodesy import GeodesicRegion

    c = ball.center
    r = ball.radius
    n = _hrep_dim(len(c))
    lo = tuple(v - r for v in c)
    up = tuple(v + r for v in c)
    diff = [
        [(c[i] - c[j]) - r if i != j else 0.0 for j in range(n)] for i in range(n)
    ]
    return GeodesicRegion(lo, up, diff, eps=eps)


# The largest dimensions whose vertex and facet lists are built whole, so
# that each list stays under about 64 MB: 2^18 - 2 vertices at n = 17 take
# 46 MiB, and 640,800 facets at n = 800 take 57 MiB.  iter_vertices holds
# one vertex at a time and has no cap.
_MAX_VERTEX_DIM = 17
_MAX_FACET_DIM = 800


# The largest dimension of a ball written as a bound system.  Its region
# holds n^2 difference bounds as float tuples, about 61 MiB at n = 800 (the
# process's peak RSS above the interpreter with numpy loaded), and its
# closure is O(n^3), about 0.8 s there on a 2-core host.
_MAX_HREP_DIM = 800


def _hrep_dim(n) -> int:
    """n checked as hrep's dimension: DomainError below 1 or above
    _MAX_HREP_DIM."""
    return _capped_dim(n, _MAX_HREP_DIM, "balls are written as bound systems")


def iter_vertices(n: int):
    """Vertices of the unit ball at the origin, 0/1 vectors first, as a
    lazy iterator.  The dimension is checked here, at the call, not on the
    first ``next()``."""
    return _vertices(_as_dim(n))


def _vertices(n: int):
    for high in (1.0, -1.0):
        for combo in itertools.product((0.0, high), repeat=n):
            if any(combo):
                yield combo


def vertices(n: int) -> list[Point]:
    """The 2^(n+1) - 2 vertices as a list; DomainError above
    _MAX_VERTEX_DIM, where iter_vertices still runs."""
    return list(iter_vertices(_capped_dim(n, _MAX_VERTEX_DIM, "vertices are listed")))


class FacetId(_Record):
    """One facet of the unit ball: upper(i), lower(i), or diff(i, j).

    Indices are 1-based.  upper(i) supports x_i = 1, lower(i) supports
    x_i = -1, diff(i, j) supports x_i - x_j = 1.
    """

    __slots__ = ("kind", "i", "j")

    def __init__(self, kind: str, i: int, j: int | None = None):
        if kind not in ("upper", "lower", "diff"):
            raise DomainError("facet kind must be upper, lower or diff")
        i = _as_int("facet index", i)
        if i < 1:
            raise DomainError("facet indices are 1-based")
        if kind == "diff":
            if j is not None:
                j = _as_int("facet index", j)
            if j is None or j < 1 or j == i:
                raise DomainError("diff facet needs two distinct indices")
        elif j is not None:
            raise DomainError("%s facet takes a single index" % kind)
        _setfield(self, "kind", kind)
        _setfield(self, "i", i)
        _setfield(self, "j", j)

    def __str__(self):
        if self.kind == "diff":
            return "diff(%d,%d)" % (self.i, self.j)
        return "%s(%d)" % (self.kind, self.i)


def facets(n: int) -> list[FacetId]:
    """All n(n+1) facets, uppers then lowers then diff pairs; DomainError
    above _MAX_FACET_DIM."""
    return list(_facets(_capped_dim(n, _MAX_FACET_DIM, "facets are listed")))


def _facets(n: int):
    for kind in ("upper", "lower"):
        for i in range(1, n + 1):
            yield FacetId(kind, i)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                yield FacetId("diff", i, j)


def opposite(f: FacetId) -> FacetId:
    """The antipodal facet: negating a facet's points lands on this one."""
    if f.kind == "upper":
        return FacetId("lower", f.i)
    if f.kind == "lower":
        return FacetId("upper", f.i)
    return FacetId("diff", f.j, f.i)


def facet_contains(f: FacetId, x, eps: float = DEFAULT_EPS) -> bool:
    """Membership of x in one closed facet of the unit sphere."""
    check_eps(eps)
    px = as_point(x)
    n = len(px)
    if f.i > n or (f.j is not None and f.j > n):
        raise DimensionMismatch("facet index exceeds point dimension")
    if f.kind == "upper":
        xi = px[f.i - 1]
        if abs(xi - 1.0) > eps:
            return False
        return all(-eps <= v <= 1.0 + eps for v in px)
    if f.kind == "lower":
        xi = px[f.i - 1]
        if abs(xi + 1.0) > eps:
            return False
        return all(-1.0 - eps <= v <= eps for v in px)
    xi = px[f.i - 1]
    xj = px[f.j - 1]
    if abs(xi - xj - 1.0) > eps:
        return False
    if not (-eps <= xi <= 1.0 + eps):
        return False
    return all(xj - eps <= v <= xi + eps for v in px)


def facet_of(x, eps: float = DEFAULT_EPS) -> list[FacetId]:
    """All facets through a point of the unit sphere, in facets() order.

    The tests of facet_contains, with the whole-point range tests read once
    from max(x) and min(x): upper(i) is |x_i - 1| <= eps with min(x) >= -eps
    and max(x) <= 1 + eps, and lower(i) is |x_i + 1| <= eps with min(x) >=
    -1 - eps and max(x) <= eps.  diff(i, j) is |x_i - x_j - 1| <= eps with
    -eps <= x_i <= 1 + eps and every coordinate in [x_j - eps, x_i + eps],
    that is max(x) <= x_i + eps and x_j - eps <= min(x).  So a call is O(n)
    plus one O(1) test per pair of a coordinate near the max and one near
    the min, most of which are facets through x.
    """
    check_eps(eps)
    px = as_point(x)
    if abs(_norm(px) - 1.0) > eps:
        raise DomainError("point is not on the unit sphere")
    top, bottom = max(px), min(px)
    coords = list(enumerate(px, 1))
    found = []
    if -eps <= bottom and top <= 1.0 + eps:
        found += [FacetId("upper", i) for i, v in coords if abs(v - 1.0) <= eps]
    if -1.0 - eps <= bottom and top <= eps:
        found += [FacetId("lower", i) for i, v in coords if abs(v + 1.0) <= eps]
    tops = [(i, v) for i, v in coords if top <= v + eps and -eps <= v <= 1.0 + eps]
    bottoms = [(j, v) for j, v in coords if v - eps <= bottom]
    found += [
        FacetId("diff", i, j)
        for i, xi in tops
        for j, xj in bottoms
        if i != j and abs(xi - xj - 1.0) <= eps
    ]
    return found


def is_diametral_pair(ball: Ball, p, q, eps: float = DEFAULT_EPS) -> bool:
    """True when two sphere points realize the diameter 2R."""
    check_eps(eps)
    dp = dist(ball.center, p)
    dq = dist(ball.center, q)
    if abs(dp - ball.radius) > eps or abs(dq - ball.radius) > eps:
        raise DomainError("both points must lie on the sphere")
    return dist(p, q) >= 2.0 * ball.radius - eps


def minkowski_coeffs(x, eps: float = DEFAULT_EPS) -> tuple[float, ...]:
    """Coefficients a_1 ... a_{n+1} in [0,1] with x = sum a_k * units(n)[k].

    The last coefficient weights the all -1 direction.  Fails for points
    outside the unit ball at the origin.
    """
    check_eps(eps)
    px = as_point(x)
    if _norm(px) > 1.0 + eps:
        raise DomainError("point lies outside the unit ball")
    m = min(0.0, min(px))
    return tuple(v - m for v in px) + (0.0 - m,)


def zonotope_point(coeffs) -> Point:
    """Recombine minkowski_coeffs back into the point they came from;
    DomainError when a coordinate overflows float64."""
    a = as_point(coeffs)
    if len(a) < 2:
        raise DomainError("need at least two coefficients")
    last = a[-1]
    return _finite_point(tuple(v - last for v in a[:-1]))


def orthant_of(x, eps: float = DEFAULT_EPS) -> tuple[int, ...]:
    """1-based indices of the closed orthant pieces containing x.

    Index k <= n means coordinate k attains the minimum of (x, 0); index
    n+1 means 0 does.  Interior points of the ball pieces give a single
    index; ties list every minimizer.
    """
    check_eps(eps)
    px = as_point(x)
    h = px + (0.0,)
    m = min(h)
    return tuple(k + 1 for k, v in enumerate(h) if v <= m + eps)


def generator_coeffs(x, eps: float = DEFAULT_EPS) -> tuple[float, ...]:
    """Weights l_1 ... l_{n+1} expressing x as a min-plus combination of
    neg_units(n): x_k = min_i (l_i + neg_units[i][k])."""
    check_eps(eps)
    px = as_point(x)
    if _norm(px) > 1.0 + eps:
        raise DomainError("point lies outside the unit ball")
    return tuple(1.0 + v for v in px) + (0.0,)


def eval_trop_combination(coeffs, generators) -> Point:
    """Evaluate a min-plus combination: coordinatewise min of coeff + generator.

    The coefficients are read as a point is, so one that is not a finite
    real raises DomainError, and so does a result that overflows float64.
    """
    a = as_point(coeffs)
    gens = [as_point(g) for g in generators]
    if len(a) != len(gens):
        raise DimensionMismatch("one coefficient per generator required")
    if not gens:
        raise DomainError("need at least one generator")
    n = len(gens[0])
    for g in gens:
        if len(g) != n:
            raise DimensionMismatch("generators have mixed dimensions")
    out = tuple(min(a[i] + g[k] for i, g in enumerate(gens)) for k in range(n))
    return _finite_point(out, "the combination")


def pole_distances(x, eps: float = DEFAULT_EPS) -> tuple[float, float]:
    """Intrinsic sphere distances from x to the poles (1,...,1) and
    (-1,...,-1).  The two always sum to 3."""
    check_eps(eps)
    px = as_point(x)
    if abs(_norm(px) - 1.0) > eps:
        raise DomainError("point is not on the unit sphere")
    mx = max(px)
    mn = min(px)
    if mx <= eps:
        return 2.0 - mx, 1.0 + mx
    return 1.0 - mn, 2.0 + mn


def sphere_position_2d(x, center=(0.0, 0.0), eps: float = DEFAULT_EPS) -> float:
    """Arc-length position in [0, 6) along the planar unit sphere.

    The hexagon boundary is traversed from (1,0) through (1,1), (0,1),
    (-1,0), (-1,-1), (0,-1); every edge has min-plus length 1.
    """
    check_eps(eps)
    px = as_point(x)
    pc = as_point(center)
    if len(px) != 2 or len(pc) != 2:
        raise DimensionMismatch("sphere walk is planar only")
    # _dist raises DomainError when x - center overflows float64
    if abs(_dist(px, pc) - 1.0) > eps:
        raise DomainError("point is not on the unit sphere")
    q0 = px[0] - pc[0]
    q1 = px[1] - pc[1]

    def clamp(v):
        return min(1.0, max(0.0, v))

    if abs(q0 - 1.0) <= eps and -eps <= q1 <= 1.0 + eps:
        return 0.0 + clamp(q1)
    if abs(q1 - 1.0) <= eps and -eps <= q0 <= 1.0 + eps:
        return 1.0 + clamp(1.0 - q0)
    if abs(q1 - q0 - 1.0) <= eps and -1.0 - eps <= q0 <= eps:
        return 2.0 + clamp(-q0)
    if abs(q0 + 1.0) <= eps and -1.0 - eps <= q1 <= eps:
        return 3.0 + clamp(-q1)
    if abs(q1 + 1.0) <= eps and -1.0 - eps <= q0 <= eps:
        return 4.0 + clamp(q0 + 1.0)
    if abs(q0 - q1 - 1.0) <= eps and -eps <= q0 <= 1.0 + eps:
        return 5.0 + clamp(q0)
    raise DomainError("point is not on the unit sphere")


def intrinsic_distance_2d(center, x, y, eps: float = DEFAULT_EPS) -> float:
    """Length of the shorter boundary arc between two planar sphere points."""
    sx = sphere_position_2d(x, center, eps)
    sy = sphere_position_2d(y, center, eps)
    gap = abs(sx - sy)
    return min(gap, 6.0 - gap)


def angle_2d(p, v1, v2, eps: float = DEFAULT_EPS) -> float:
    """Angle at p between the rays along v1 and v2: the intrinsic distance
    between the points where the rays pierce the unit sphere at p.

    Values lie in [0, 3]; the two coordinate axes and the diagonal
    direction -(1,1) are pairwise at angle 2.  For the angle between full
    lines take the min of this over v2 and -v2.  The angle depends on the
    directions alone, so it is taken at the origin, where no magnitude of
    p can round them away.
    """
    check_eps(eps)
    if len(as_point(p)) != 2:
        raise DimensionMismatch("angles are planar only")
    out = []
    for v in (v1, v2):
        pv = as_point(v)
        if len(pv) != 2:
            raise DimensionMismatch("directions must be planar")
        nv = _norm(pv)
        if nv <= eps:
            raise DomainError("direction vector must be nonzero")
        out.append((pv[0] / nv, pv[1] / nv))
    return intrinsic_distance_2d((0.0, 0.0), out[0], out[1], eps)
