"""Shared samplers and independent oracles for the test suite."""

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import tropgeo as tg
from tropgeo import _batch, ball, honeycomb
from tropgeo.core import DomainError, Point, _as_int, _dist, _pair, as_point
from tropgeo.honeycomb import Center


def ball_points(n, m, rng):
    """m random points of the unit ball, via its zonotope map.

    Every point of the ball is a [0,1]-combination of the n+1 unit
    directions, so uniform coefficients sweep the whole body (not
    uniformly, but with full support).
    """
    A = rng.uniform(0.0, 1.0, (m, n + 1))
    return A @ np.array(tg.units(n))


def sphere_points(n, m, rng):
    """Random points with norm exactly 1, by radially scaling ball points."""
    X = ball_points(n, m, rng)
    nrm = np.maximum(X.max(axis=1), 0.0) - np.minimum(X.min(axis=1), 0.0)
    keep = nrm > 1e-6
    return X[keep] / nrm[keep][:, None]


def dist_oracle(x, y):
    """Exhaustive max over homogeneous index pairs.

    This is the projective definition evaluated directly, an independent
    route to the same number as dist().
    """
    dx = [a - b for a, b in zip(x, y)] + [0.0]
    return max(dx[i] - dx[j] for i in range(len(dx)) for j in range(len(dx)))


def as_point_oracle(coords) -> Point:
    """core.as_point as first written: a generator of float() calls and a
    per-coordinate finiteness loop, the reference for its exceptions,
    messages and tuples."""
    try:
        pt = tuple(float(v) for v in coords)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError("a point must be a sequence of real numbers: %s" % exc) from None
    if not pt:
        raise DomainError("a point needs at least one coordinate")
    for v in pt:
        if not math.isfinite(v):
            raise DomainError("coordinates must be finite, got %r" % (pt,))
    return pt


def segment_oracle(x, y, mode: str = "min") -> tg.TropSegment:
    """core.segment as first written: every vertex built by calls to the
    builtin min or max, one coordinate at a time.  The reference that the
    library's segment must match bit for bit."""
    px, py = _pair(x, y)
    if mode == "min":
        apex = tuple(min(a, b) for a, b in zip(px, py))

        def pos(base: Point, t: float) -> Point:
            return tuple(min(z + t, b) for z, b in zip(apex, base))

        def times(base: Point) -> list[float]:
            return sorted({b - z for z, b in zip(apex, base)} | {0.0})

    elif mode == "max":
        apex = tuple(max(a, b) for a, b in zip(px, py))

        def pos(base: Point, t: float) -> Point:
            return tuple(max(z - t, b) for z, b in zip(apex, base))

        def times(base: Point) -> list[float]:
            return sorted({z - b for z, b in zip(apex, base)} | {0.0})

    else:
        raise DomainError("mode must be 'min' or 'max', got %r" % (mode,))

    chain: list[Point] = []
    for t in reversed(times(px)):
        chain.append(pos(px, t))
    for t in times(py):
        chain.append(pos(py, t))
    # unit-speed arithmetic can land an ulp short of an endpoint when
    # coordinate magnitudes differ wildly; the chain must start and end
    # at the inputs themselves
    chain[0] = px
    chain[-1] = py
    deduped = [chain[0]]
    for p in chain[1:]:
        if p != deduped[-1]:
            deduped.append(p)
    return tg.TropSegment(
        start=px, end=py, apex=apex, vertices=tuple(deduped), mode=mode
    )


def random_pl_geodesic(x, y, rng, max_splits=3):
    """A shortest path made of shuffled sub-pieces of the canonical chain.

    Each straight edge of the min chain is split into up to max_splits
    equal parts and the parts are concatenated in random order.  The
    result has the same total length, so it is again a shortest path.
    """
    seg = tg.segment(x, y)
    pieces = []
    for a, b in zip(seg.vertices, seg.vertices[1:]):
        q = int(rng.integers(1, max_splits + 1))
        step = tuple((vb - va) / q for va, vb in zip(a, b))
        pieces.extend([step] * q)
    out = [tuple(map(float, x))]
    for idx in rng.permutation(len(pieces)):
        out.append(tuple(a + b for a, b in zip(out[-1], pieces[idx])))
    return out


def independent_masks():
    """All subsets of the 6-cycle's edges with no two adjacent, as bitmasks."""
    masks = []
    for mask in range(64):
        chosen = [k for k in range(6) if mask >> k & 1]
        if all((k + 1) % 6 not in chosen for k in chosen):
            masks.append(mask)
    return masks


def batch_norm(X):
    """Vectorized norm of each row of X."""
    X = np.asarray(X, dtype=float)
    return np.maximum(X.max(axis=1), 0.0) - np.minimum(X.min(axis=1), 0.0)


def batch_dist(X, Y):
    """Vectorized dist between paired rows of X and Y."""
    return batch_norm(np.asarray(X, dtype=float) - np.asarray(Y, dtype=float))


def facet_of_oracle(x, eps=tg.DEFAULT_EPS):
    """facet_of as first written: every one of the n(n+1) facets, in
    facets() order, tested by facet_contains, so O(n^3) per point."""
    px = as_point(x)
    if abs(ball._norm(px) - 1.0) > eps:
        raise DomainError("point is not on the unit sphere")
    return [f for f in ball._facets(len(px)) if ball.facet_contains(f, px, eps)]


def containing_count_oracle(X, F, eps):
    """Per row of X, the tiling centers F + b within 1 + eps, over all 2^n b.

    Tries every 0/1 offset of the floors F and keeps those whose coordinate
    sum is divisible by n+1: the exhaustive count that the honeycomb's
    weight-r enumeration must reproduce.  The sum is taken over the integers
    in int64, since a float64 sum rounds past 2^53.  The offsets go in
    chunks, each one (rows, offsets, n) broadcast of about 2^20 elements,
    so that all 2^16 offsets at n = 16 take about a second.
    """
    m, n = X.shape
    count = np.zeros(m, dtype=np.int64)
    floor_sum = F.astype(np.int64).sum(axis=1)[:, None]
    offsets = itertools.product((0.0, 1.0), repeat=n)
    step = max(1, (1 << 20) // (m * n))
    while chunk := list(itertools.islice(offsets, step)):
        bits = np.array(chunk)
        ok = (floor_sum + bits.sum(axis=1).astype(np.int64)) % (n + 1) == 0
        cd = X[:, None, :] - (F[:, None, :] + bits)
        cdist = np.maximum(cd.max(axis=2), 0.0) - np.minimum(cd.min(axis=2), 0.0)
        ok &= cdist <= 1.0 + eps
        count += ok.sum(axis=1)
    return count


def stable_rank_oracle(f):
    """Per column of the (n, m) array f, each entry's position in a stable
    ascending sort of the column, from two argsorts: the stable sort's
    order, then its inverse permutation."""
    return np.argsort(np.argsort(f, axis=0, kind="stable"), axis=0, kind="stable")


def exact_distance(center, x) -> float:
    """The norm of center - x with each coordinate's difference rounded
    once from its exact rational value: the distance the decoder must give,
    also past 2^53, where ``_dist`` rounds an int center coordinate to a
    float before it subtracts."""
    deltas = [float(Fraction(c) - Fraction(v)) for c, v in zip(center, x)]
    return max(max(deltas), 0.0) - min(min(deltas), 0.0)


def fast_center_oracle(x, eps: float):
    """honeycomb._fast_center as first written: a per-coordinate round and
    floor loop, a generator for the center, and the exact distance over all
    n deltas.  The reference that the library's decoder must match bit for
    bit: its center, its snapped flag and the bytes of its distance."""
    n = len(x)
    floors = []
    snapped = False
    for v in x:
        r = round(v)
        if abs(v - r) <= eps:
            snapped = True
            floors.append(r)
        else:
            floors.append(math.floor(v))
    k = sum(floors) % (n + 1)
    fracs = [v - f for v, f in zip(x, floors)]
    # raise no coordinate when k == 0, else all but the k - 1 with the
    # smallest fractional parts (a stable sort breaks ties by index)
    raised = [0 if k == 0 else 1] * n
    if k > 1:
        for i in sorted(range(n), key=fracs.__getitem__)[: k - 1]:
            raised[i] = 0
    center = tuple(f + b for f, b in zip(floors, raised))
    return center, exact_distance(center, x), snapped


def snap_by_rounding(x, eps: float):
    """(floors, snapped) of fast_center_rounding_oracle: every coordinate
    rounded, and one within eps of its nearest integer floored to it."""
    R = list(map(round, x))
    snapped = min(map(abs, map(operator.sub, x, R))) <= eps
    if snapped:
        floors = [r if abs(v - r) <= eps else math.floor(v) for v, r in zip(x, R)]
    else:
        floors = list(map(math.floor, x))
    return floors, snapped


def fast_center_rounding_oracle(x, eps: float):
    """honeycomb._fast_center before its snap filter: it rounds every
    coordinate and measures |x - round(x)| before it takes any floor.  The
    reference rule that the filtered decoder, scalar and batch, must match
    bit for bit on every point: center, snapped flag and distance bytes,
    the distance being the exact one."""
    floors, snapped = snap_by_rounding(x, eps)
    n = len(x)
    k = sum(floors) % (n + 1)
    if k < 2:
        center = tuple(floors) if k == 0 else tuple([f + 1 for f in floors])
        return center, exact_distance(center, x), snapped
    fracs = list(map(operator.sub, x, floors))
    order = sorted(range(n), key=fracs.__getitem__)
    raised = [1] * n
    for i in order[: k - 1]:
        raised[i] = 0
    center = tuple(map(operator.add, floors, raised))
    return center, exact_distance(center, x), snapped


def locate_enumeration_oracle(x, eps=tg.DEFAULT_EPS):
    """locate_bruteforce as first written: every offset of the integers
    near x in ``itertools.product`` over the per-coordinate ranges, 3^n at
    an integer point.  The reference for the list, and its order, that the
    closed form must return, except at a point whose distance from a center
    rounds to exactly 1 + eps: there the ranges, rounded apart from the
    distance test, can drop that center."""
    px = tg.as_point(x)
    n = len(px)
    F, u = honeycomb._local_frame(px)
    r = -sum(F) % (n + 1)
    ranges = [
        range(math.ceil(v - 1.0 - eps), math.floor(v + 1.0 + eps) + 1) for v in u
    ]
    out = []
    for off in itertools.product(*ranges):
        if sum(off) % (n + 1) != r:
            continue
        if _dist(off, u) <= 1.0 + eps:
            out.append(tuple(f + o for f, o in zip(F, off)))
    return out


def chart_cover_oracle(x, eps=tg.DEFAULT_EPS):
    """Every tiling center within 1 + eps of x, sorted, from the unit ball as
    n+1 hypercube charts: a completeness judge that reaches n = 32.

    The unit ball is the union of the n+1 parallelepipeds spanned by n of
    the directions e_1, ..., e_n, -(1, ..., 1) with coefficients in [0, 1].
    Chart k drops one direction and maps z to its coefficients t(z): z
    itself when the dropped one is -(1, ..., 1); when it is e_k, -z_k in
    place k and z_i - z_k elsewhere.  With x = F + u and c = F + off, x - c
    lies in chart k scaled by 1 + eps exactly when the integer vector
    t(off) lies in [t(u) - 1 - eps, t(u)], since t is linear and
    unimodular.  The box is widened by eps on each side against the
    rounding of t(u), and each candidate is then kept when it is a lattice
    point within 1 + eps.  The cost is exponential only in the chart
    coordinates near an integer, and neither the decoder nor the offset
    enumeration is used.  Worked in honeycomb's frame of the nearest
    integers, so it is exact at every magnitude.
    """
    px = tg.as_point(x)
    n = len(px)
    F, u = honeycomb._local_frame(px)
    found = set()
    for k in range(n + 1):
        y = u if k == n else [-u[k] if i == k else u[i] - u[k] for i in range(n)]
        ranges = [range(math.ceil(v - 1.0 - 2 * eps), math.floor(v + eps) + 1) for v in y]
        for m in itertools.product(*ranges):
            off = m if k == n else [-m[k] if i == k else m[i] - m[k] for i in range(n)]
            c = tuple(f + o for f, o in zip(F, off))
            if sum(c) % (n + 1) == 0 and _dist(off, u) <= 1.0 + eps:
                found.add(c)
    return sorted(found)


def _ordered_partitions(items):
    """Every ordered partition of items into nonempty blocks (a Fubini
    number of them: 1, 3, 13, 75, 541 for 1..5 items)."""
    if not items:
        yield ()
        return
    for size in range(1, len(items) + 1):
        for first in itertools.combinations(items, size):
            rest = [i for i in items if i not in first]
            for tail in _ordered_partitions(rest):
                yield (first, *tail)


def alcove_faces(n, seed, denominator=1024):
    """Two random dyadic points on each face of the alcove arrangement of
    R^n, up to translation by the tiling lattice.

    The breakpoints of dist(c, x) for every integer c lie on the hyperplanes
    x_i in Z and x_i - x_j in Z, so the centers containing x, taken relative
    to the floors of x, are the same on each relatively open face of that
    arrangement.  A face is fixed by the ordered partition of the
    coordinates by fractional part, by whether the smallest part is 0, and
    by the sum of the floors mod (n+1): 18 / 104 / 750 / 6492 faces at
    n = 2..5.  Yields ((blocks, at_zero, residue), (x, y)), the face and its
    two points, whose fractional parts are distinct multiples of
    1/denominator in the face's order.  Every difference of such points and
    integers is exact in float64, so no eps above 0 decides a test.
    """
    rng = random.Random(seed)
    for blocks in _ordered_partitions(list(range(n))):
        for at_zero in (True, False):
            for residue in range(n + 1):
                pts = []
                for _ in range(2):
                    parts = sorted(rng.sample(range(1, denominator), len(blocks) - at_zero))
                    if at_zero:
                        parts.insert(0, 0)
                    F = [rng.randint(-4, 4) for _ in range(n)]
                    F[0] += (residue - sum(F)) % (n + 1)
                    x = [0.0] * n
                    for block, part in zip(blocks, parts):
                        for i in block:
                            x[i] = F[i] + part / denominator
                    pts.append(tuple(x))
                yield (blocks, at_zero, residue), tuple(pts)


def tiling_report_oracle(n, box_halfwidth, samples, seed, eps):
    """verify_tiling's report from the scalar locate and the exhaustive count.

    Draws each shard of _batch._SHARD_SIZE samples whole with
    ``uniform`` from the substream (seed, shard), takes each sample's status
    and distance from ``tg.locate``, and its number of containing centers
    from containing_count_oracle, or from locate's all_centers when a
    coordinate is within eps of an integer, as verify_tiling does.  Then
    applies verify_tiling's mismatch rule.
    """
    shard_size = _batch._SHARD_SIZE
    interior = mismatches = 0
    for shard, start in enumerate(range(0, samples, shard_size)):
        m = min(shard_size, samples - start)
        X = np.random.default_rng([seed, shard]).uniform(-box_halfwidth, box_halfwidth, (m, n))
        R = np.round(X)
        near = np.abs(X - R) <= eps
        counts = containing_count_oracle(X, np.floor(np.where(near, R, X)), eps)
        for row, snapped, count in zip(X.tolist(), near.any(axis=1), counts.tolist()):
            res = tg.locate(row, eps)
            if snapped:
                count = len(res.all_centers)
            if res.status == "interior":
                interior += 1
                mismatches += count != 1
            else:
                d = res.distance
                mismatches += d > 1.0 + eps or (count < 2 and abs(d - 1.0) > eps)
    return tg.TilingReport(n, samples, box_halfwidth, seed, interior, samples - interior, mismatches)


def facet_neighbors_oracle(c, halfwidth=2, eps=tg.DEFAULT_EPS):
    """Lattice centers whose ball meets the ball at c in an (n-1)-dim region.

    Searches every move with entries in [-halfwidth, halfwidth], builds the
    intersection of the two balls and keeps the moves where it has affine
    dimension n-1: a search over (2 halfwidth + 1)^n candidates, an
    independent route to the closed-form neighbors.  Returned sorted.
    """
    cc = tuple(c)
    n = len(cc)
    own = tg.hrep(tg.Ball(cc))
    found = []
    for delta in itertools.product(range(-halfwidth, halfwidth + 1), repeat=n):
        if not any(delta) or sum(delta) % (n + 1) != 0:
            continue
        other = tuple(a + b for a, b in zip(cc, delta))
        try:
            shared = own.intersect(tg.hrep(tg.Ball(other)), eps=eps)
        except tg.EmptyRegionError:
            continue
        if shared.affine_dim(eps) == n - 1:
            found.append(other)
    return sorted(found)


def close_bounds_oracle(lower, upper, diff_lb):
    """Tighten a bound system by propagating all chained consequences.

    Node 0 stands for the constant 0, node i for x_i; entry L[i][j] is the
    best known lower bound on x_i - x_j.  Returns the closed matrix.  A
    pure-Python Floyd-Warshall over lists, updating in place, as an
    independent route to the library's vectorized closure.
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


def contains_batch_oracle(region, X, eps):
    """Row-major bulk membership: every ordered pair i != j tested with its
    own difference, across all rows at once, as an independent route to the
    library's chunked, coordinate-major contains_batch.  A bool array."""
    A = np.asarray(X, dtype=float)
    if A.ndim != 2 or A.shape[1] != region.dim:
        raise tg.DimensionMismatch("expected an (m, %d) array" % region.dim)
    lo = np.array(region.lower)
    up = np.array(region.upper)
    ok = np.all(A >= lo - eps, axis=1) & np.all(A <= up + eps, axis=1)
    n = region.dim
    # a difference that overflows is +-inf, which compares as the exact one
    with np.errstate(over="ignore"):
        for i in range(n):
            for j in range(n):
                if i != j:
                    ok &= (A[:, i] - A[:, j]) >= (region.diff_lb[i][j] - eps)
    return ok


def region_point(region, rng) -> Point:
    """A point of a GeodesicRegion, one coordinate at a time within the
    bounds the earlier choices leave open, each drawn by
    ``rng.uniform(lo, up)``.  Covers the region, not uniformly."""
    out: list[float] = []
    for k in range(region.dim):
        lo = region.lower[k]
        up = region.upper[k]
        for j in range(k):
            lo = max(lo, region.diff_lb[k][j] + out[j])
            up = min(up, out[j] - region.diff_lb[j][k])
        if up < lo:
            up = lo
        out.append(rng.uniform(lo, up))
    return tuple(out)


def hull_iterate_oracle(points, depth, samples, seed=0):
    """Monte-Carlo betweenness closure, an independent hull oracle.

    Starting from the input points, each round draws ``samples`` random
    pairs from the current set and adds a random point lying between them.
    Every output lies in hull(points); with enough rounds the samples press
    into the whole hull.
    """
    pts = [tg.as_point(p) for p in points]
    if not pts:
        raise tg.DomainError("oracle needs at least one point")
    rng = random.Random(seed)
    current = list(pts)
    for _ in range(depth):
        fresh = []
        for _ in range(samples):
            x = current[rng.randrange(len(current))]
            y = current[rng.randrange(len(current))]
            fresh.append(region_point(tg.hull([x, y]), rng))
        current.extend(fresh)
    return current


# The seven records as they were written with @dataclass(frozen=True), before
# they moved onto core._Record: the oracles of the record parity test.  They
# keep the library's class names, so that their reprs can be compared.


@dataclass(frozen=True)
class OrthantCoords:
    """Nonnegative coordinates of a projective class relative to one orthant.

    ``omitted_index`` is the 1-based position of a minimal homogeneous entry;
    the remaining entries, shifted so the minimum sits at zero, are ``values``.
    """

    omitted_index: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class TropSegment:
    """Shortest piecewise linear chain between two points.

    The chain runs from ``start`` through the ``apex`` (coordinatewise min or
    max of the endpoints, by ``mode``) to ``end``; ``vertices`` lists its
    breakpoints in travel order, at most 2n+1 of them.
    """

    start: Point
    end: Point
    apex: Point
    vertices: tuple[Point, ...]
    mode: str

    def length(self) -> float:
        total = 0.0
        for a, b in zip(self.vertices, self.vertices[1:]):
            total += _dist(a, b)
        return total


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


@dataclass(frozen=True)
class Ball:
    """A min-plus ball given by center and radius."""

    center: Point
    radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        try:
            radius = float(self.radius)
        except (TypeError, ValueError, OverflowError):
            radius = math.nan
        if not (math.isfinite(radius) and radius > 0):
            raise DomainError("radius must be a positive real")
        object.__setattr__(self, "radius", radius)


@dataclass(frozen=True)
class FacetId:
    """One facet of the unit ball: upper(i), lower(i), or diff(i, j).

    Indices are 1-based.  upper(i) supports x_i = 1, lower(i) supports
    x_i = -1, diff(i, j) supports x_i - x_j = 1.
    """

    kind: str
    i: int
    j: int | None = None

    def __post_init__(self):
        if self.kind not in ("upper", "lower", "diff"):
            raise DomainError("facet kind must be upper, lower or diff")
        # the indices are read as the record reads them, so a non-integer
        # raises the record's DomainError
        if _as_int("facet index", self.i) < 1:
            raise DomainError("facet indices are 1-based")
        if self.kind == "diff":
            if self.j is not None:
                _as_int("facet index", self.j)
            if self.j is None or self.j < 1 or self.j == self.i:
                raise DomainError("diff facet needs two distinct indices")
        elif self.j is not None:
            raise DomainError("%s facet takes a single index" % self.kind)

    def __str__(self):
        if self.kind == "diff":
            return "diff(%d,%d)" % (self.i, self.j)
        return "%s(%d)" % (self.kind, self.i)


@dataclass(frozen=True)
class LocateResult:
    """Outcome of point location.

    ``center`` is the fast-path center; ``all_centers`` lists every center
    whose closed ball contains the point (just one in the interior case);
    ``distance`` is dist(center, x).
    """

    center: Center
    status: str  # "interior" | "boundary"
    all_centers: tuple[Center, ...]
    distance: float


@dataclass(frozen=True)
class TilingReport:
    """Summary of a randomized covering/disjointness check."""

    n: int
    samples: int
    box_halfwidth: float
    seed: int
    interior: int
    boundary: int
    mismatches: int
