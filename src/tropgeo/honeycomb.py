"""Unit balls tiling R^n: the honeycomb lattice and point location.

The centers are the integer vectors whose coordinate sum is divisible by
n+1.  Closed unit balls on these centers cover R^n and overlap only on
boundaries, so almost every point has exactly one containing ball.  locate
finds it in O(n log n) from floors and sorted fractional parts, the A_n
decoder, with a distance certificate.  Near a boundary it lists every
containing center in closed form, in O(n^2) plus n per center, with no
search over offsets; ``LocateResult.all_centers`` is that list, and the
only public one.  The facet neighbors of a ball are its center plus the
roots of A_n.  One root is checked to give a shared facet: permuting the
n+1 homogeneous coordinates, the Weyl group S_{n+1} of A_n, keeps the
tiling and moves that root onto every other.

verify_tiling checks that locator on random samples against an independent
count of the containing centers.  Its batch locator and count are numpy
kernels in ``_batch``, loaded on the first call; everything else here is
pure Python.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import combinations

from .core import (
    DEFAULT_EPS,
    DimensionMismatch,
    DomainError,
    EmptyRegionError,
    Point,
    TropgeoError,
    _Record,
    _as_int,
    _as_real,
    _capped_dim,
    as_point,
    check_eps,
)
from .ball import Ball, hrep

Center = tuple[int, ...]


def as_center(c) -> Center:
    """Validate an integer vector and return it as a tuple of ints."""
    out = []
    for v in c:
        if isinstance(v, int):
            out.append(v)
        elif isinstance(v, float) and v.is_integer():
            out.append(int(v))
        else:
            raise DomainError("lattice vectors need integer entries, got %r" % (v,))
    if not out:
        raise DomainError("a lattice vector needs at least one entry")
    return tuple(out)


def in_lattice(c) -> bool:
    """True when the integer vector is a tiling center (sum divisible by n+1)."""
    cc = as_center(c)
    return sum(cc) % (len(cc) + 1) == 0


class LocateResult(_Record):
    """Outcome of point location.

    ``center`` is the fast-path center; ``status`` is "interior" or
    "boundary"; ``all_centers`` lists, sorted, every center whose closed
    ball contains the point (just one in the interior case), and is the
    library's public list of them; ``distance`` is the distance from
    ``center`` to the point, with each coordinate's c - x rounded once
    (see _fast_center).
    """

    __slots__ = ("center", "status", "all_centers", "distance")


def _fast_center(x, eps: float):
    """Case analysis on floors: returns (center, distance, snapped_any).

    A coordinate within eps of an integer takes that integer as its floor,
    the others math.floor; k = (sum of floors) mod (n+1) says how many to
    raise.  The distance is the norm of the deltas c - x, each rounded
    once, taken in the floors' frame as (c - floor) - f with the fractional
    parts f = x - floors, so no int coordinate of c is made a float: it
    stays exact past 2^53, where dist's float of such a coordinate rounds.

    It is read from the extreme fractional parts, not from all n deltas:
    fl(c - f) falls as f grows, so the largest delta of the raised
    coordinates is 1 - (their least f), and the smallest is 1 - (their
    greatest f), and likewise 0 - f for the kept ones.  The sort that picks
    the raised coordinates lists those extremes at its ends and at the cut;
    with none or all raised, they are min and max of all f.  No delta is
    -0.0 (0 - 0.0 and 1 - 1.0 are +0.0), so the max and min of those four
    with 0.0 are the very doubles that max and min of all n deltas give,
    and the last subtraction is the one _dist makes.

    f is exact but where the floor is -1 and x is in (-1/2, 0): f = x + 1
    rounds there, into [1/2, 1].  A kept 0 - f is then -fl(x + 1) =
    fl(-1 - x), rounded once, but a raised 1 - f rounds twice (at
    x = (-0.3,) it gave 0.30000000000000004, where dist gives 0.3).  Such a
    delta, true or computed, lies in [0, 1/2], so it can only matter as the
    largest delta, and only when its f is the least raised f, ``least``: a
    raised f above least is at least 2^-53, an ulp in [1/2, 1), above it,
    so the exact x + 1 is above least too and -x below 1 - least, which is
    exact.  So when least is 1/2 or more, -1 is among the floors, and
    least's coordinate has floor -1 or another coordinate ties it, the
    deltas are taken one by one, as c - x itself where the floor is -1,
    c being -1 or 0 there.

    For k >= 2 the cut comes from the plain sort of f: the k - 1 smallest
    are kept and the rest raised, so a coordinate is raised when its f is
    above srt[k-2].  That sort is stable, as is the keyed sort of the
    indices, so srt[j] is the very double f[order[j]] and the distance keeps
    its bits.  When srt[k-2] == srt[k-1], a tie at the cut (-0.0 and 0.0
    tie), the comparison would raise too few, and the keyed stable sort
    runs to keep the tied coordinates of least index.

    The floors and f come first, and the exact snap test |x - round(x)| <= eps
    runs only on a coordinate whose computed f is at most eps or at least
    the computed 1.0 - eps.  Every coordinate that snaps is among them.  If
    the integer within eps of x is its floor, f is exact, so at most eps:
    fl(x - floor x) is exact (Sterbenz) but for x in (-1/2, 0), and there
    the nearest integer is the floor plus 1.  If it is the floor plus 1,
    the exact f is at least 1 - eps, and rounding is monotone, so the
    computed f is at least fl(1 - eps), the computed bound.  A skipped test
    would have failed, so the floors, center, distance bits and flag are
    those of rounding every coordinate first, and a point with a flagged
    coordinate keeps the floors of those that do not snap.
    """
    floors = list(map(math.floor, x))
    fracs = list(map(operator.sub, x, floors))
    lo, hi = min(fracs), max(fracs)
    far = 1.0 - eps
    snapped = False
    if lo <= eps or hi >= far:
        for i, f in enumerate(fracs):
            if eps < f < far:
                continue
            v = x[i]
            r = round(v)
            if abs(v - r) <= eps:
                snapped = True
                floors[i] = r
                fracs[i] = v - r
        if snapped:
            lo, hi = min(fracs), max(fracs)
    n = len(x)
    k = sum(floors) % (n + 1)
    if k < 2:
        # raise none (k = 0) or all (k = 1): one delta k - f per coordinate
        center = tuple(floors) if k == 0 else tuple([f + 1 for f in floors])
        d = max(k - lo, 0.0) - min(k - hi, 0.0)
        least = lo  # of the raised f, when there are any
    else:
        # raise all but the k - 1 with the smallest fractional parts
        srt = sorted(fracs)
        cut = srt[k - 2]
        least = srt[k - 1]
        d = max(1 - least, 0 - lo, 0.0) - min(0 - cut, 1 - hi, 0.0)
        if cut != least:
            center = tuple([c + (f > cut) for c, f in zip(floors, fracs)])
        else:
            # a tie at the cut: a stable sort breaks it by index, order[:k-1] kept
            order = sorted(range(n), key=fracs.__getitem__)
            raised = [1] * n
            for i in order[: k - 1]:
                raised[i] = 0
            center = tuple(map(operator.add, floors, raised))
    if k and least >= 0.5 and -1 in floors and (
        floors[fracs.index(least)] == -1 or fracs.count(least) > 1
    ):
        # c - x, rounded once, where the floor is -1 (c is -1 or 0)
        deltas = [
            c - v if b == -1 else (c - b) - f for v, b, f, c in zip(x, floors, fracs, center)
        ]
        d = max(max(deltas), 0.0) - min(min(deltas), 0.0)
    return center, d, snapped


def _local_frame(px: Point) -> tuple[Center, Point]:
    """The nearest integers R of x and u = x - R, exact at every magnitude
    since |u| <= 1/2 (x - floor(x) rounds just below 0): centers near x are
    R plus offsets in {-1, 0, 1}, so no distance rounds a lattice point."""
    R = tuple(round(v) for v in px)
    return R, tuple(v - f for v, f in zip(px, R))


def locate_bruteforce(px: Point, eps: float) -> list[Center]:
    """All tiling centers whose closed ball contains px, sorted: the list
    step of ``locate``, whose ``all_centers`` is the public list.

    The caller guarantees what ``locate`` has checked: px is a nonempty
    tuple of finite floats (``as_point``'s output) and eps a real in
    (0, 1/4) (``check_eps``).  Neither is checked again.  An eps of 1/4 or
    more gives a tie more than two offsets, and the list misses centers.
    It is not exported.  Its name stays because perfbench wraps
    ``honeycomb.locate_bruteforce`` by name and its smoke test pins one
    call per listed ``locate``; both move to a counter on ``locate``, and
    then this name can go.

    A closed form, not a search.  With R the nearest integers of x and
    u = x - R, the center R + off contains x when the d_i = off_i - u_i and
    the origin's own d = 0 spread by at most 1 + eps.  Each answer is found
    once, under the first coordinate m where d is least, the origin's first,
    and that least value lam (0 at the origin, else below 0 with off_m in
    {-1, 0}).  Every other d_i then lies in [lam, lam + 1 + eps], strictly
    above lam before m: one offset, or two on a tie, since eps < 1/4.  Of
    the coordinates with two, (r - sum of the lower offsets) mod (n+1) take
    the upper one, r = (-sum R) mod (n+1), so the center is a lattice point.
    Each bound is tested with the subtractions ``_dist`` makes, so the list
    is exactly the lattice points that ``_dist`` puts within 1 + eps of x
    in this frame.  The cost is O(n^2), plus n per answer.
    """
    n = len(px)
    R, u = _local_frame(px)
    bound = 1.0 + eps
    # d_i for the offsets -1, 0 and 1, the only ones within 1 + eps
    D = [(-1 - v, 0 - v, 1 - v) for v in u]
    r = -sum(R) % (n + 1)
    out = []
    # (m, lam), with m = -1 for the origin's coordinate
    for m, lam in [(-1, 0.0)] + [
        (m, lam) for m, ds in enumerate(D) for lam in ds[:2] if -bound <= lam < 0.0
    ]:
        low, two = [], []
        for i, ds in enumerate(D):
            # the first d_i at or above lam, strictly above it before m
            j = (bisect_right if i < m else bisect_left)(ds, lam)
            if j == 3 or ds[j] - lam > bound:
                break
            low.append(j - 1)
            if i != m and j < 2 and ds[j + 1] - lam <= bound:
                two.append(i)
        else:
            for raised in combinations(two, (r - sum(low)) % (n + 1)):
                off = low.copy()
                for i in raised:
                    off[i] += 1
                out.append(tuple(map(operator.add, R, off)))
    return sorted(out)


def locate(x, eps: float = DEFAULT_EPS) -> LocateResult:
    """Find the tiling ball containing x.

    The fast path floors the coordinates, counts how many must be rounded
    up to restore the divisibility of the sum, and rounds up the largest
    fractional parts: the A_n decoder of Conway and Sloane.  The resulting
    distance is the certificate: below 1 - eps the point is interior and the
    center unique.  Near-integer coordinates or a certificate at 1 or above
    engage the private list step ``locate_bruteforce``, which lists every
    containing center in closed form; a list without the fast-path center
    breaks the tiling theorem and raises TropgeoError.  Distances are taken
    relative to integers near x, so the answer is exact at every magnitude.
    ``all_centers`` holds every containing center on either path, and is
    the only public way to list them.
    """
    px = as_point(x)
    check_eps(eps)
    c, d, snapped = _fast_center(px, eps)
    if not snapped and d < 1.0 - eps:
        return LocateResult(c, "interior", (c,), d)
    all_centers = locate_bruteforce(px, eps)
    if c not in all_centers:
        raise TropgeoError("no containing center of %r is the fast-path center %r" % (px, c))
    # centers lie at least 2 apart (a root's norm is 2): only rounding admits a second
    status = "interior" if (d < 1.0 - eps and len(all_centers) == 1) else "boundary"
    return LocateResult(c, status, tuple(all_centers), d)


# The largest dimension whose basis is listed, n vectors of n ints, so
# that the list stays under about 64 MB: it takes 59.5 MiB at n = 2800, as
# ball's listing caps were measured (the process's peak RSS).
_MAX_BASIS_DIM = 2800


def lattice_basis(n: int) -> list[Center]:
    """A basis of the tiling lattice: e_i - e_{i+1} and (n+1) e_n;
    DomainError above _MAX_BASIS_DIM."""
    n = _capped_dim(n, _MAX_BASIS_DIM, "basis vectors are listed")
    basis = []
    for i in range(n - 1):
        v = [0] * n
        v[i] = 1
        v[i + 1] = -1
        basis.append(tuple(v))
    last = [0] * n
    last[n - 1] = n + 1
    basis.append(tuple(last))
    return basis


HEX_BASIS_2D: tuple[Center, Center] = ((2, 1), (-1, 1))


def _solve_fraction(A, B):
    """Solve A X = B over the rationals; A, B are square integer matrices.
    Returns X as Fractions or None when A is singular."""
    # imported here: fractions pulls in decimal and numbers, a cost every
    # CLI process would pay for this one rarely used helper
    from fractions import Fraction

    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(B[i][j]) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        inv = M[col][col]
        M[col] = [v / inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def spans_same_lattice(basis_a, basis_b) -> bool:
    """True when two integer bases generate the same lattice."""
    A = [list(as_center(v)) for v in basis_a]
    B = [list(as_center(v)) for v in basis_b]
    n = len(A)
    if len(B) != n or any(len(r) != n for r in A + B):
        raise DimensionMismatch("bases must be square and equally sized")
    # columns are the basis vectors
    At = [[A[j][i] for j in range(n)] for i in range(n)]
    Bt = [[B[j][i] for j in range(n)] for i in range(n)]
    for P, Q in ((At, Bt), (Bt, At)):
        X = _solve_fraction(P, Q)
        if X is None:
            return False
        if any(v.denominator != 1 for row in X for v in row):
            return False
    return True


def neighbors(c, eps: float = DEFAULT_EPS) -> list[Center]:
    """Tiling centers whose ball shares a full facet with the ball at c.

    These are the n(n+1) translates c + u_i - u_j, i != j, over the unit
    directions u = e_1, ..., e_n, -(1, ..., 1): the roots of A_n.  Permuting
    the n+1 homogeneous coordinates of (x, 0) keeps the norm (max minus min)
    and the lattice and acts transitively on the roots, so one pair of balls,
    at 0 and at rho = u_1 - u_2, decides the facet for every root and every
    c.  It must meet in a region of affine dimension n-1, or TropgeoError
    names c and c + rho.  The check runs at the origin, so it is exact at
    every magnitude.  Returned sorted."""
    cc = as_center(c)
    n = len(cc)
    check_eps(eps)
    if not in_lattice(cc):
        raise DomainError("center %r is not in the tiling lattice" % (cc,))
    u = [tuple(int(i == k) for k in range(n)) for i in range(n)] + [(-1,) * n]
    roots = [tuple(map(operator.sub, a, b)) for a in u for b in u if a != b]
    rho = roots[0]
    own, other = hrep(Ball((0,) * n)), hrep(Ball(rho))
    try:
        shared = own.intersect(other, eps=eps)
    except EmptyRegionError:
        shared = None
    if shared is None or shared.affine_dim(eps) != n - 1:
        raise TropgeoError(
            "balls at %r and %r share no facet" % (cc, tuple(map(operator.add, cc, rho)))
        )
    return sorted(tuple(map(operator.add, cc, r)) for r in roots)


# The largest n that verify_tiling checks: its count caches one take index
# per weight class, n C(n, r) bytes, so n 2^n over all classes, which is
# 42 MiB at n = 21 and would pass about 64 MB at n = 22.
_MAX_TILING_DIM = 21


class TilingReport(_Record):
    """Summary of a randomized covering/disjointness check."""

    __slots__ = ("n", "samples", "box_halfwidth", "seed", "interior", "boundary", "mismatches")


def verify_tiling(
    n: int,
    box_halfwidth: float = 10.0,
    samples: int = 100_000,
    seed: int = 0,
    eps: float = DEFAULT_EPS,
) -> TilingReport:
    """Sample uniform points and check the fast locator against enumeration.

    A sample counts as a mismatch when an interior point has more or fewer
    than one containing center, or when a boundary point's fast-path center
    is not among its containing centers.  Sampling is sharded in
    _batch._SHARD_SIZE samples; shard s uses the substream seeded by
    (seed, s), so a report depends only on (n, box, samples, seed, eps),
    not on the blocks a shard is checked in, the thread or earlier calls.
    _batch._tiling_counts draws, blocks and checks every shard.

    The enumeration evaluates dist to every floor-plus-0/1 candidate that
    is a lattice point, about 2^n / (n+1) per sample rather than 2^n;
    samples with a coordinate within eps of an integer go through
    ``locate`` instead.  The batch locator gives the same centers and
    distances as the fast path of ``locate``.

    Memory does not grow with samples, C(n, r) or the number of calls: a
    thread keeps its float64 block arrays in a workspace sized by the block
    budgets of _batch, so a call after the first maps in few new pages.  A
    thread retains about 5.9 MiB of address space after the benchmark's
    sizes at n = 3, 6 and 9, and at most 9 MiB, at n = 2, whose blocks are
    the largest at this shard size.  Threads may call this at once; each
    has its own workspace.

    n, samples and seed must be integers (anything ``operator.index``
    takes), and seed nonnegative, and box_halfwidth a real number; other
    values raise DomainError.  So does n above _MAX_TILING_DIM, past which
    the cached candidate index of all weight classes, n 2^n bytes, would
    pass about 64 MB.
    """
    n = _capped_dim(n, _MAX_TILING_DIM, "tiling checks run")
    samples = _as_int("samples", samples)
    seed = _as_int("seed", seed)
    box_halfwidth = _as_real(box_halfwidth)
    if samples < 0:
        raise DomainError("samples must be nonnegative")
    if seed < 0:
        raise DomainError("seed must be nonnegative")
    if not (math.isfinite(box_halfwidth) and box_halfwidth >= 0):
        raise DomainError("box halfwidth must be finite and nonnegative")
    if box_halfwidth > 2**53:
        # beyond 2^53 float64 no longer holds every integer, so floors and
        # lattice offsets of the samples are no longer exact
        raise DomainError("box halfwidth must be at most 2**53")
    check_eps(eps)
    from . import _batch

    interior, boundary, mismatches = _batch._tiling_counts(n, box_halfwidth, samples, seed, eps)
    return TilingReport(
        n=n,
        samples=samples,
        box_halfwidth=box_halfwidth,
        seed=seed,
        interior=interior,
        boundary=boundary,
        mismatches=mismatches,
    )


_HEX_RING = ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, -1.0), (0.0, -1.0))


def hexagon_rings(box_halfwidth: float) -> list[tuple[Center, tuple[Point, ...]]]:
    """Hexagon outlines of the planar tiling with centers inside the box.

    The list grows with the box squared, so the box is capped at 100: about
    13k rings in 13 MB."""
    w = _as_real(box_halfwidth)
    if not (math.isfinite(w) and 0 <= w <= 100):
        raise DomainError("box halfwidth must be finite and in [0, 100]")
    hi = math.floor(w)
    out = []
    for cx in range(-hi, hi + 1):
        for cy in range(-hi, hi + 1):
            if (cx + cy) % 3 != 0:
                continue
            ring = tuple((cx + vx, cy + vy) for vx, vy in _HEX_RING)
            out.append(((cx, cy), ring))
    return out
