"""Unit balls tiling R^n: the honeycomb lattice and point location.

The centers are the integer vectors whose coordinate sum is divisible by
n+1.  Closed unit balls on these centers cover R^n and overlap only on
boundaries, so almost every point has exactly one containing ball.  locate
finds it in O(n log n) from floors and sorted fractional parts, with a
distance certificate and a brute-force fallback near boundaries.  The
facet neighbors of a ball are its center plus the roots of A_n, each
checked to share a facet with it.

verify_tiling checks that locator on random samples against an independent
count of the containing centers.  Its batch locator and count are numpy
kernels in ``_batch``, loaded on the first call; everything else here is
pure Python.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    DEFAULT_EPS,
    DimensionMismatch,
    DomainError,
    Point,
    TropgeoError,
    as_point,
    check_eps,
    dist,
)
from .ball import Ball, hrep, _HEX_RING
from .geodesy import EmptyRegionError

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


def _fast_center(x, eps: float):
    """Case analysis on floors: returns (center, dist(center, x), snapped_any).

    The distance is taken between the 0/1 raises and x minus its floors,
    both exact, so it is exact at every magnitude.
    """
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
    return tuple(f + b for f, b in zip(floors, raised)), dist(raised, fracs), snapped


def _local_frame(px: Point) -> tuple[Center, Point]:
    """The floors F of x and x - F, both exact at every magnitude: centers
    near x are F plus small offsets, so no distance rounds a lattice point."""
    F = tuple(math.floor(v) for v in px)
    return F, tuple(v - f for v, f in zip(px, F))


def locate_bruteforce(x, eps: float = DEFAULT_EPS) -> list[Center]:
    """All tiling centers whose closed ball contains x, by enumeration."""
    px = as_point(x)
    n = len(px)
    F, u = _local_frame(px)
    r = -sum(F) % (n + 1)
    ranges = [
        range(math.ceil(v - 1.0 - eps), math.floor(v + 1.0 + eps) + 1) for v in u
    ]
    out = []
    for off in itertools.product(*ranges):
        if sum(off) % (n + 1) != r:
            continue
        if dist(off, u) <= 1.0 + eps:
            out.append(tuple(f + o for f, o in zip(F, off)))
    return out


def locate(x, eps: float = DEFAULT_EPS) -> LocateResult:
    """Find the tiling ball containing x.

    The fast path floors the coordinates, counts how many must be rounded
    up to restore the divisibility of the sum, and rounds up the largest
    fractional parts.  The resulting distance is the certificate: below
    1 - eps the point is interior and the center unique.  Near-integer
    coordinates or a certificate at 1 or above engage the brute-force
    enumeration.  Distances are taken relative to the floors of x, so the
    answer is exact at every magnitude.
    """
    px = as_point(x)
    check_eps(eps)
    c, d, snapped = _fast_center(px, eps)
    if not snapped and d < 1.0 - eps:
        return LocateResult(c, "interior", (c,), d)
    all_centers = locate_bruteforce(px, eps)
    if c not in all_centers:
        # imported here: a warning that should never fire is not worth the
        # logging import every CLI process would pay
        import logging

        logging.getLogger(__name__).warning(
            "fast-path center %r missed for %r; using nearest", c, px
        )
        if not all_centers:
            raise DomainError("no tiling ball contains %r" % (px,))
        F, u = _local_frame(px)
        d, c = min((dist([a - f for a, f in zip(cc, F)], u), cc) for cc in all_centers)
    status = "interior" if (d < 1.0 - eps and len(all_centers) == 1) else "boundary"
    return LocateResult(c, status, tuple(all_centers), d)


def lattice_basis(n: int) -> list[Center]:
    """A basis of the tiling lattice: e_i - e_{i+1} and (n+1) e_n."""
    if n < 1:
        raise DomainError("dimension must be at least 1")
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
    directions u = e_1, ..., e_n, -(1, ..., 1): the roots of A_n.  Each is
    checked to meet the ball at c in a region of affine dimension n-1; a
    translate that fails breaks the tiling theorem and raises TropgeoError.
    The check runs in the frame of c, so it is exact at every magnitude.
    Returned sorted."""
    cc = as_center(c)
    n = len(cc)
    check_eps(eps)
    if not in_lattice(cc):
        raise DomainError("center %r is not in the tiling lattice" % (cc,))
    u = [tuple(int(i == k) for k in range(n)) for i in range(n)] + [(-1,) * n]
    own = hrep(Ball((0,) * n))
    found = []
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            root = tuple(a - b for a, b in zip(u[i], u[j]))
            found.append(tuple(v + r for v, r in zip(cc, root)))
            try:
                shared = own.intersect(hrep(Ball(root)), eps=eps)
            except EmptyRegionError:
                shared = None
            if shared is None or shared.affine_dim(eps) != n - 1:
                raise TropgeoError("balls at %r and %r share no facet" % (cc, found[-1]))
    return sorted(found)


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


def verify_tiling(
    n: int,
    box_halfwidth: float = 10.0,
    samples: int = 100_000,
    seed: int = 0,
    eps: float = DEFAULT_EPS,
    shard_size: int = 65_536,
) -> TilingReport:
    """Sample uniform points and check the fast locator against enumeration.

    A sample counts as a mismatch when an interior point has more or fewer
    than one containing center, or when a boundary point's fast-path center
    is not among its containing centers.  Sampling is sharded; shard s uses
    the substream seeded by (seed, s), so reports are reproducible for a
    given (seed, samples, shard_size).

    Each shard is drawn and checked in blocks of at most 2^17 // n samples
    (the block budget, 1 MiB of float64), each transposed once to an (n, m)
    array, one sample per column; the blocks concatenate to the shard's
    ``uniform`` draws, so the report does not depend on the budget.  The
    batch locator is the fast path of ``locate`` on every column, with the
    stable sort of the fractional parts replaced by a rank from pairwise
    comparisons; it gives the same centers and distances.  The enumeration
    tests, for each sample, every floor-plus-0/1 candidate that is a lattice
    point: the C(n, r) offsets of weight r = (-sum of floors) mod (n+1),
    about 2^n / (n+1) per sample rather than 2^n, read from cached read-only
    bool blocks.  Samples with a coordinate within eps of an integer go
    through ``locate`` instead.  The candidates are evaluated in numpy
    broadcasts cut into chunks of at most 2^18 elements (2 MiB of float64).

    Every array of a block lives in a workspace of the calling thread that
    is kept between calls and sized by those two budgets, so a call after
    the first allocates no large array and maps in no new pages.  Memory
    does not grow with samples, shard_size, C(n, r) or the number of calls;
    a thread retains about 8 MiB of address space after blocks of the
    benchmark's sizes at n = 3, 6 and 9, and at most about 18 MiB, at n = 1.
    Threads may call this at once; each has its own workspace.
    """
    if n < 1:
        raise DomainError("dimension must be at least 1")
    if samples < 0:
        raise DomainError("samples must be nonnegative")
    if shard_size < 1:
        raise DomainError("shard_size must be at least 1")
    if not (math.isfinite(box_halfwidth) and box_halfwidth >= 0):
        raise DomainError("box halfwidth must be finite and nonnegative")
    if box_halfwidth > 2**53:
        # beyond 2^53 float64 no longer holds every integer, so floors and
        # lattice offsets of the samples are no longer exact
        raise DomainError("box halfwidth must be at most 2**53")
    check_eps(eps)
    from . import _batch

    interior = boundary = mismatches = 0
    for shard, done in enumerate(range(0, samples, shard_size)):
        m = min(shard_size, samples - done)
        for X in _batch._sample_blocks(seed, shard, m, n, box_halfwidth):
            i_cnt, b_cnt, mm = _batch._verify_block(X, eps, locate)
            interior += i_cnt
            boundary += b_cnt
            mismatches += mm
    return TilingReport(
        n=n,
        samples=samples,
        box_halfwidth=box_halfwidth,
        seed=seed,
        interior=interior,
        boundary=boundary,
        mismatches=mismatches,
    )


def hexagon_rings(box_halfwidth: float) -> list[tuple[Center, tuple[Point, ...]]]:
    """Hexagon outlines of the planar tiling with centers inside the box.

    The list grows with the box squared, so the box is capped at 100: about
    13k rings in 13 MB."""
    w = float(box_halfwidth)
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
