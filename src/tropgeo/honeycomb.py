"""Unit balls tiling R^n: the honeycomb lattice and point location.

The centers are the integer vectors whose coordinate sum is divisible by
n+1.  Closed unit balls on these centers cover R^n and overlap only on
boundaries, so almost every point has exactly one containing ball.  locate
finds it in O(n log n) from floors and sorted fractional parts, with a
distance certificate and a brute-force fallback near boundaries.

verify_tiling checks that locator on random samples against an independent
count.  It works on each shard of samples as one coordinate-major (n, m)
array, so every numpy reduction runs over the leading coordinate axis: the
batch locator takes the floors, their sum mod n+1 and a stable rank of the
fractional parts written out as one comparison per pair of coordinates.
A floor-plus-0/1 candidate F + b is a center exactly when |b| is
r = (-sum F) mod (n+1), so the count evaluates only the C(n, r) offsets of
that weight, taken from cached read-only bool blocks, in numpy broadcasts
cut to a fixed element budget.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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

log = logging.getLogger(__name__)

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
        log.warning("fast-path center %r missed for %r; using nearest", c, px)
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

    Searches the moves with entries in [-2, 2]; each candidate must meet the
    ball at c in a region of affine dimension n-1.  The count always comes
    out to n(n+1); anything else widens the window once and then fails."""
    cc = as_center(c)
    n = len(cc)
    check_eps(eps)
    if not in_lattice(cc):
        raise DomainError("center %r is not in the tiling lattice" % (cc,))
    expected = n * (n + 1)
    for halfwidth in (2, 3):
        found = _facet_neighbors(cc, halfwidth, eps)
        if len(found) == expected:
            return found
        log.warning(
            "neighbor search at window %d found %d of %d", halfwidth, len(found), expected
        )
    raise TropgeoError(
        "neighbor count %d does not match n(n+1) = %d for %r"
        % (len(found), expected, cc)
    )


def _facet_neighbors(cc: Center, halfwidth: int, eps: float) -> list[Center]:
    n = len(cc)
    own = hrep(Ball(cc))
    found = []
    for delta in itertools.product(range(-halfwidth, halfwidth + 1), repeat=n):
        if not any(delta):
            continue
        if sum(delta) % (n + 1) != 0:
            continue
        other = tuple(a + b for a, b in zip(cc, delta))
        try:
            shared = own.intersect(hrep(Ball(other)), eps=eps)
        except EmptyRegionError:
            continue
        if shared.affine_dim(eps) == n - 1:
            found.append(other)
    found.sort()
    return found


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

    Each shard is transposed once to an (n, m) array, one sample per
    column.  The batch locator is the fast path of ``locate`` on every
    column, with the stable sort of the fractional parts replaced by a rank
    from pairwise comparisons; it gives the same centers and distances.
    The enumeration tests, for each sample, every floor-plus-0/1 candidate
    that is a lattice point: the C(n, r) offsets of weight
    r = (-sum of floors) mod (n+1), about 2^n / (n+1) per sample rather than
    2^n, read from cached read-only bool blocks.  Samples with a coordinate
    within eps of an integer go through ``locate`` instead.  The candidates
    are evaluated in numpy broadcasts cut into chunks of at most 2^18
    elements (2 MiB of float64) each, so memory beyond the shard itself does
    not grow with C(n, r).
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
    interior = boundary = mismatches = 0
    done = 0
    shard = 0
    while done < samples:
        m = min(shard_size, samples - done)
        rng = np.random.default_rng([seed, shard])
        X = rng.uniform(-box_halfwidth, box_halfwidth, size=(m, n))
        i_cnt, b_cnt, mm = _verify_block(X, eps)
        interior += i_cnt
        boundary += b_cnt
        mismatches += mm
        done += m
        shard += 1
    return TilingReport(
        n=n,
        samples=samples,
        box_halfwidth=box_halfwidth,
        seed=seed,
        interior=interior,
        boundary=boundary,
        mismatches=mismatches,
    )


def _verify_block(X: np.ndarray, eps: float) -> tuple[int, int, int]:
    # one transpose per shard: every kernel below reduces over the leading
    # coordinate axis of this (n, m) copy, never over a short trailing one
    XT = np.ascontiguousarray(X.T)
    F, _, d, snapped = _locate_rows(XT, eps)
    count = _containing_counts(XT, F, eps)
    # rows with a coordinate within eps of an integer are not complete in the
    # floor-plus-0/1 count, so scalar locate answers for them
    for idx in np.nonzero(snapped)[0]:
        res = locate(tuple(X[idx]), eps)
        d[idx] = res.distance
        count[idx] = len(res.all_centers)

    # locate's status rule, and the mismatch rule for each status
    is_interior = (d < 1.0 - eps) & (~snapped | (count == 1))
    bad_boundary = (d > 1.0 + eps) | ((count < 2) & (np.abs(d - 1.0) > eps))
    mismatches = int(np.where(is_interior, count != 1, bad_boundary).sum())
    interior = int(is_interior.sum())
    return interior, len(X) - interior, mismatches


def _locate_rows(
    XT: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_fast_center on every column of XT, an (n, m) array of m points.

    Returns (F, inc, d, snapped): the floors after snapping, the 0/1 raises,
    so that column j's center is F[:, j] + inc[:, j], the distance d[j] to
    it, and whether any coordinate of column j snapped to an integer.  Each
    entry equals _fast_center's on the same point while |x| <= 2^53, where
    the floors and x - F are exact.
    """
    R = np.rint(XT)
    near = np.abs(XT - R) <= eps
    F = np.floor(XT)
    np.copyto(F, R, where=near)
    k = _floor_sum_residue(F)
    diffs = XT - F
    inc = (_stable_rank(diffs) >= k - 1) & (k != 0)
    # x - F is exact, so taking inc off it rounds once, to the same
    # doubles as x - (F + inc) and as _fast_center's dist
    diffs -= inc
    d = np.maximum(diffs.max(axis=0), 0.0) - np.minimum(diffs.min(axis=0), 0.0)
    return F, inc, d, near.any(axis=0)


def _floor_sum_residue(F: np.ndarray) -> np.ndarray:
    """Per column of the (n, m) floors F, (sum of F) mod (n+1), as int64.

    Summed in int64, so exact while n * max|F| < 2^63.  The remainder is
    spelled with floor division, which numpy vectorizes for a scalar
    divisor while its integer % is several times slower.
    """
    p = F.shape[0] + 1
    s = F.sum(axis=0, dtype=np.int64)
    return s - s // p * p


def _stable_rank(f: np.ndarray) -> np.ndarray:
    """Per column of the (n, m) array f, each entry's position in a stable
    ascending sort of that column: #{j < i : f_j <= f_i} + #{j > i : f_j < f_i}.

    Written as one comparison per pair of coordinates, each across all m
    columns, which beats two argsorts along short rows.
    """
    n, m = f.shape
    # row i starts at i, as if every earlier entry sorted first; then each
    # pair i < j with f_j < f_i moves i up one place and j down one, so
    # every partial rank stays in [0, n)
    rank = np.empty((n, m), dtype=np.min_scalar_type(n))
    rank[...] = np.arange(n, dtype=rank.dtype)[:, None]
    for i in range(n):
        for j in range(i + 1, n):
            later_smaller = f[j] < f[i]
            rank[i] += later_smaller
            rank[j] -= later_smaller
    return rank


# Element budget of each temporary array in _containing_counts (2 MiB of
# float64): the (n, candidates, rows) broadcast is cut along the candidate
# and the row axes so that memory stays flat however large C(n, r) or the
# shard is.
_BROADCAST_BUDGET = 1 << 18


def _containing_counts(XT: np.ndarray, FT: np.ndarray, eps: float) -> np.ndarray:
    """Per column of XT, the number of tiling centers F + b, b in {0,1}^n,
    within 1 + eps.

    XT holds m points as columns, shape (n, m), and FT their floors.  F + b
    has coordinate sum divisible by n+1 exactly when the weight |b| equals
    r = (-sum F) mod (n+1), because |b| lies in [0, n].  So each point is
    tested against the C(n, r) weight-r vectors only, and every one of them
    is tested: the count comes from evaluating dist, not from the sorted
    fractional parts the locator uses.  Complete whenever no coordinate
    sits within eps of an integer.
    """
    n, m = XT.shape
    k = _floor_sum_residue(FT)
    count = np.zeros(m, dtype=np.int64)
    for r in range(n + 1):
        cols = np.nonzero(k == -r % (n + 1))[0]
        if cols.size == 0:
            continue
        # take, unlike XT[:, cols], gives C order, so each broadcast below
        # is laid out (n, candidates, rows) and reduces over whole slabs
        Xr = XT.take(cols, axis=1)[:, None, :]
        Fr = FT.take(cols, axis=1)[:, None, :]
        for B in _weight_vectors(n, r, max(1, _BROADCAST_BUDGET // n)):
            step = max(1, _BROADCAST_BUDGET // B.size)
            for lo in range(0, cols.size, step):
                cd = Xr[:, :, lo : lo + step] - (Fr[:, :, lo : lo + step] + B)
                cdist = np.maximum(cd.max(axis=0), 0.0) - np.minimum(cd.min(axis=0), 0.0)
                count[cols[lo : lo + step]] += (cdist <= 1.0 + eps).sum(axis=0)
    return count


@functools.lru_cache(maxsize=64)
def _weight_vectors(n: int, r: int, cap: int) -> tuple[np.ndarray, ...]:
    """The 0/1 vectors of length n and weight r, in blocks of at most cap.

    Each block is a read-only bool array of shape (n, k, 1): one vector
    per slot of the middle axis, ready to broadcast against (n, 1, rows)
    floors.  Cached, since every shard asks for the same blocks.
    """
    combos = itertools.combinations(range(n), r)
    blocks = []
    while chunk := list(itertools.islice(combos, cap)):
        B = np.zeros((n, len(chunk), 1), dtype=bool)
        B[np.array(chunk, dtype=np.intp).T, np.arange(len(chunk)), 0] = True
        B.flags.writeable = False
        blocks.append(B)
    return tuple(blocks)


def hexagon_rings(box_halfwidth: float) -> list[tuple[Center, tuple[Point, ...]]]:
    """Hexagon outlines of the planar tiling with centers inside the box."""
    w = float(box_halfwidth)
    if w < 0:
        raise DomainError("box halfwidth must be nonnegative")
    hi = math.floor(w)
    out = []
    for cx in range(-hi, hi + 1):
        for cy in range(-hi, hi + 1):
            if (cx + cy) % 3 != 0:
                continue
            ring = tuple((cx + vx, cy + vy) for vx, vy in _HEX_RING)
            out.append(((cx, cy), ring))
    return out
