"""The numpy kernels: bound-system closure, hulls, bulk membership, and the
batch locator and count behind verify_tiling.

This is the only module of tropgeo that imports numpy.  The public
functions in geodesy and honeycomb import it inside their bodies, so
``import tropgeo`` and every scalar call (dist, segment, the ball
decompositions, locate) run without loading numpy; building a region,
``hull``, ``contains_batch`` and ``verify_tiling`` load it on first use.

verify_tiling works on each shard of samples as one coordinate-major (n, m)
array, so every numpy reduction runs over the leading coordinate axis: the
batch locator takes the floors, their sum mod n+1 and a stable rank of the
fractional parts written out as one comparison per pair of coordinates.
A floor-plus-0/1 candidate F + b is a center exactly when |b| is
r = (-sum F) mod (n+1), so the count evaluates only the C(n, r) offsets of
that weight, taken from cached read-only bool blocks, in numpy broadcasts
cut to a fixed element budget.

contains_batch is coordinate-major too: it copies the rows, a chunk under a
fixed element budget at a time, into one reused (n, k) buffer, tests the box
bounds with one comparison per coordinate row, and the difference bounds
with one subtraction per pair i < j, compared against the pair's bound in
each direction.  Every result is written with ``out=`` into reused buffers,
so no call allocates a temporary.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .core import DimensionMismatch, DomainError


def _close_bounds(lower, upper, diff):
    """The canonical matrix of the system ``lower <= x <= upper``,
    ``x_i - x_j >= diff[i][j]``.

    Node 0 stands for the constant 0 and node i for x_i; entry L[i, j] is
    the best lower bound on x_i - x_j.  Floyd-Warshall in max-plus, one
    vectorized pass per node, returns the Kleene star of L: every bound
    raised to the tightest value its chains imply.  A positive diagonal
    entry is a contradictory cycle.
    """
    n = len(lower)
    L = np.empty((n + 1, n + 1))
    L[1:, 1:] = diff
    L[1:, 0] = lower
    L[0, 1:] = [-v for v in upper]
    L.flat[:: n + 2] = 0.0  # x_i - x_i >= 0, whatever diff's diagonal holds
    for k in range(n + 1):
        np.maximum(L, L[:, k : k + 1] + L[k : k + 1, :], out=L)
    return L


def _closed_rows(lo, up, diff_lb) -> list[list[float]]:
    """The closed matrix of GeodesicRegion(lo, up, diff_lb) as nested lists.

    lo and up are float tuples of one length n; diff_lb is None (the
    loosest box-consistent difference bounds) or an n by n table.
    """
    n = len(lo)
    if diff_lb is None:
        diff = np.subtract.outer(lo, up)
    else:
        try:
            diff = np.array(diff_lb, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch("diff_lb must be an n by n table of numbers") from exc
        if diff.shape != (n, n):
            raise DimensionMismatch("diff_lb must be an n by n table")
        if not np.isfinite(diff).all():
            raise DomainError("difference bounds must be finite")
    L = _close_bounds(lo, up, diff)
    # np.maximum breaks a tie of -0.0 and 0.0 either way, so every zero
    # is stored as 0.0
    L += 0.0
    return L.tolist()


# Element budget of the coordinate-major chunk in _contains_batch (256 KiB of
# float64): its buffers are reused across chunks, so memory stays flat in the
# number of rows.  A larger chunk spreads the per-call cost of its
# 4n + 5 n(n-1)/2 numpy calls over more rows but raises peak memory; 256 KiB
# is about what a row-major pass over 20000 rows at n = 12 held at once.
_CONTAINS_BUDGET = 1 << 15


def _contains_batch(region, X, eps: float):
    """GeodesicRegion.contains_batch: a bool array over the rows of X.

    The rows go through in chunks of at most _CONTAINS_BUDGET elements, each
    transposed once into a reused C-contiguous (n, k) buffer, so every test
    below reads whole contiguous rows.  A pair i < j takes one subtraction
    t = x_i - x_j for both of its difference bounds: x_i - x_j >= D[i][j] - eps
    is t >= D[i][j] - eps, and x_j - x_i >= D[j][i] - eps is t <= eps - D[j][i],
    since round-to-nearest subtraction is antisymmetric (fl(b - a) = -fl(a - b)).
    So the mask equals the one from all n(n-1) ordered differences, bit for
    bit.  Every comparison with a NaN is False, and an infinite entry fails
    its box bound, so such rows test False.
    """
    n = region.dim
    try:
        A = np.asarray(X, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch("expected an (m, %d) array of numbers" % n) from exc
    if A.ndim != 2 or A.shape[1] != n:
        raise DimensionMismatch("expected an (m, %d) array" % n)
    m = len(A)
    lo = [v - eps for v in region.lower]
    up = [v + eps for v in region.upper]
    D = region.diff_lb
    pairs = [(i, j, D[i][j] - eps, eps - D[j][i]) for i in range(n) for j in range(i + 1, n)]
    ok = np.empty(m, dtype=bool)
    step = max(1, _CONTAINS_BUDGET // n)
    AT = np.empty((n, min(step, m)))
    t = np.empty(AT.shape[1])
    hit = np.empty(AT.shape[1], dtype=bool)
    for s in range(0, m, step):
        k = min(step, m - s)
        rows = AT[:, :k]
        np.copyto(rows, A[s : s + k].T)
        x = list(rows)
        tk, hk, okk = t[:k], hit[:k], ok[s : s + k]
        okk.fill(True)
        for i in range(n):
            np.greater_equal(x[i], lo[i], out=hk)
            okk &= hk
            np.less_equal(x[i], up[i], out=hk)
            okk &= hk
        for i, j, ge, le in pairs:
            np.subtract(x[i], x[j], out=tk)
            np.greater_equal(tk, ge, out=hk)
            okk &= hk
            np.less_equal(tk, le, out=hk)
            okk &= hk
    return ok


def _hull_bounds(pts):
    """(lower, upper, diff) of the hull of equal-length float tuples."""
    P = np.array(pts)
    n = P.shape[1]
    # row i holds min over the points of p_i - p_j, one m x n pass per i
    diff = np.array([(P[:, i : i + 1] - P).min(axis=0) for i in range(n)])
    return P.min(axis=0), P.max(axis=0), diff


def _sample_shard(seed: int, shard: int, m: int, n: int, box_halfwidth: float) -> np.ndarray:
    """Shard ``shard`` of verify_tiling's samples: m uniform points of the
    box, drawn from the substream seeded by (seed, shard)."""
    rng = np.random.default_rng([seed, shard])
    return rng.uniform(-box_halfwidth, box_halfwidth, size=(m, n))


def _verify_block(X: np.ndarray, eps: float, locate) -> tuple[int, int, int]:
    """(interior, boundary, mismatches) over the (m, n) samples X, with
    ``locate`` the scalar locator that answers for snapped rows."""
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
    """honeycomb._fast_center on every column of XT, an (n, m) array of m
    points.

    Returns (F, inc, d, snapped): the floors after snapping, the 0/1 raises,
    so that column j's center is F[:, j] + inc[:, j], the distance d[j] to
    it, and whether any coordinate of column j snapped to an integer.  Each
    entry equals _fast_center's on the same point while |x| <= 2^53, where
    the floors and x - F are exact.
    """
    # R and F are the only (n, m) float arrays; every step writes into one
    # of them, since a fresh array that size can cost more to map in than
    # the arithmetic that fills it
    R = np.rint(XT)
    F = np.subtract(XT, R)
    near = np.abs(F, out=F) <= eps
    np.floor(XT, out=F)
    np.copyto(F, R, where=near)
    k = _floor_sum_residue(F)
    diffs = np.subtract(XT, F, out=R)
    inc = (_stable_rank(diffs) >= k - 1) & (k != 0)
    # x - F is exact, so taking inc off it rounds once, to the same
    # doubles as x - (F + inc) and as _fast_center's dist
    diffs -= inc
    return F, inc, _norms(diffs), near.any(axis=0)


def _norms(D: np.ndarray) -> np.ndarray:
    """max(0, max D) - min(0, min D) over axis 0 of D: the norm of each
    column, in one fresh array."""
    hi = D.max(axis=0)
    np.maximum(hi, 0.0, out=hi)
    lo = D.min(axis=0)
    np.minimum(lo, 0.0, out=lo)
    hi -= lo
    return hi


def _floor_sum_residue(F: np.ndarray) -> np.ndarray:
    """Per column of the (n, m) floors F, (sum of F) mod (n+1), as int64.

    Summed in int64, so exact while n * max|F| < 2^63.  The remainder is
    spelled with floor division, which numpy vectorizes for a scalar
    divisor while its integer % is several times slower.
    """
    p = F.shape[0] + 1
    s = F.sum(axis=0, dtype=np.int64)
    q = s // p
    q *= p
    s -= q
    return s


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
                cd = np.add(Fr[:, :, lo : lo + step], B)
                np.subtract(Xr[:, :, lo : lo + step], cd, out=cd)
                count[cols[lo : lo + step]] += (_norms(cd) <= 1.0 + eps).sum(axis=0)
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
