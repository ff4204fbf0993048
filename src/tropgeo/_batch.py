"""The numpy kernels: bound-system closure, hulls, bulk membership, and the
batch locator and count behind verify_tiling.

This is the only module of tropgeo that imports numpy.  The public
functions in geodesy and honeycomb import it inside their bodies, so
``import tropgeo`` and every scalar call (dist, segment, the ball
decompositions, locate) run without loading numpy; building a region,
``hull``, ``contains_batch`` and ``verify_tiling`` load it on first use.

verify_tiling draws each shard of samples in blocks of at most
_TILING_BUDGET // n rows and works on each block as one coordinate-major
(n, m) array, so every numpy reduction runs over the leading coordinate
axis: the batch locator takes the floors, their sum mod n+1 and a stable
rank of the fractional parts written out as one comparison per pair of
coordinates.  A floor-plus-0/1 candidate F + b is a center exactly when |b|
is r = (-sum F) mod (n+1), so the count evaluates only the C(n, r) offsets
of that weight, taken from cached read-only bool blocks, in numpy
broadcasts cut to _BROADCAST_BUDGET elements.

Every array of those kernels -- the block, its transpose, the floors, the
masks, the rank, the residues, the gathered columns, the broadcast and the
norms -- is a view of a buffer in ``_WS``, a grow-only workspace per thread,
and every step writes into it with ``out=``.  The buffers outlive the call:
an allocator hands a large freed array back to the OS, and the next call
would fault its pages in again, which cost more than the arithmetic.  Each
buffer is sized by the budgets, not by the samples, the shard size or the
number of calls.  A thread reserves about 8 MiB of address space after the
benchmark's blocks at n = 3, 6 and 9, of which only the pages a call writes
are resident, and at most about 18 MiB, reached at n = 1 where a block has
the most rows.  The kernels return views of the workspace, valid until the
next call in the same thread.

contains_batch is coordinate-major too: it casts the rows, a chunk under a
fixed element budget at a time, into one reused (n, k) buffer, tests the box
bounds with one comparison per coordinate row, and the difference bounds
with one subtraction per pair i < j, compared against the pair's bound in
each direction.  Every result is written with ``out=`` into reused buffers,
so no call allocates a temporary.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading

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
        except (TypeError, ValueError, OverflowError) as exc:
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
    numbers = "expected an (m, %d) array of numbers" % n
    try:
        # no dtype: an int or str array is cast chunk by chunk below, never
        # copied whole
        A = np.asarray(X)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(numbers) from exc
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
        try:
            np.copyto(rows, A[s : s + k].T, casting="unsafe")
        except (TypeError, ValueError, OverflowError) as exc:
            raise DimensionMismatch(numbers) from exc
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


def _hull_bounds(points):
    """(lower, upper, diff) of the hull of a sequence of points or an (m, n)
    array, read here once as float64 and checked before any subtraction."""
    try:
        P = np.array(points if isinstance(points, np.ndarray) else list(points), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch("hull points must be an (m, n) table of numbers") from exc
    if P.shape[:1] == (0,):
        raise DomainError("hull needs at least one point")
    if P.ndim != 2:
        raise DimensionMismatch("hull points must be an (m, n) table of numbers")
    finite = np.isfinite(P).all(axis=1)
    if not finite.all():  # inf - inf below would warn
        raise DomainError("coordinates must be finite, got %r" % (tuple(P[~finite][0].tolist()),))
    # row i holds min over the points of p_i - p_j, one m x n pass per i
    diff = np.array([(P[:, i : i + 1] - P).min(axis=0) for i in range(P.shape[1])])
    return P.min(axis=0), P.max(axis=0), diff


# Element budget of each block of verify_tiling's samples (1 MiB of
# float64): a shard is drawn and checked in blocks of at most
# _TILING_BUDGET // n rows, so the workspace below stays bounded however
# large the shard is.  2^17 keeps a shard of 24000 rows at n = 3 in one block.
_TILING_BUDGET = 1 << 17

# Element budget of the (n, candidates, rows) broadcast in _containing_counts
# (2 MiB of float64): it is cut along the candidate and the row axes so that
# memory stays flat however large C(n, r) or the block is.
_BROADCAST_BUDGET = 1 << 18


class _Workspace(threading.local):
    """The arrays of the tiling kernels, one grow-only buffer per name and
    per thread.

    array() hands out a C-contiguous view of the named buffer and replaces
    the buffer only when the view needs more elements (or another dtype),
    with at least ``room`` of them: the most any view of that name needs in
    the current block, so that the buffer does not grow again with the
    sizes of the residue classes.  Kept for the life of the thread, so a
    call after the first maps in no new pages, and two threads never share
    a buffer.  A view is valid until the next request for the same name in
    the same thread.
    """

    def __init__(self):
        self.buffers = {}

    def array(self, name: str, shape: tuple[int, ...], dtype=np.float64, room: int = 0):
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self.buffers[name] = np.empty(max(size, room), dtype)
        return buf[:size].reshape(shape)


_WS = _Workspace()


def _sample_blocks(seed: int, shard: int, m: int, n: int, box_halfwidth: float):
    """Shard ``shard`` of verify_tiling's samples, m uniform points of the
    box drawn from the substream seeded by (seed, shard), yielded in (k, n)
    blocks of at most _TILING_BUDGET // n rows.

    Each block is drawn into the same workspace buffer, so it is valid
    until the next one is yielded.  random() then ``* 2 box`` and ``- box``
    is the arithmetic of ``uniform(-box, box)``, on the same stream, so the
    blocks concatenate to ``rng.uniform(-box, box, (m, n))`` byte for byte.
    """
    rng = np.random.default_rng([seed, shard])
    step = max(1, _TILING_BUDGET // n)
    for start in range(0, m, step):
        X = _WS.array("X", (min(step, m - start), n))
        rng.random(out=X)
        X *= 2 * box_halfwidth
        X += -box_halfwidth
        yield X


def _verify_block(X: np.ndarray, eps: float, locate) -> tuple[int, int, int]:
    """(interior, boundary, mismatches) over the (m, n) samples X, with
    ``locate`` the scalar locator that answers for snapped rows."""
    m, n = X.shape
    # one transpose per block: every kernel below reduces over the leading
    # coordinate axis of this (n, m) copy, never over a short trailing one
    XT = _WS.array("XT", (n, m))
    np.copyto(XT, X.T)
    F, _, d, snapped = _locate_rows(XT, eps)
    count = _containing_counts(XT, F, eps)
    # rows with a coordinate within eps of an integer are not complete in the
    # floor-plus-0/1 count, so scalar locate answers for them
    for idx in np.flatnonzero(snapped):
        res = locate(tuple(X[idx]), eps)
        d[idx] = res.distance
        count[idx] = len(res.all_centers)

    # locate's status rule: a row is interior when d < 1 - eps and it is not
    # snapped or has one center.  An interior row is a mismatch when
    # count != 1, a boundary row when d > 1 + eps or (count < 2 and
    # |d - 1| > eps)
    single = np.equal(count, 1, out=_WS.array("single", (m,), bool))
    mask = _WS.array("mask", (m,), bool)
    interior = np.logical_not(snapped, out=_WS.array("interior", (m,), bool))
    interior |= single
    interior &= np.less(d, 1.0 - eps, out=mask)
    wrong = np.logical_not(single, out=single)
    wrong &= interior
    bad = int(np.count_nonzero(wrong))
    far = np.greater(d, 1.0 + eps, out=_WS.array("far", (m,), bool))
    d -= 1.0  # d is not read again
    off = np.greater(np.abs(d, out=d), eps, out=mask)
    off &= np.less(count, 2, out=wrong)
    far |= off
    far &= np.logical_not(interior, out=wrong)
    bad += int(np.count_nonzero(far))
    n_interior = int(np.count_nonzero(interior))
    return n_interior, m - n_interior, bad


def _locate_rows(
    XT: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """honeycomb._fast_center on every column of XT, an (n, m) array of m
    points.

    Returns (F, inc, d, snapped): the floors after snapping, the 0/1 raises,
    so that column j's center is F[:, j] + inc[:, j], the distance d[j] to
    it, and whether any coordinate of column j snapped to an integer.  Each
    entry equals _fast_center's on the same point while |x| <= 2^53, where
    the floors and x - F are exact.  All four are workspace views, valid
    until the next call in the same thread.
    """
    n, m = XT.shape
    R = np.rint(XT, out=_WS.array("R", (n, m)))
    F = np.subtract(XT, R, out=_WS.array("F", (n, m)))
    near = np.less_equal(np.abs(F, out=F), eps, out=_WS.array("near", (n, m), bool))
    np.floor(XT, out=F)
    np.copyto(F, R, where=near)
    k = _floor_sum_residue(F)
    diffs = np.subtract(XT, F, out=R)
    rank = _stable_rank(diffs)
    # column j raises the entries of rank >= k - 1; k - 1 is taken in the
    # rank's unsigned dtype, where k = 0 wraps to its maximum, above every
    # rank, so such a column raises none
    km1 = np.subtract(k, 1, out=_WS.array("k-1", (m,), rank.dtype), casting="unsafe")
    inc = np.greater_equal(rank, km1, out=_WS.array("inc", (n, m), bool))
    # x - F is exact, so taking inc off it rounds once, to the same
    # doubles as x - (F + inc) and as _fast_center's dist
    diffs -= inc
    d = _norms(diffs, _WS.array("d", (m,)), _WS.array("d-lo", (m,)))
    snapped = np.logical_or.reduce(near, axis=0, out=_WS.array("snapped", (m,), bool))
    return F, inc, d, snapped


def _norms(D: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """max(0, max D) - min(0, min D) over axis 0 of D: the norm of each
    column, written into hi, with lo as scratch."""
    np.maximum.reduce(D, axis=0, out=hi)
    np.maximum(hi, 0.0, out=hi)
    np.minimum.reduce(D, axis=0, out=lo)
    np.minimum(lo, 0.0, out=lo)
    hi -= lo
    return hi


def _floor_sum_residue(F: np.ndarray) -> np.ndarray:
    """Per column of the (n, m) floors F, (sum of F) mod (n+1), as int64.

    Summed in int64, so exact while n * max|F| < 2^63.  The remainder is
    spelled with floor division, which numpy vectorizes for a scalar
    divisor while its integer % is several times slower.
    """
    p, m = F.shape[0] + 1, F.shape[1]
    s = np.add.reduce(F, axis=0, dtype=np.int64, out=_WS.array("residue", (m,), np.int64))
    q = np.floor_divide(s, p, out=_WS.array("quotient", (m,), np.int64))
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
    rank = _WS.array("rank", (n, m), np.min_scalar_type(n))
    rank[...] = np.arange(n, dtype=rank.dtype)[:, None]
    later_smaller = _WS.array("later-smaller", (m,), bool)
    # added as uint8 when the rank is, which skips a cast per pair
    moves = later_smaller.view(rank.dtype) if rank.itemsize == 1 else later_smaller
    for i in range(n):
        for j in range(i + 1, n):
            np.less(f[j], f[i], out=later_smaller)
            rank[i] += moves
            rank[j] -= moves
    return rank


def _containing_counts(XT: np.ndarray, FT: np.ndarray, eps: float) -> np.ndarray:
    """Per column of XT, the number of tiling centers F + b, b in {0,1}^n,
    within 1 + eps.

    XT holds m points as columns, shape (n, m), and FT their floors.  F + b
    has coordinate sum divisible by n+1 exactly when the weight |b| equals
    r = (-sum F) mod (n+1), because |b| lies in [0, n].  So each point is
    tested against the C(n, r) weight-r vectors only, and every one of them
    is tested: the count comes from evaluating dist, not from the sorted
    fractional parts the locator uses.  Complete whenever no coordinate
    sits within eps of an integer.  A workspace view, valid until the next
    call in the same thread.
    """
    n, m = XT.shape
    k = _floor_sum_residue(FT)
    count = _WS.array("count", (m,), np.int64)
    in_class = _WS.array("in-class", (m,), bool)
    found, hits = _WS.array("found", (2, m), np.int64)
    # the largest broadcast over the C(n, r) candidates of any class
    widest = min(_BROADCAST_BUDGET, n * m * math.comb(n, n // 2))
    # every column has one residue, so each is written by exactly one r
    for r in range(n + 1):
        cols = np.equal(k, -r % (n + 1), out=in_class).nonzero()[0]
        c = cols.size
        if c == 0:
            continue
        # take gives C order, so each broadcast below is laid out
        # (n, candidates, rows) and reduces over whole slabs; mode "clip"
        # writes straight into out, where "raise" goes through a copy
        Xr, Fr = _WS.array("gathered", (2, n, 1, c), room=2 * n * m)
        XT.take(cols, axis=1, out=Xr[:, 0], mode="clip")
        FT.take(cols, axis=1, out=Fr[:, 0], mode="clip")
        found[:c] = 0
        for B in _weight_vectors(n, r, max(1, _BROADCAST_BUDGET // n)):
            kc = B.shape[1]
            step = max(1, _BROADCAST_BUDGET // B.size)
            for j in range(0, c, step):
                s = min(step, c - j)
                # x - (F + b), in that order: x - F is not exact for x in
                # (-1, 0), so (x - F) - b could round twice
                cd = np.add(Fr[:, :, j : j + s], B, out=_WS.array("cd", (n, kc, s), room=widest))
                np.subtract(Xr[:, :, j : j + s], cd, out=cd)
                hi, lo = _WS.array("norms", (2, kc, s), room=2 * widest // n)
                hit = _WS.array("hit", (kc, s), bool, room=widest // n)
                np.less_equal(_norms(cd, hi, lo), 1.0 + eps, out=hit)
                found[j : j + s] += np.add.reduce(hit, axis=0, out=hits[:s])
        count[cols] = found[:c]
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
