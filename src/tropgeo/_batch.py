"""The numpy kernels: bound-system closure, hulls, bulk membership, and the
batch locator and count behind verify_tiling.

This is the only module of tropgeo that imports numpy.  The public
functions in geodesy and honeycomb import it inside their bodies, so
``import tropgeo`` and every scalar call (dist, segment, the ball
decompositions, locate) run without loading numpy.  ``contains_batch`` and
``verify_tiling`` load it on first use, and so do a region and a ``hull``
above ``geodesy._SMALL_WORK`` (a closure past n = 6, a hull of an ndarray
or of more than about 343 / n^2 points), or one that geodesy's pure-Python
layout of the same rule cannot read: these kernels raise its errors.

verify_tiling draws each shard of samples in blocks of at most
_TILING_BUDGET // n rows and works on each block as one coordinate-major
(n, m) array, so every numpy reduction runs over the leading coordinate
axis: the batch locator takes the floors, their sum mod n+1 and a stable
rank of the fractional parts, one comparison of each coordinate against all
later ones, and the count evaluates only the floor-plus-0/1 candidates that
are lattice points (see _containing_counts).  The fractional parts x - F
are formed once per block, by the locator, before any snap test: they
decide which entries take the exact test, they are what the rank sorts,
and the count reads them as its P0.

Only the float64 arrays of a block live in ``_WS``, a grow-only workspace
per thread, written with ``out=``: the transpose XT, the floors F, the pair
buffer (the samples as drawn, then x - F beside x - F - inc, then x - F
beside x - (F + 1)), a class's columns, the takes and their norms.  They
outlive the call because an allocator hands so large a freed array back to
the OS, and a fresh one each block faulted its pages in again, at several
times the cost of its arithmetic.  Each is sized by the budgets, not by
the samples, the shard size or the number of calls; verify_tiling states
what a thread retains.  Every other array -- the masks, the rank, the
residues, the class order, the per-row distances and counts -- is a plain
numpy array, new in each block, and so is every result but
_locate_rows' F.

contains_batch is coordinate-major too, and tests the cheap bounds first.
It casts the rows, a chunk under a fixed element budget at a time, into one
reused (n, k) buffer and tests the box bounds with two whole-chunk
comparisons against (n, 1) columns, each reduced over the coordinate axis,
with numpy's ufunc buffer cut to one chunk row so that numpy does not copy
the columns out to lengthen its loop (see _row_buffer).  Only the rows inside
the box go on: their columns are gathered into a survivor buffer of the
chunk's width, which outlives the chunk, and each time it fills, and once
at the end, the difference bounds are tested on it with one subtraction per
pair i < j, compared against the pair's bound in each direction, and the
results are written back to the survivors' rows.  A chunk wholly inside the
box takes the same pair test where it is, with no gather.  So a row outside
the box costs O(n), the pair test always runs on full-width blocks, and
every buffer is sized by the budget, not by the number of rows.  Those
buffers -- the chunk, the box masks, the pair difference and its mask, and
the survivors with their row numbers and results -- live in ``_WS`` under
names of their own, beside the tiling kernels' and for the same reason; only
the returned mask is a fresh array.  They keep about 0.55 MiB per thread
at n >= 12 after the first call, and at most about 0.8 MiB, at n = 2.
Beyond them and the mask, a repeated call on 100000 rows allocates about
8 KB at n = 12, where the box comparisons' buffer copies took 2 x 66 KB,
and about 120 KB at n = 2, mostly the indices of the rows inside the box.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading

import numpy as np

from .core import DimensionMismatch, DomainError
from .honeycomb import _SNAP_MARGIN, locate


def _closed_rows(lo, up, diff_lb) -> list[list[float]]:
    """The closed matrix of GeodesicRegion(lo, up, diff_lb) as nested lists.

    lo and up are float tuples of one length n; diff_lb is None (the
    loosest box-consistent difference bounds) or an n by n table.  The
    system is ``lo <= x <= up``, ``x_i - x_j >= diff_lb[i][j]``.

    Node 0 stands for the constant 0 and node i for x_i; entry L[i, j] is
    the best lower bound on x_i - x_j.  Floyd-Warshall in max-plus, one
    vectorized pass per node, returns the Kleene star of L: every bound
    raised to the tightest value its chains imply.  A positive diagonal
    entry is a contradictory cycle.  Raises DomainError when a chain of
    finite bounds overflows float64 upward, which leaves an inf in L; a sum
    that overflows downward loses to the finite bound it is compared with,
    as it would in exact arithmetic, so L never holds -inf or NaN.
    """
    n = len(lo)
    if diff_lb is None:
        # every lo_i - up_j lies between these two, as rounding is
        # monotone, so neither overflowing means that no entry does
        if not (math.isfinite(max(lo) - min(up)) and math.isfinite(min(lo) - max(up))):
            raise DomainError("the bound system overflows float64")
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
    L = np.empty((n + 1, n + 1))
    L[1:, 1:] = diff
    L[1:, 0] = lo
    L[0, 1:] = [-v for v in up]
    L.flat[:: n + 2] = 0.0  # x_i - x_i >= 0, whatever diff's diagonal holds
    with np.errstate(over="ignore"):
        for k in range(n + 1):
            np.maximum(L, L[:, k : k + 1] + L[k : k + 1, :], out=L)
    if not np.isfinite(L).all():
        raise DomainError("the bound system overflows float64")
    # np.maximum breaks a tie of -0.0 and 0.0 either way, so every zero
    # is stored as 0.0
    L += 0.0
    return L.tolist()


# Element budget of the coordinate-major chunk in _contains_batch (256 KiB of
# float64), and of its survivor buffer: both are reused, so memory stays flat
# in the number of rows.  A larger chunk spreads the per-call cost of its
# box test and of the 5 n(n-1)/2 numpy calls of each pair test over more
# rows but raises peak memory; 256 KiB is about what a row-major pass over
# 20000 rows at n = 12 held at once.
_CONTAINS_BUDGET = 1 << 15


def _contains_batch(region, X, eps: float):
    """GeodesicRegion.contains_batch: a bool array over the rows of X.

    The rows go through in chunks of at most _CONTAINS_BUDGET elements, each
    transposed once into a reused C-contiguous (n, k) buffer.  The box test
    comes first: two whole-chunk comparisons, against lo - eps and up + eps,
    each reduced over the coordinate axis.  The rows that pass are gathered
    as columns, with their row numbers, into one (n, step) survivor buffer
    that outlives the chunk, and only its columns take the difference test,
    each time it fills and once more at the end.  So the pair test always
    runs on full-width blocks, however few rows of a chunk pass the box, and
    nothing but the result has a length of m.  When every row of a chunk
    passes, the gather would only copy the chunk, so the chunk takes the
    pair test in place and the survivor buffer waits for the next chunk.

    A pair i < j takes one subtraction t = x_i - x_j for both of its
    difference bounds: x_i - x_j >= D[i][j] - eps is t >= D[i][j] - eps,
    and x_j - x_i >= D[j][i] - eps is t <= eps - D[j][i], since
    round-to-nearest subtraction is antisymmetric (fl(b - a) = -fl(a - b)).
    So the mask equals the one from all n(n-1) ordered differences, bit for
    bit.  The box bounds are finite, since the region's are and eps < 1/4,
    so a row with a NaN or an infinite entry always fails the box and never
    reaches a subtraction.  A difference of two finite entries that
    overflows is +-inf, which compares with the finite bounds as the exact
    difference would, so no row makes numpy warn.
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
    lo = np.array([v - eps for v in region.lower]).reshape(n, 1)
    up = np.array([v + eps for v in region.upper]).reshape(n, 1)
    D = region.diff_lb
    pairs = [(i, j, D[i][j] - eps, eps - D[j][i]) for i in range(n) for j in range(i + 1, n)]
    ok = np.empty(m, dtype=bool)
    step = max(1, _CONTAINS_BUDGET // n)
    w = min(step, m)
    AT = _WS.array("contains-chunk", (n, w))
    box = _WS.array("contains-box", (n, w), bool)
    t = _WS.array("contains-diff", (w,))
    hit = _WS.array("contains-hit", (w,), bool)
    # the survivor buffer, taken at the first gather: columns S[:, :f] are
    # rows R[:f] of X
    S = R = res = None

    def pair_test(x, keep):
        # keep &= the difference bounds, on the columns of x
        x = list(x)
        tk, hk = t[: len(keep)], hit[: len(keep)]
        for i, j, ge, le in pairs:
            np.subtract(x[i], x[j], out=tk)
            keep &= np.greater_equal(tk, ge, out=hk)
            keep &= np.less_equal(tk, le, out=hk)

    def flush(f):
        rf = res[:f]
        rf.fill(True)
        pair_test(S[:, :f], rf)
        ok[R[:f]] = rf

    f = 0
    with np.errstate(over="ignore"), _row_buffer(w):
        for s in range(0, m, step):
            k = min(step, m - s)
            rows = AT[:, :k]
            try:
                np.copyto(rows, A[s : s + k].T, casting="unsafe")
            except (TypeError, ValueError, OverflowError) as exc:
                raise DimensionMismatch(numbers) from exc
            bk, okk = box[:, :k], ok[s : s + k]
            np.logical_and.reduce(np.greater_equal(rows, lo, out=bk), axis=0, out=okk)
            okk &= np.logical_and.reduce(np.less_equal(rows, up, out=bk), axis=0, out=hit[:k])
            if not pairs:
                continue
            if np.count_nonzero(okk) == k:
                # the whole chunk is inside the box, so it is tested where
                # it is: a gather would only copy it
                pair_test(rows, okk)
                continue
            idx = np.flatnonzero(okk)
            if S is None:
                S = _WS.array("contains-survivors", (n, w))
                R = _WS.array("contains-rows", (w,), np.intp)
                res = _WS.array("contains-result", (w,), bool)
            while len(idx):
                c = min(len(idx), w - f)
                head, idx = idx[:c], idx[c:]
                for i in range(n):
                    rows[i].take(head, out=S[i, f : f + c], mode="clip")
                np.add(head, s, out=R[f : f + c])
                f += c
                if f == w:
                    flush(f)
                    f = 0
        if f:
            flush(f)
    return ok


@contextlib.contextmanager
def _row_buffer(w: int):
    """numpy's ufunc buffer set, for the block, to w elements (at least
    one) rounded up to a multiple of 16, the only sizes numpy < 2 takes.

    numpy 2.4 (the release this was measured on) copies an operand
    broadcast along the rows of an (n, w) array out to its buffer whenever
    two rows fit in it, to lengthen its inner loop.  For contains_batch's
    box test, against the (n, 1) columns of its bounds, that took about 3x
    the time of the comparison itself and held 66 KB per comparison at
    n = 12; a buffer of one row never holds two.
    """
    old = np.setbufsize(-(-max(w, 1) // 16) * 16)
    try:
        yield
    finally:
        np.setbufsize(old)


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
    # coordinate-major, so that row i, min over the points of p_i - p_j,
    # is one (n, m) subtraction reduced along whole contiguous rows
    PT = P.T.copy()
    with np.errstate(over="ignore"):
        diff = np.array([(PT[i] - PT).min(axis=1) for i in range(len(PT))])
    if not np.isfinite(diff).all():
        raise DomainError("coordinate differences overflow float64")
    return PT.min(axis=1), PT.max(axis=1), diff


# Element budget of each block of verify_tiling's samples (1 MiB of
# float64): a shard is drawn and checked in blocks of at most
# _TILING_BUDGET // n rows, so the workspace below stays bounded however
# large the shard is.  2^17 keeps a shard of 24000 rows at n = 3 in one block.
_TILING_BUDGET = 1 << 17

# Element budget of each take of _containing_counts, (n, candidates, rows)
# entries of x - F and x - (F + 1) (2 MiB of float64): it is cut along the
# candidate axis so that memory stays flat however large C(n, r) is.  A class
# has at most _TILING_BUDGET // n rows, so one candidate always fits.
_BROADCAST_BUDGET = 1 << 18


class _Workspace(threading.local):
    """The float64 block arrays of the tiling kernels and the buffers of
    contains_batch, one grow-only buffer per name and per thread.

    array() hands out a C-contiguous view of the named buffer and replaces
    the buffer only when the view needs more elements (or another dtype).
    A kernel asks once per block for the most it may need, so a buffer does
    not grow with the sizes of the residue classes.  Kept for the life of
    the thread, so a call after the first maps in no new pages, and two
    threads never share a buffer.  A view is valid until the next request
    for the same name in the same thread.
    """

    def __init__(self):
        self.buffers = {}

    def array(self, name: str, shape: tuple[int, ...], dtype=np.float64):
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self.buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


_WS = _Workspace()


def _sample_blocks(seed: int, shard: int, m: int, n: int, box_halfwidth: float):
    """Shard ``shard`` of verify_tiling's samples, m uniform points of the
    box drawn from the substream seeded by (seed, shard), yielded in (k, n)
    blocks of at most _TILING_BUDGET // n rows.

    Each block is drawn into the first half of the pair buffer, which
    _verify_block reuses once it has transposed the block, so a block is
    valid until it is checked.  random() then ``* 2 box`` and ``- box`` is
    the arithmetic of ``uniform(-box, box)``, on the same stream, so the
    blocks concatenate to ``rng.uniform(-box, box, (m, n))`` byte for byte.
    """
    rng = np.random.default_rng([seed, shard])
    step = max(1, _TILING_BUDGET // n)
    for start in range(0, m, step):
        X = _WS.array("pair", (2, min(step, m - start), n))[0]
        rng.random(out=X)
        X *= 2 * box_halfwidth
        X += -box_halfwidth
        yield X


def _verify_block(X: np.ndarray, eps: float) -> tuple[int, int, int]:
    """(interior, boundary, mismatches) over the (m, n) samples X; scalar
    ``locate`` answers for the snapped rows."""
    m, n = X.shape
    # one transpose per block: every kernel below reduces over the leading
    # coordinate axis of this (n, m) copy, never over a short trailing one.
    # X is not read again: its buffer holds the locator's and count's scratch
    XT = _WS.array("XT", (n, m))
    np.copyto(XT, X.T)
    F, _, d, snapped, k = _locate_rows(XT, eps)
    # x - F, formed once by the locator, is the count's P0
    count = _containing_counts(XT, F, _WS.array("pair", (2, n, m)), k, eps)
    # rows with a coordinate within eps of an integer are not complete in the
    # floor-plus-0/1 count, so scalar locate answers for them
    for idx in np.flatnonzero(snapped):
        # its distance is d[idx] already: _locate_rows snaps as locate does
        count[idx] = len(locate(tuple(XT[:, idx]), eps).all_centers)
    # locate's status rule: a row is interior when d < 1 - eps and it is not
    # snapped or has one center.  An interior row is a mismatch when
    # count != 1, a boundary row when d > 1 + eps or (count < 2 and
    # |d - 1| > eps)
    interior = (d < 1.0 - eps) & (~snapped | (count == 1))
    far = (d > 1.0 + eps) | ((np.abs(d - 1.0) > eps) & (count < 2))
    bad = np.where(interior, count != 1, far)
    n_interior = int(np.count_nonzero(interior))
    return n_interior, m - n_interior, int(np.count_nonzero(bad))


def _locate_rows(
    XT: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """honeycomb._fast_center on every column of XT, an (n, m) array of m
    points.

    Returns (F, inc, d, snapped, k): the floors after snapping, the 0/1
    raises, so that column j's center is F[:, j] + inc[:, j], the distance
    d[j] to it, whether any coordinate of column j snapped to an integer,
    and the residues _floor_sum_residue(F), which _containing_counts takes
    on the same floors.  Each entry equals _fast_center's on the same point
    while |x| <= 2^53, where the floors are exact and x - F rounds as
    _fast_center's fractional parts do.  F is the workspace's, valid until
    the next call in the same thread; the other four are new arrays.

    As in _fast_center, the floors and x - F come first, and only an entry
    whose x - F lies within eps + _SNAP_MARGIN of 0 or of 1 takes the exact
    test |x - rint(x)| <= eps.  fl(x - floor x) is within 2^-54 of the
    exact value, so no other entry lies within eps of an integer (see
    _fast_center for the margin), and in a block with no flagged entry the
    test costs two comparisons per entry.  An entry that snaps takes rint(x)
    as its floor and x - rint(x) as its x - F; every other entry, flagged
    or not, keeps the floor and x - F already formed.

    x - F is left in the first half of the workspace's (2, n, m) pair
    buffer, where _containing_counts reads it as P0, and d is taken from
    x - F - inc in the second half, which the count overwrites.
    """
    n, m = XT.shape
    F = np.floor(XT, out=_WS.array("F", (n, m)))
    P0, D = _WS.array("pair", (2, n, m))
    np.subtract(XT, F, out=P0)
    near = eps + _SNAP_MARGIN
    flag = np.less_equal(P0, near)
    flag |= np.greater_equal(P0, 1.0 - near)
    snapped = np.zeros(m, bool)
    if flag.any():
        # the flat indices of the flagged entries, and their x - rint(x)
        at = np.flatnonzero(flag)
        x = XT.take(at)
        r = np.rint(x)
        x -= r
        hit = np.abs(x) <= eps
        at = at[hit]
        # a snapped entry's floor is rint(x), so its x - F is x - rint(x)
        F.put(at, r[hit])
        P0.put(at, x[hit])
        snapped[at % m] = True
    k = _floor_sum_residue(F)
    rank = _stable_rank(P0)
    # column j raises the entries of rank >= k - 1; k - 1 is taken in the
    # rank's unsigned dtype, where k = 0 wraps to its maximum, above every
    # rank, so such a column raises none
    inc = rank >= np.subtract(k, 1, dtype=rank.dtype)
    # taking inc off x - F is _fast_center's inc - f negated, so d is its
    # distance bit for bit.  x - F is not exact for x in (-1/2, -eps), where
    # it is 1 - |x| rounded, so d can be an ulp from dist(F + inc, x).
    # inc is copied into D first, so the subtraction is float64 only and
    # skips numpy's cast of a bool operand
    np.copyto(D, inc)
    d = _norms(np.subtract(P0, D, out=D))
    return F, inc, d, snapped, k


def _norms(D: np.ndarray) -> np.ndarray:
    """max(0, max D) - min(0, min D) over axis 0 of D: the norm of each
    column."""
    hi = np.maximum.reduce(D, axis=0)
    np.maximum(hi, 0.0, out=hi)
    lo = np.minimum.reduce(D, axis=0)
    np.minimum(lo, 0.0, out=lo)
    hi -= lo
    return hi


def _floor_sum_residue(F: np.ndarray) -> np.ndarray:
    """Per column of the (n, m) floors F, (sum of F) mod (n+1), in the
    rank's dtype, np.min_scalar_type(n).

    Summed in int64, so exact while n * max|F| < 2^63.  The remainder is
    spelled with floor division, which numpy vectorizes for a scalar
    divisor while its integer % is several times slower.
    """
    n = len(F)
    s = np.add.reduce(F, axis=0, dtype=np.int64)
    s -= s // (n + 1) * (n + 1)
    # s is in [0, n] now, so the cast is exact
    return s.astype(np.min_scalar_type(n))


def _stable_rank(f: np.ndarray) -> np.ndarray:
    """Per column of the (n, m) array f, each entry's position in a stable
    ascending sort of that column: #{j < i : f_j <= f_i} + #{j > i : f_j < f_i}.

    One comparison per row i, f[i+1:] < f[i] across all m columns: its
    sums are rank i's second term, and each true entry, a later f_j below
    f_i, takes one off j's first term, which starts at j.  Last row first,
    so rank i is written before an earlier row subtracts from it.
    """
    n, m = f.shape
    rank = np.empty((n, m), np.min_scalar_type(n))
    rank[-1] = n - 1
    smaller = np.empty((n - 1, m), bool)
    for i in range(n - 2, -1, -1):
        moves = np.less(f[i + 1 :], f[i], out=smaller[: n - 1 - i]).view(np.uint8)
        np.add.reduce(moves, axis=0, dtype=rank.dtype, out=rank[i], initial=i)
        rank[i + 1 :] -= moves
    return rank


def _containing_counts(
    XT: np.ndarray, FT: np.ndarray, pair: np.ndarray, k: np.ndarray, eps: float
) -> np.ndarray:
    """Per column of XT, the number of tiling centers F + b, b in {0,1}^n,
    within 1 + eps.

    XT holds m points as columns, shape (n, m), FT their floors and k the
    residues _floor_sum_residue(FT), as _locate_rows returns them.  pair is
    a C-contiguous (2, n, m) array whose first half holds x - F, where
    _locate_rows leaves it in the workspace; its second half is scratch,
    and is overwritten.  F + b has coordinate sum divisible by n+1 exactly
    when the weight |b| equals r = (-sum F) mod (n+1), because |b| lies in
    [0, n].  So each point is tested against the C(n, r) weight-r vectors
    only, and every one of them is tested: the count comes from evaluating
    dist, not from the sorted fractional parts the locator uses.  Complete
    whenever no coordinate sits within eps of an integer.

    No candidate x - (F + b) is ever built.  P0 = x - F comes formed, and
    the kernel forms P1 = x - (F + 1) once per block, in that order: x - F
    is not exact for x in (-1/2, 0), so (x - F) - 1 could round twice.
    For a candidate with raised set S, 0 < |S| < n, the norm of
    x - (F + b) is

        max(0, max_{i not in S} P0_i) - min_{i in S} P1_i

    bit for bit.  The floors snap only within eps < 1/4 of an integer, so
    an unsnapped x_i lies more than eps from F_i and from F_i + 1, and a
    snapped one at most eps from F_i: P0 >= -eps >= P1.  So P1 adds nothing
    to the maximum of the full norm, P0 nothing to its minimum, and the
    minimum is at most 0.  max and min are exact, and the last subtraction
    is the one _norms makes.  Past 2^53, F + 1 can round to F, so P1 = 0 on
    an integer x_i, and the norm can come out up to eps lower; the count
    cannot change, since both norms are then at most 1: every P0_i is
    below 1 - eps before rounding, and the lost term is at most eps.  The
    single candidates b = 0 and b = 1 of r = 0 and r = n are _norms of P0
    and of P1.

    So a candidate costs a gather, not arithmetic on n coordinates.  One
    stable sort by residue makes each class a run of columns; one take
    copies its columns of P0 and P1 out to a contiguous (2n, c) block,
    since take copies a strided source first.  A take of that block by a
    slice of the cached index _subsets(n, r) lays the kept entries of P0
    above the raised ones of P1, and one maximum.reduce from 0 and one
    minimum.reduce over whole (candidates, rows) slabs give the two terms.
    A take holds all rows of the class, and as many candidates as fit
    _BROADCAST_BUDGET.
    """
    n, m = XT.shape
    # a radix sort in the small dtype; residue s, the class of weight
    # r = (-s) mod (n+1), is order[start[s]:start[s + 1]]
    order = k.argsort(kind="stable")
    start = [*np.searchsorted(k, np.arange(n + 1, dtype=k.dtype), sorter=order).tolist(), m]
    P0, P1 = pair
    np.subtract(XT, np.add(FT, 1.0, out=P1), out=P1)
    # one request per buffer, for the largest class and take of m rows
    most = min(max(1, _BROADCAST_BUDGET // n), math.comb(n, n // 2))
    slab = max(m, min(_BROADCAST_BUDGET // n, m * most))
    block = _WS.array("class-pair", (2 * n * m,))
    taken = _WS.array("taken", (n * slab,))
    hi = _WS.array("norms", (slab,))
    found = np.zeros(m, np.int64)
    # residues 0 and 1 are r = 0 and r = n: _norms of P0 and of P1.  mode
    # "clip" writes straight into out, where "raise" goes through a copy
    for s, Q in enumerate((P0, P1)):
        a, c = start[s], start[s + 1] - start[s]
        B = block[: n * c].reshape(n, c)
        Q.take(order[a : a + c], axis=1, out=B, mode="clip")
        found[a : a + c] += _norms(B) <= 1.0 + eps
    for s in range(2, n + 1):
        a, c, r = start[s], start[s + 1] - start[s], n + 1 - s
        if c == 0:
            continue
        # rows [0, n) are P0 and rows [n, 2n) are P1
        B = block[: 2 * n * c].reshape(2 * n, c)
        pair.reshape(2 * n, m).take(order[a : a + c], axis=1, out=B, mode="clip")
        index = _subsets(n, r)
        width = max(1, _BROADCAST_BUDGET // (n * c))
        for t in range(0, index.shape[1], width):
            kc = min(width, index.shape[1] - t)
            # (n - r, kc, c) kept entries above (r, kc, c) raised ones; the
            # min goes in T[0], which the max has read
            T = taken[: n * kc * c].reshape(n, kc, c)
            B.take(index[:, t : t + kc], axis=0, out=T, mode="clip")
            h = np.maximum.reduce(T[: n - r], axis=0, out=hi[: kc * c].reshape(kc, c), initial=0.0)
            h -= np.minimum.reduce(T[n - r :], axis=0, out=T[0])
            found[a : a + c] += np.add.reduce(h <= 1.0 + eps, axis=0)
    count = np.empty_like(found)
    count[order] = found
    return count


@functools.lru_cache(maxsize=64)
def _subsets(n: int, r: int) -> np.ndarray:
    """The weight-r subsets S of range(n) as one read-only (n, C(n, r)) take
    index into the 2n rows of P0 over P1.

    Column j holds, ascending, the n - r coordinates outside the j-th
    subset of combinations(range(n), r), then its r coordinates plus n.
    The complements of the r-subsets, in combinations order, are the
    (n - r)-subsets in reverse order.  In the smallest unsigned dtype that
    holds 2n - 1, which take casts a slice of at a time, so the index takes
    as many bytes as n bools per subset.  Cached, since every shard asks
    for it.
    """
    dtype, count = np.min_scalar_type(2 * n - 1), math.comb(n, r)

    def rows(k, first):
        flat = itertools.chain.from_iterable(itertools.combinations(range(first, first + n), k))
        return np.fromiter(flat, dtype, count=count * k).reshape(count, k)

    index = np.concatenate([rows(n - r, 0)[::-1].T, rows(r, n).T])
    index.flags.writeable = False
    return index
