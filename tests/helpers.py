"""Shared samplers and independent oracles for the test suite."""

import itertools
import random

import numpy as np

import tropgeo as tg


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


def containing_count_oracle(X, F, eps):
    """Per row of X, the tiling centers F + b within 1 + eps, over all 2^n b.

    Tries every 0/1 offset of the floors F and keeps those whose coordinate
    sum is divisible by n+1: the exhaustive count that the honeycomb's
    weight-r enumeration must reproduce.
    """
    m, n = X.shape
    count = np.zeros(m, dtype=np.int64)
    for bits in itertools.product((0.0, 1.0), repeat=n):
        cand = F + np.array(bits)
        ok = cand.sum(axis=1).astype(np.int64) % (n + 1) == 0
        cd = X - cand
        cdist = np.maximum(cd.max(axis=1), 0.0) - np.minimum(cd.min(axis=1), 0.0)
        ok &= cdist <= 1.0 + eps
        count += ok
    return count


def tiling_report_oracle(n, box_halfwidth, samples, seed, eps, shard_size):
    """verify_tiling's report from the scalar locate and the exhaustive count.

    Draws each shard whole with ``uniform`` from the substream (seed,
    shard), takes each sample's status and distance from ``tg.locate``, and
    its number of containing centers from containing_count_oracle, or from
    locate's all_centers when a coordinate is within eps of an integer, as
    verify_tiling does.  Then applies verify_tiling's mismatch rule.
    """
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
    for i in range(n):
        for j in range(n):
            if i != j:
                ok &= (A[:, i] - A[:, j]) >= (region.diff_lb[i][j] - eps)
    return ok


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
            fresh.append(tg.hull([x, y]).sample(rng))
        current.extend(fresh)
    return current
