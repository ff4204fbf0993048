"""End-to-end checks of the library's headline guarantees.

Each test exercises one advertised property at full scale, asserts the
stated tolerance and time budget, and prints a single PASS line with the
measured numbers (run pytest with -s to see them).
"""

import math
import time

import numpy as np

import tropgeo as tg
from tropgeo.geodesy import GeodesicRegion

from helpers import ball_points, batch_dist, batch_norm, sphere_points


def test_criterion_01_norm_goldens():
    t0 = time.perf_counter()
    assert tg.norm((-3, -2, 1)) == 4.0
    assert tg.norm((-3, -2, -1)) == 3.0
    assert tg.norm_proj((-3, -2, -1)) == 2.0
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"\nPASS criterion 01: norm goldens 4/3/2 exact ({dt * 1e3:.2f} ms)")


def test_criterion_02_circle_circumference():
    expect = 4.0 + 2.0 * math.sqrt(2.0)
    times = []
    for radius in (0.5, 1.0, 3.0):
        def circle(t, r=radius):
            return (r * math.cos(2.0 * math.pi * t), r * math.sin(2.0 * math.pi * t))

        t0 = time.perf_counter()
        length = tg.curve_length(circle, tol=1e-9)
        dt = time.perf_counter() - t0
        assert abs(length - expect * radius) < 1e-6
        assert dt < 1.0
        times.append(dt)
    print(
        "\nPASS criterion 02: circle length (4+2sqrt2)R within 1e-6 for "
        f"R in {{0.5, 1, 3}} ({max(times) * 1e3:.1f} ms worst case)"
    )


def test_criterion_03_planar_class_census():
    t0 = time.perf_counter()
    n_draws = 100_000
    rng = np.random.default_rng(3)
    A = np.sort(rng.uniform(-1.0, 1.0, (n_draws, 2)), axis=1)
    B = np.sort(rng.uniform(-1.0, 1.0, (n_draws, 2)), axis=1)
    C = np.sort(rng.uniform(-2.0, 2.0, (n_draws, 2)), axis=1)
    seen = {}
    feasible = 0
    for k in range(n_draws):
        a, a2 = A[k]
        b, b2 = B[k]
        c, c2 = C[k]
        try:
            reg = GeodesicRegion((a, b), (a2, b2), ((0.0, -c2), (c, 0.0)))
        except tg.EmptyRegionError:
            continue
        feasible += 1
        shape = tg.classify2d(reg)
        if shape.kind == "polygon":
            seen[shape.canonical_id] = shape.edge_count
    by_edges = {}
    for edges in seen.values():
        by_edges[edges] = by_edges.get(edges, 0) + 1
    assert len(seen) == 18
    assert by_edges == {3: 2, 4: 9, 5: 6, 6: 1}

    # degenerate shapes are classified too, alongside the 18 polygon classes
    assert tg.classify2d(tg.hull([(1, 1), (1, 1)])).kind == "point"
    assert tg.classify2d(tg.hull([(0, 0), (2, 0)])).kind == "segment-x"
    assert tg.classify2d(tg.hull([(0, 0), (0, 2)])).kind == "segment-y"
    assert tg.classify2d(tg.hull([(0, 0), (2, 2)])).kind == "segment-diag"

    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(
        f"\nPASS criterion 03: {len(seen)} polygon classes with edge-count "
        f"census {{3: 2, 4: 9, 5: 6, 6: 1}} from {feasible} feasible draws "
        f"({dt:.2f} s)"
    )


def test_criterion_04_ball_combinatorics():
    t0 = time.perf_counter()
    for n in range(1, 9):
        assert len(tg.vertices(n)) == 2 ** (n + 1) - 2
        assert len(tg.facets(n)) == n * (n + 1)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(
        "\nPASS criterion 04: 2^(n+1)-2 vertices and n(n+1) facets for "
        f"n in 1..8 ({dt * 1e3:.1f} ms)"
    )


def test_criterion_05_four_presentations_agree():
    t0 = time.perf_counter()
    eps = 1e-9
    n_pts = 100_000
    for n in range(1, 7):
        rng = np.random.default_rng(50 + n)
        X = rng.uniform(-1.5, 1.5, (n_pts, n))

        by_hrep = tg.hrep(tg.unit_ball(n)).contains_batch(X, eps=eps)
        by_dist = batch_norm(X) <= 1.0 + eps
        m = np.minimum(X.min(axis=1), 0.0)
        coeffs = np.concatenate([X - m[:, None], -m[:, None]], axis=1)
        by_mink = coeffs.max(axis=1) <= 1.0 + eps
        by_hull = tg.hull(tg.units(n)).contains_batch(X, eps=eps)

        assert np.array_equal(by_hrep, by_dist)
        assert np.array_equal(by_hrep, by_mink)
        assert np.array_equal(by_hrep, by_hull)
        assert 0 < int(by_hrep.sum()) < n_pts
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(
        "\nPASS criterion 05: H-rep, distance, Minkowski and hull membership "
        f"agree bit-for-bit on 6x{n_pts} points ({dt:.2f} s)"
    )


def test_criterion_06_generator_round_trip():
    t0 = time.perf_counter()
    n = 5
    rng = np.random.default_rng(60)
    X = ball_points(n, 100_000, rng)
    gens = tg.neg_units(n)
    worst = 0.0
    for row in X:
        x = tuple(row)
        back = tg.eval_trop_combination(tg.generator_coeffs(x), gens)
        err = max(abs(u - v) for u, v in zip(back, x))
        if err > worst:
            worst = err
    assert worst < 1e-12
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(
        f"\nPASS criterion 06: generator round trip on 100000 points, "
        f"max error {worst:.2e} ({dt:.2f} s)"
    )


def test_criterion_07_pole_distances_and_axis_angles():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        rng = np.random.default_rng(70 + n)
        S = sphere_points(n, 11_000, rng)
        assert len(S) >= 10_000
        for row in S[:10_000]:
            d_plus, d_minus = tg.pole_distances(tuple(row))
            gap = abs(d_plus + d_minus - 3.0)
            if gap > worst:
                worst = gap
    assert worst <= 1e-9

    u = tg.units(2)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert tg.angle_2d((0.0, 0.0), u[i], u[j]) == 2.0

    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(
        f"\nPASS criterion 07: pole distances sum to 3 within {worst:.1e} "
        f"on 5x10000 sphere points; axis angles exactly 2 ({dt:.2f} s)"
    )


def test_criterion_08_tiling_soundness():
    t0 = time.perf_counter()
    totals = []
    for n in range(1, 7):
        report = tg.verify_tiling(n, box_halfwidth=10.0, samples=100_000, seed=0)
        assert report.n == n
        assert report.mismatches == 0
        assert report.interior + report.boundary == 100_000
        totals.append((n, report.interior, report.boundary))
    dt = time.perf_counter() - t0
    assert dt < 60.0
    boundary = sum(b for _, _, b in totals)
    print(
        "\nPASS criterion 08: locator matches brute force on 6x100000 "
        f"samples, 0 mismatches, {boundary} boundary hits ({dt:.2f} s)"
    )


def test_criterion_09_neighbor_counts():
    t0 = time.perf_counter()
    for n in range(1, 6):
        zero = (0,) * n
        nbrs = tg.neighbors(zero)
        assert len(nbrs) == n * (n + 1)
        assert len(set(nbrs)) == len(nbrs)
        own = tg.hrep(tg.Ball(zero))
        for c in nbrs:
            assert tg.dist(zero, c) == 2.0
            shared = own.intersect(tg.hrep(tg.Ball(c)))
            assert shared.affine_dim() == n - 1
    golden = {(2, 1), (1, 2), (-1, 1), (1, -1), (-2, -1), (-1, -2)}
    assert {tuple(int(v) for v in c) for c in tg.neighbors((0, 0))} == golden
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(
        "\nPASS criterion 09: n(n+1) neighbors at distance 2 sharing "
        f"(n-1)-dimensional faces for n in 1..5 ({dt:.2f} s)"
    )


def test_criterion_10_simplex_hull_golden():
    t0 = time.perf_counter()
    got = tg.hull([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
    want = GeodesicRegion(
        lower=(0, 0, 0),
        upper=(1, 1, 1),
        diff_lb=((0, 0, 0), (-1, 0, 0), (-1, -1, 0)),
    )
    assert got == want
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(
        "\nPASS criterion 10: simplex hull equals 0 <= x3 <= x2 <= x1 <= 1 "
        f"({dt * 1e3:.2f} ms)"
    )


def test_criterion_11_bilipschitz_suite():
    t0 = time.perf_counter()
    n_pairs = 100_000
    slack = 1e-9
    for n in range(1, 9):
        rng = np.random.default_rng(110 + n)
        X = rng.uniform(-5.0, 5.0, (n_pairs, n))
        Y = rng.uniform(-5.0, 5.0, (n_pairs, n))
        delta = X - Y
        d_trop = batch_dist(X, Y)
        d_inf = np.abs(delta).max(axis=1)
        d_one = np.abs(delta).sum(axis=1)
        assert np.all(d_inf <= d_trop + slack)
        assert np.all(d_trop <= 2.0 * d_inf + slack)
        assert np.all(d_trop <= d_one + slack)
        assert np.all(d_one <= n * d_trop + slack)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(
        "\nPASS criterion 11: both metric comparison chains hold on "
        f"8x{n_pairs} pairs ({dt:.2f} s)"
    )
