import itertools
import logging
import math
import operator
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tropgeo as tg
from tropgeo import _batch, honeycomb
from tropgeo.honeycomb import HEX_BASIS_2D, as_center, hexagon_rings

from helpers import (
    alcove_faces,
    batch_dist,
    chart_cover_oracle,
    containing_count_oracle,
    dist_oracle,
    facet_neighbors_oracle,
    fast_center_oracle,
    fast_center_rounding_oracle,
    locate_enumeration_oracle,
    snap_by_rounding,
    stable_rank_oracle,
    tiling_report_oracle,
)


def lattice_window(n, halfwidth):
    for c in itertools.product(range(-halfwidth, halfwidth + 1), repeat=n):
        if sum(c) % (n + 1) == 0:
            yield c


def test_in_lattice_worked_values():
    assert tg.in_lattice((0, 0))
    assert tg.in_lattice((2, 1))
    assert not tg.in_lattice((1, 1))
    assert tg.in_lattice((1, 1, 2))
    assert tg.in_lattice((0,))
    assert not tg.in_lattice((1,))


def test_center_validation():
    assert as_center((2.0, 1.0)) == (2, 1)
    with pytest.raises(tg.DomainError):
        as_center((1.5, 0))
    with pytest.raises(tg.DomainError):
        as_center(())
    with pytest.raises(tg.DomainError):
        tg.in_lattice((0.25,))


def test_nonzero_lattice_vectors_keep_their_distance():
    # everything except the origin is at least 2 away, which is why the
    # unit balls tile without overlapping interiors
    for n in (1, 2, 3):
        best = min(
            tg.norm(c)
            for c in lattice_window(n, 2)
            if any(c)
        )
        assert best == 2.0


def test_locate_worked_values():
    res = tg.locate((0.5, 0.3))
    assert res.center == (0, 0)
    assert res.status == "interior"
    assert res.all_centers == ((0, 0),)
    assert res.distance == pytest.approx(0.5, abs=1e-12)

    res = tg.locate((1.2, 0.7))
    assert res.center == (2, 1)
    assert res.status == "interior"
    assert res.distance == pytest.approx(0.8, abs=1e-12)

    res = tg.locate((0.9, -0.4))
    assert res.center == (1, -1)
    assert res.status == "interior"
    assert res.distance == pytest.approx(0.7, abs=1e-12)


def test_locate_at_a_center():
    res = tg.locate((0.0, 0.0, 0.0))
    assert res.center == (0, 0, 0)
    assert res.status == "interior"
    assert res.distance == 0.0
    assert res.all_centers == ((0, 0, 0),)


def test_locate_certificate():
    rng = np.random.default_rng(41)
    for n in range(1, 5):
        for _ in range(200):
            x = tuple(rng.uniform(-8, 8, n))
            res = tg.locate(x)
            assert res.distance == tg.dist(x, res.center)
            assert res.distance <= 1.0 + 1e-9
            assert res.center in res.all_centers
            for c in res.all_centers:
                assert tg.in_lattice(c)
                assert tg.dist(x, c) <= 1.0 + 1e-9


def test_locate_matches_bruteforce():
    rng = np.random.default_rng(42)
    snap = np.random.default_rng(142)
    for n in range(1, 9):
        for _ in range(300):
            u = rng.uniform(-6, 6, n)
            # the same point with some coordinates on integers, which
            # locate sends to the enumeration
            on_int = np.where(snap.random(n) < 0.3, np.round(u), u)
            for x in (tuple(u), tuple(on_int)):
                res = tg.locate(x)
                brute = honeycomb.locate_bruteforce(tg.as_point(x), tg.DEFAULT_EPS)
                assert tuple(brute) == res.all_centers
                if res.status == "interior":
                    assert brute == [res.center]


@st.composite
def decoder_cases(draw):
    """A point of dimension n = 1..12 and an eps of 1e-9, 0.05 or 0.2.

    Each coordinate is an integer base plus an offset, drawn from a small
    pool so that fractional parts tie within and across the kept and the
    raised coordinates.  A third of the points keep every offset more than
    eps from an integer, so that nothing snaps.  A third take uniform
    offsets in (-1/2, 0), mostly on base 0, where x - floor(x) rounds and a
    raised coordinate's delta c - x is -x: the floors are -1, so most of
    these points raise them all.  The others mix in bases of +-2^52 and
    +-2^53, and offsets of +-0.0, +-1e-20 and values on, just inside and
    just outside +-eps and 1 - eps.
    """
    n = draw(st.integers(1, 12))
    eps = draw(st.sampled_from([1e-9, 0.05, 0.2]))
    inside, outside = math.nextafter(eps, 0.0), math.nextafter(eps, 1.0)
    kind = draw(st.integers(0, 2))
    if kind == 0:
        offsets = st.one_of(
            st.floats(outside, 1.0 - outside),
            st.sampled_from([0.25, 0.5, 0.75, outside, 1.0 - outside]),
        )
        bases = st.integers(-6, 6)
    elif kind == 1:
        offsets = st.floats(-0.5, 0.0, exclude_min=True, exclude_max=True)
        bases = st.sampled_from([0, 0, 0, 1, -4])
    else:
        special = [0.0, -0.0, 1e-20, -1e-20, 0.5, 1.0 - 2.0**-53]
        special += [eps, -eps, inside, -inside, outside, -outside]
        special += [1.0 - eps, 1.0 - inside, 1.0 - outside]
        offsets = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(special))
        bases = st.one_of(
            st.integers(-6, 6), st.sampled_from([2**53, -(2**53), 2**52, -(2**52)])
        )
    pool = draw(st.lists(offsets, min_size=1, max_size=n + 1))
    coords = []
    for _ in range(n):
        b, f = draw(bases), draw(st.sampled_from(pool))
        # 0 + (-0.0) is 0.0, so a zero base keeps the offset itself
        coords.append(f if b == 0 else b + f)
    return tuple(coords), eps


def _residue_shifts(x):
    """x and x plus j = 1..n on its first coordinate: the floor sum moves
    by j while |x_0| < 2^52, so the shifts meet every residue k = 0..n."""
    return [x] + [(x[0] + j,) + x[1:] for j in range(1, len(x) + 1)]


@settings(max_examples=400, deadline=None)
@given(decoder_cases())
def test_fast_center_matches_its_oracle_bit_for_bit(case):
    x, eps = case
    for y in _residue_shifts(x):
        c, d, snapped = honeycomb._fast_center(y, eps)
        wc, wd, wsnapped = fast_center_oracle(y, eps)
        # repr tells an int center from a float one
        assert repr((c, snapped)) == repr((wc, wsnapped))
        assert np.float64(d).tobytes() == np.float64(wd).tobytes()


@settings(max_examples=200, deadline=None)
@given(decoder_cases())
def test_locate_matches_the_fast_center_oracle(case):
    x, eps = case
    shifts = _residue_shifts(x)
    got = [repr(tg.locate(y, eps)) for y in shifts]
    with mock.patch.object(honeycomb, "_fast_center", fast_center_oracle):
        want = [repr(tg.locate(y, eps)) for y in shifts]
    assert got == want


def _cut_tie_points(n):
    """Points whose sorted fractional parts tie at positions p and p + 1,
    for every p = 0..n-2, so the shift with k = p + 2 has a tie at the cut.
    The parts are multiples of 1/32 in shuffled positions, so every shift
    keeps them exactly.  Then -0.0 (a snapped coordinate) ties 0.0 at
    positions 0 and 1, either one first, and three zeros tie."""
    rng = np.random.default_rng(n)
    pts = []
    for p in range(n - 1):
        fracs = [(i + 1) / 32 for i in range(n)]
        fracs[p + 1] = fracs[p]
        order = rng.permutation(n).tolist()
        pts.append(tuple(float(b) + fracs[i] for b, i in zip(rng.integers(-4, 4, n), order)))
    rest = tuple((i + 1) / 32 for i in range(n))
    for zeros in ((-0.0, 0.0), (0.0, -0.0), (-0.0, 0.0, 0.0)):
        pts.append(((0.75,) + zeros + rest)[:n])
    return pts


def _tie_at_the_cut(y, eps):
    floors, _ = snap_by_rounding(y, eps)
    k = sum(floors) % (len(y) + 1)
    srt = sorted(map(operator.sub, y, floors))
    return k >= 2 and srt[k - 2] == srt[k - 1]


def _bits(center, d, snapped):
    # repr tells an int center from a float one
    return repr(center), np.float64(d).tobytes(), snapped


@pytest.mark.parametrize("n", [3, 6, 12])
def test_fast_center_breaks_a_tie_at_the_cut_by_index(n):
    eps = tg.DEFAULT_EPS
    shifts = [_residue_shifts(x) for x in _cut_tie_points(n)]
    assert all(any(_tie_at_the_cut(y, eps) for y in ys) for ys in shifts)
    rows = [y for ys in shifts for y in ys]
    F, inc, bd, bsnapped, _ = _batch._locate_rows(np.array(rows).T.copy(), eps)
    centers = (F.astype(np.int64) + inc).T.tolist()
    for j, y in enumerate(rows):
        got = _bits(*honeycomb._fast_center(y, eps))
        assert got == _bits(*fast_center_oracle(y, eps)), y
        assert got == _bits(*fast_center_rounding_oracle(y, eps)), y
        assert got == _bits(tuple(centers[j]), bd[j], bool(bsnapped[j])), y


def _mixed_points(n, rng, count):
    """Points whose coordinates are each uniform or on an integer, a half or
    a third, plus the origin, a tied pair of fractional parts and shifts to
    magnitudes up to 2^52, where a float holds no fraction."""
    grids = (0.0, 1.0, 2.0, 3.0)
    pts = [(0.0,) * n]
    for _ in range(count):
        coords = []
        for g in rng.choice(grids, n):
            v = rng.uniform(-4, 4)
            coords.append(float(v) if g == 0.0 else round(v * g) / g)
        pts.append(tuple(coords))
    if n >= 2:
        pts.append((1.3, 1.3) + tuple(rng.uniform(-4, 4, n - 2)))
        pts.append((-2.7,) + tuple(rng.uniform(-4, 4, n - 2)) + (5.3,))
    for s in (2.0**20, -(2.0**40), 2.0**52):
        pts.extend(tuple(s + v for v in p) for p in pts[1:4])
    return pts


def _at_the_rounded_bound(n, eps):
    """Points whose distance from the center 0, as rounded, is 1 + eps."""
    return [(1.0 + eps,) + (0.0,) * (n - 1), (0.0,) * (n - 1) + (-(1.0 + eps),)]


EPS_GRID = [1e-12, 1e-9, 1e-3, 0.05]


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("n", range(1, 8))
def test_locate_bruteforce_equals_the_enumeration_oracle(n, eps):
    # the closed form lists what the whole product lists, in its order; at
    # the rounded bound the product's ranges drop a center (the test below),
    # so the chart cover judges those points
    for x in _mixed_points(n, np.random.default_rng([n, 7]), 40):
        assert honeycomb.locate_bruteforce(tg.as_point(x), eps) == locate_enumeration_oracle(x, eps), x
    for x in _at_the_rounded_bound(n, eps):
        assert honeycomb.locate_bruteforce(tg.as_point(x), eps) == chart_cover_oracle(x, eps), x


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("n", range(1, 7))
def test_chart_cover_oracle_equals_the_enumeration_oracle(n, eps):
    # no point at the rounded bound: the enumeration's ranges drop some of
    # those centers (the test below), and the chart cover keeps them
    for x in _mixed_points(n, np.random.default_rng([n, 8]), 40):
        assert chart_cover_oracle(x, eps) == locate_enumeration_oracle(x, eps), x


def test_enumeration_keeps_a_center_at_the_rounded_bound():
    # x = 1 + eps rounds up, so u - 1 - eps rounds above -1 and the
    # product's range of offsets starts at 0; yet dist(x, 0) == 1.0 + eps as
    # rounded, and the closed form tests that same subtraction
    x, eps = (1.0 + 1e-12,), 1e-12
    assert tg.dist(x, (0,)) <= 1.0 + eps
    assert chart_cover_oracle(x, eps) == [(0,), (2,)]
    assert locate_enumeration_oracle(x, eps) == [(2,)]
    assert honeycomb.locate_bruteforce(tg.as_point(x), eps) == [(0,), (2,)]


def test_locate_raises_when_the_list_lacks_the_fast_center(monkeypatch):
    # the fast-path center always contains x, so a list without it breaks
    # the tiling theorem; there is no nearest-center fallback
    x = (1.0, 0.5)
    assert tg.locate(x).center == (2, 1)
    monkeypatch.setattr(honeycomb, "locate_bruteforce", lambda x, eps: [(0, 0)])
    with pytest.raises(tg.TropgeoError, match="fast-path center"):
        tg.locate(x)


def test_locate_lists_once_per_snapped_or_uncertain_point(monkeypatch):
    # the list step runs only where the decoder cannot answer alone: never
    # for an interior point, once for a point with an integer coordinate,
    # once per snapped row of verify_tiling (which _batch hands to locate)
    listed = []
    step = honeycomb.locate_bruteforce

    def counted(px, eps):
        listed.append(px)
        return step(px, eps)

    monkeypatch.setattr(honeycomb, "locate_bruteforce", counted)
    rng = np.random.default_rng(31)
    for n in (2, 6, 10):
        for x in rng.uniform(-10, 10, (100, n)).tolist():
            assert tg.locate(x).status == "interior"
    assert listed == []
    points = 0
    for n in range(4, 11):
        for x in rng.uniform(-10, 10, (10, n)):
            k = rng.integers(n)
            x[k] = np.round(x[k])
            tg.locate(tuple(x.tolist()))
            points += 1
    assert len(listed) == points
    listed.clear()
    assert tg.locate((1.0, 0.5)).status == "boundary"
    assert listed == [(1.0, 0.5)]
    listed.clear()
    eps = 0.05
    # the samples verify_tiling draws for seed 0: shard 0 is uniform(-10, 10)
    X = np.random.default_rng([0, 0]).uniform(-10, 10, (2000, 3))
    snapped = int(np.count_nonzero((np.abs(X - np.round(X)) <= eps).any(axis=1)))
    assert tg.verify_tiling(3, samples=2000, eps=eps).mismatches == 0
    assert 0 < snapped == len(listed)


def _high_dim_points(n, rng):
    """Uniform points with 1, 2 or 3 coordinates on integers, some shifted
    far from the origin, and a point with a tied pair at the decoder's cut."""
    pts = []
    for k in (1, 2, 3):
        for s in (0.0, 2.0**40):
            x = rng.uniform(-6, 6, n)
            idx = rng.choice(n, k, replace=False)
            x[idx] = np.round(x[idx])
            pts.append(tuple(s + v for v in x.tolist()))
    # dyadic, so the tie is exact; with floors summing to 2 mod n+1 the
    # decoder keeps only the smallest fractional part, so tying the two
    # smallest puts the point on a facet
    x = rng.integers(-6 * 1024, 6 * 1024, n) / 1024
    x[0] += (2 - np.floor(x).sum()) % (n + 1)
    frac = x - np.floor(x)
    lo, second = np.argsort(frac, kind="stable")[:2]
    x[second] = np.floor(x[second]) + frac[lo]
    pts.append(tuple(x.tolist()))
    return pts


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
@pytest.mark.parametrize("n", [16, 32])
def test_locate_at_high_dimension_misses_no_center(n, eps):
    # the chart cover judges completeness where 3^n offsets cannot be tried
    for x in _high_dim_points(n, np.random.default_rng([n, 9])):
        want = chart_cover_oracle(x, eps)
        assert honeycomb.locate_bruteforce(tg.as_point(x), eps) == want, x
        res = tg.locate(x, eps)
        assert res.all_centers == tuple(want)
        assert res.center in want
    # the last point, with the tied pair, lies on a facet
    assert len(want) >= 2


def test_locate_of_the_origin_at_n16():
    # the whole product would try 3^16, about 43M, offsets
    res = tg.locate((0.0,) * 16)
    assert res.all_centers == ((0,) * 16,)
    assert res.status == "interior"
    assert res.distance == 0.0


@pytest.mark.parametrize("n", [32, 64])
def test_locate_of_the_origin_at_n32_and_n64(n):
    # a depth-first walk over offsets passed about 2^(n+2) prefixes here
    res = tg.locate((0.0,) * n)
    assert res.all_centers == ((0,) * n,)
    assert res.status == "interior"
    assert res.distance == 0.0


def _integer_point_centers(x):
    """The centers containing the integer point x, sorted.

    A lattice point c with c - x in {0, 1}^n or {-1, 0}^n is within 1 of x,
    and no other integer point is; the lattice condition fixes the weight
    of c - x at r = (-sum x) or s = (sum x) mod (n+1).  A count of
    C(n, r) + C(n, s), less one when s = 0 and both hold the zero vector."""
    n = len(x)
    s = sum(x) % (n + 1)
    out = set()
    for step, weight in ((1, -s % (n + 1)), (-1, s)):
        for idx in itertools.combinations(range(n), weight):
            c = list(x)
            for i in idx:
                c[i] += step
            out.add(tuple(c))
    return sorted(out)


@pytest.mark.parametrize("eps", [1e-9, 0.05])
@pytest.mark.parametrize("n", [32, 64])
def test_locate_of_tied_integer_points_at_high_dimension(n, eps):
    # every coordinate is tied; the chart cover is exponential here.  Not
    # (1, 0, 1, 0, ...): it lies in C(n, n/2) + C(n, n/2 + 1) balls, over
    # 10^9 at n = 32, which no list holds
    e1 = (1,) + (0,) * (n - 1)
    for x in (e1, (1, 1) + (0,) * (n - 2), (1,) * n):
        want = _integer_point_centers(x)
        res = tg.locate(tuple(map(float, x)), eps)
        assert res.all_centers == tuple(want), x
        assert res.center in want
        assert res.status == "boundary"
        assert all(tg.in_lattice(c) and tg.dist(x, c) == 1.0 for c in want)
    assert len(_integer_point_centers(e1)) == n + 1


def _relative(res, x):
    """A locate result less its distance, taken relative to the floors of x."""
    F = [math.floor(v) for v in x]

    def rel(c):
        return tuple(a - f for a, f in zip(c, F))

    return rel(res.center), res.status, tuple(map(rel, res.all_centers))


@pytest.mark.parametrize("n", range(1, 6))
def test_locate_on_every_face_of_the_alcove_arrangement(n):
    # exhaustive where the samples of verify_tiling meet no boundary: every
    # face, judged by the chart cover and exact dyadic distances
    eps = 1e-12
    boundary_faces = 0
    for face, (x, y) in alcove_faces(n, seed=n):
        res = tg.locate(x, eps)
        assert _relative(res, x) == _relative(tg.locate(y, eps), y), face
        want = chart_cover_oracle(x, eps)
        assert res.all_centers == tuple(want), face
        dist = {c: dist_oracle(x, c) for c in want}
        assert res.distance == dist[res.center], face
        on_boundary = any(d == 1.0 for d in dist.values())
        assert res.status == ("boundary" if on_boundary else "interior"), face
        # balls meet only on their boundaries
        assert (len(want) >= 2) == on_boundary, face
        assert len(want) == 1 or all(d == 1.0 for d in dist.values()), face
        boundary_faces += on_boundary
    # of 4 / 18 / 104 / 750 / 6492 faces
    assert boundary_faces == {1: 1, 2: 5, 3: 29, 4: 209, 5: 1809}[n]


def test_boundary_point_on_shared_facet():
    res = tg.locate((1.0, 0.5))
    assert res.status == "boundary"
    assert set(res.all_centers) == {(0, 0), (2, 1)}
    brute = honeycomb.locate_bruteforce(tg.as_point((1.0, 0.5)), tg.DEFAULT_EPS)
    assert set(brute) == {(0, 0), (2, 1)}


def test_fractional_tie_is_a_boundary_point():
    # equal fractional parts mean the floor/raise choice is ambiguous,
    # which is exactly the shared-facet situation
    res = tg.locate((1.3, 1.3))
    assert res.status == "boundary"
    assert set(res.all_centers) == {(1, 2), (2, 1)}
    assert res.distance == pytest.approx(1.0, abs=1e-12)


def test_integer_coordinate_can_still_be_interior():
    res = tg.locate((0.0, 0.3))
    assert res.status == "interior"
    assert res.all_centers == ((0, 0),)


def test_no_other_raise_count_fits_the_congruence():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        for _ in range(100):
            x = rng.uniform(-5, 5, n)
            floors = np.floor(x).astype(int)
            k = int(floors.sum()) % (n + 1)
            m_good = 0 if k == 0 else n + 1 - k
            for m in range(n + 1):
                ok = (int(floors.sum()) + m) % (n + 1) == 0
                assert ok == (m == m_good)


def test_locate_translation_covariance():
    rng = np.random.default_rng(44)
    for n in (1, 2, 3):
        basis = tg.lattice_basis(n)
        for _ in range(100):
            # dyadic coordinates keep the shifted sums exact
            x = tuple(float(v) / 1024.0 for v in rng.integers(-5120, 5120, n))
            base = tg.locate(x)
            for v in basis:
                shifted = tg.locate(tuple(a + b for a, b in zip(x, v)))
                assert shifted.center == tuple(a + b for a, b in zip(base.center, v))
                assert shifted.status == base.status
                assert shifted.distance == base.distance


def _exact_centers(x):
    """Each center within distance 1 of the rational point x, with its
    distance, in exact arithmetic."""
    n = len(x)
    out = {}
    for delta in itertools.product((-1, 0, 1, 2), repeat=n):
        c = tuple(math.floor(v) + b for v, b in zip(x, delta))
        diff = [a - v for a, v in zip(c, x)]
        d = max(max(diff), 0) - min(min(diff), 0)
        if d <= 1 and sum(c) % (n + 1) == 0:
            out[c] = d
    return out


@pytest.mark.parametrize("y", [3.0, 3.25, 3.5, 3.75])
@pytest.mark.parametrize("s", [1.0, 2.0**52, 2.0**53, 1e16, 1e17], ids=repr)
def test_locate_is_exact_at_every_magnitude(s, y, caplog):
    # (s, 3) is a vertex of three hexagons however large s is; past 2^53 a
    # center one step from x rounds onto x's own coordinate, so distances
    # taken in the global frame come out too short
    want = _exact_centers((Fraction(s), Fraction(y)))
    res = tg.locate((s, y))
    assert set(res.all_centers) == set(want)
    assert y != 3.0 or len(want) == 3
    assert res.distance == float(want[res.center])
    assert (res.status == "interior") == (len(want) == 1 and want[res.center] < 1)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_locate_takes_each_delta_once_where_the_floor_is_minus_one():
    # x - floor(x) = x + 1 rounds for x in (-1/2, 0), and 1 - (x + 1) then
    # rounded again, to 0.30000000000000004; c - x rounds once, as dist does
    assert tg.locate((-0.3,)).distance == 0.3 == tg.dist((0,), (-0.3,))
    # past 2^53 dist rounds the center's second coordinate, 2^60 + 257, onto
    # x's and reads 0.3; the exact distance is 1, on a boundary
    x = (-0.3, 2.0**60 + 256)
    res = tg.locate(x)
    assert res.center == (0, 2**60 + 257)
    assert (res.distance, res.status) == (1.0, "boundary")
    assert res.all_centers == ((-1, 2**60 + 255), (0, 2**60 + 257))
    assert tg.dist(res.center, x) == 0.3
    # x + 1 rounds onto the first coordinate's fractional part, so the
    # decoder's least raised f is tied, and the floor -1 comes second
    v = -0.1603593009809457
    x = (v + 1.0, v, -0.8845381017537157)
    res = tg.locate(x)
    assert res.distance == tg.dist(res.center, x)


@settings(max_examples=400, deadline=None)
@given(st.lists(
    st.one_of(
        st.floats(-0.5, 0.0, exclude_min=True, exclude_max=True),
        st.floats(-(2.0**52), 2.0**52, exclude_min=True, exclude_max=True),
    ),
    min_size=1,
    max_size=8,
))
def test_locate_distance_is_dist_to_its_center(x):
    # below 2^52 every center coordinate is a float exactly, so dist rounds
    # each c - x once, as the decoder does
    res = tg.locate(x)
    assert res.distance == tg.dist(res.center, x)


def test_neighbors_golden_2d():
    assert set(tg.neighbors((0, 0))) == {
        (2, 1), (1, 2), (-1, 1), (1, -1), (-2, -1), (-1, -2),
    }


def test_neighbors_counts_and_distance():
    for n in range(1, 5):
        nbs = tg.neighbors((0,) * n)
        assert len(nbs) == n * (n + 1)
        assert len(set(nbs)) == len(nbs)
        for nb in nbs:
            assert tg.in_lattice(nb)
            assert tg.norm(nb) == 2.0


def test_neighbors_share_a_full_facet():
    # the full check, every root: neighbors itself checks one and relies on
    # the S_{n+1} symmetry for the rest
    for n in range(1, 9):
        own = tg.hrep(tg.Ball((0,) * n))
        nbs = tg.neighbors((0,) * n)
        assert len(nbs) == n * (n + 1)
        for nb in nbs:
            shared = own.intersect(tg.hrep(tg.Ball(nb)))
            assert shared.affine_dim() == n - 1


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("fault", ["empty", "lower-dimensional"])
def test_neighbors_raises_when_the_representative_shares_no_facet(n, fault, monkeypatch):
    c = random_lattice_center(n, np.random.default_rng(n))
    # u_1 - u_2 over u = e_1, ..., e_n, -(1, ..., 1)
    rho = (2,) if n == 1 else (1, -1) + (0,) * (n - 2)
    if fault == "empty":
        # the ball at 2 rho lies at distance 4 from the origin's
        real_hrep = honeycomb.hrep
        monkeypatch.setattr(
            honeycomb, "hrep",
            lambda ball: real_hrep(tg.Ball(tuple(2 * v for v in ball.center))),
        )
    else:
        monkeypatch.setattr(tg.GeodesicRegion, "affine_dim", lambda self, eps: n - 2)
    want = "balls at %r and %r share no facet" % (c, tuple(a + b for a, b in zip(c, rho)))
    with pytest.raises(tg.TropgeoError, match=re.escape(want)):
        tg.neighbors(c)


@pytest.mark.parametrize("n", [1, 2, 4, 16])
def test_neighbors_builds_three_regions(n, monkeypatch):
    real_init, real_hrep = tg.GeodesicRegion.__init__, honeycomb.hrep
    counts = {"regions": 0, "hrep": 0}

    def counting_init(self, *args, **kwargs):
        counts["regions"] += 1
        real_init(self, *args, **kwargs)

    def counting_hrep(*args, **kwargs):
        counts["hrep"] += 1
        return real_hrep(*args, **kwargs)

    monkeypatch.setattr(tg.GeodesicRegion, "__init__", counting_init)
    monkeypatch.setattr(honeycomb, "hrep", counting_hrep)
    assert len(tg.neighbors((0,) * n)) == n * (n + 1)
    # two balls and their intersection, whatever n
    assert counts == {"regions": 3, "hrep": 2}


def test_neighbors_translation_covariance():
    base = set(tg.neighbors((0, 0)))
    c = (2, 1)
    assert set(tg.neighbors(c)) == {(a + c[0], b + c[1]) for a, b in base}


def random_lattice_center(n, rng):
    c = [int(v) for v in rng.integers(-50, 51, n)]
    c[-1] -= sum(c) % (n + 1)
    return tuple(c)


NEIGHBOR_ORACLE_CASES = [
    (n, k) for n in range(1, 6) for k in range(3)
] + [(6, 1)]


@pytest.mark.parametrize("n, k", NEIGHBOR_ORACLE_CASES)
def test_neighbors_equal_the_window_search(n, k):
    # k = 0 is the origin, k > 0 a random lattice center
    c = (0,) * n if k == 0 else random_lattice_center(n, np.random.default_rng([n, k]))
    assert tg.in_lattice(c)
    assert tg.neighbors(c) == facet_neighbors_oracle(c)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("shifted", [False, True])
def test_neighbors_at_high_dimension(n, shifted):
    c = random_lattice_center(n, np.random.default_rng(n)) if shifted else (0,) * n
    nbs = tg.neighbors(c)
    assert len(nbs) == len(set(nbs)) == n * (n + 1)
    for nb in nbs:
        assert tg.in_lattice(nb)
        assert tg.dist(c, nb) == 2.0


@pytest.mark.parametrize("c", [(2**52, -2**52), (2**53 + 3, -(2**53)), (3 * 10**20, 0)])
def test_neighbors_are_exact_at_every_magnitude(c):
    base = tg.neighbors((0, 0))
    assert tg.neighbors(c) == sorted(tuple(a + b for a, b in zip(c, r)) for r in base)


def test_neighbors_rejects_non_lattice_centers():
    with pytest.raises(tg.DomainError):
        tg.neighbors((1, 1))


def test_lattice_basis():
    assert tg.lattice_basis(1) == [(2,)]
    for n in range(1, 7):
        basis = tg.lattice_basis(n)
        assert len(basis) == n
        for v in basis:
            assert tg.in_lattice(v)
        det = round(abs(np.linalg.det(np.array(basis, dtype=float))))
        assert det == n + 1


def test_lattice_basis_is_capped_at_about_64_mb():
    # the cap is a dimension whose whole list fits; one above raises before
    # anything is built, at any size
    cap = honeycomb._MAX_BASIS_DIM
    assert len(tg.lattice_basis(cap)) == cap
    for n in (cap + 1, 2**53 + 1):
        with pytest.raises(tg.DomainError) as exc:
            tg.lattice_basis(n)
        assert str(exc.value) == "basis vectors are listed up to dimension %d, got %d" % (cap, n)


def test_hex_basis_spans_the_same_lattice():
    assert tg.spans_same_lattice(tg.lattice_basis(2), HEX_BASIS_2D)
    assert tg.spans_same_lattice(HEX_BASIS_2D, ((1, -1), (0, 3)))
    assert not tg.spans_same_lattice(HEX_BASIS_2D, ((1, 0), (0, 1)))
    # sublattice of index 2: one-way containment only
    assert not tg.spans_same_lattice(HEX_BASIS_2D, ((4, 2), (-1, 1)))


def test_basis_generates_the_window():
    # integer combinations of the basis hit every lattice point in a window
    for n in (1, 2, 3):
        basis = np.array(tg.lattice_basis(n))
        got = set()
        for coeffs in itertools.product(range(-6, 7), repeat=n):
            v = tuple(int(x) for x in np.array(coeffs) @ basis)
            if max(abs(c) for c in v) <= 2:
                got.add(v)
        assert got == set(lattice_window(n, 2))


def test_verify_tiling_small_runs():
    for n in (1, 2, 3):
        rep = tg.verify_tiling(n, box_halfwidth=6.0, samples=4000, seed=5)
        assert rep.mismatches == 0
        assert rep.interior + rep.boundary == rep.samples == 4000
        assert rep.n == n
        # random reals land on facets almost never
        assert rep.boundary <= 5


def test_verify_tiling_is_deterministic():
    a = tg.verify_tiling(2, box_halfwidth=5.0, samples=3000, seed=9)
    b = tg.verify_tiling(2, box_halfwidth=5.0, samples=3000, seed=9)
    assert a == b
    c = tg.verify_tiling(2, box_halfwidth=5.0, samples=3000, seed=10)
    assert c.mismatches == 0


def test_verify_tiling_crosses_shard_boundaries(monkeypatch):
    monkeypatch.setattr(_batch, "_SHARD_SIZE", 1024)
    rep = tg.verify_tiling(2, box_halfwidth=5.0, samples=3000, seed=3)
    assert rep.mismatches == 0
    assert rep.interior + rep.boundary == 3000


def test_verify_tiling_is_capped_where_its_candidate_index_passes_64_mb():
    # n 2^n bytes of take index over all weight classes: 42 MiB at the cap
    cap = honeycomb._MAX_TILING_DIM
    assert cap * 2**cap < 64 * 10**6 < (cap + 1) * 2 ** (cap + 1)
    assert tg.verify_tiling(cap, samples=0).samples == 0
    for n in (cap + 1, 2**53 + 1):
        with pytest.raises(tg.DomainError) as exc:
            tg.verify_tiling(n, samples=1)
        assert str(exc.value) == "tiling checks run up to dimension %d, got %d" % (cap, n)


def test_verify_tiling_rejects_bad_arguments():
    with pytest.raises(tg.DomainError):
        tg.verify_tiling(0)
    with pytest.raises(tg.DomainError):
        tg.verify_tiling(2, samples=-5)


def test_verify_tiling_takes_integer_likes():
    # numpy integers pass operator.index, and the report holds plain ints
    rep = tg.verify_tiling(np.int64(2), samples=np.int32(300), seed=np.uint8(4))
    assert rep == tg.verify_tiling(2, samples=300, seed=4)
    assert type(rep.n) is type(rep.samples) is type(rep.seed) is int


@pytest.mark.parametrize(
    "kwargs",
    [
        {"box_halfwidth": -1.0},
        {"box_halfwidth": math.nan},
        {"box_halfwidth": math.inf},
        {"box_halfwidth": 1e16},
        {"box_halfwidth": 1e19},
        {"eps": 0.0},
        {"eps": -1.0},
        {"eps": math.nan},
        {"eps": math.inf},
        {"n": 2.0},
        {"n": "2"},
        {"n": None},
        {"samples": 2.5},
        {"samples": "10"},
        {"samples": None},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": "1"},
        {"seed": None},
    ],
    ids=repr,
)
def test_verify_tiling_rejects_bad_input(kwargs):
    # with no samples no shard is drawn, so each input must be rejected up
    # front; numpy would reject a negative seed only when drawing a shard
    with pytest.raises(tg.DomainError):
        tg.verify_tiling(**{"n": 2, "samples": 0, **kwargs})


@pytest.mark.parametrize("n", [2, 3, 5])
def test_verify_tiling_is_exact_up_to_the_box_limit(n, caplog):
    # 2^53 is the largest box in which float64 holds every integer
    report = tg.verify_tiling(n, box_halfwidth=2.0**53, samples=3000, seed=1)
    assert report.mismatches == 0
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@pytest.mark.parametrize(
    "n, box, seed, interior, boundary",
    [(2, 0.7, 1, 4794, 206), (3, 3.0, 7, 4322, 678), (5, 10.0, 1, 3861, 1139)],
)
def test_verify_tiling_report_with_a_wide_eps(n, box, seed, interior, boundary):
    # eps = 0.05 sends a tenth of the coordinates to the scalar locate path,
    # so these pinned counts hold the batch and the scalar rows to one rule
    report = tg.verify_tiling(n, box_halfwidth=box, samples=5000, seed=seed, eps=0.05)
    assert (report.interior, report.boundary, report.mismatches) == (interior, boundary, 0)


def _snapped_floors(X, eps):
    """Floors as _fast_center takes them, coordinates within eps of an integer
    snapped first.  _verify_block hands the count plain floors; snapped ones,
    with x - F down to -eps, are the harder input the count tests use."""
    R = np.round(X)
    return np.floor(np.where(np.abs(X - R) <= eps, R, X))


def _pair_buffer(XT, FT):
    """A (2, n, m) pair buffer whose first half holds x - F, as _locate_rows
    leaves it for _containing_counts."""
    pair = np.empty((2,) + XT.shape)
    np.subtract(XT, FT, out=pair[0])
    return pair


def _counts(X, F, eps):
    """_containing_counts on the (m, n) rows X with floors F, given the
    residues and x - F as _locate_rows hands them over."""
    XT, FT = X.T.copy(), F.T.copy()
    k = _batch._floor_sum_residue(FT)
    return _batch._containing_counts(XT, FT, _pair_buffer(XT, FT), k, eps)


def _count_cases(n, rng):
    """Uniform rows, rows with tied fractional parts, facet grids, snapping
    rows, rows mixing +-2^53 with small entries, rows of integers +- 1e-20,
    rows mixing 0.0, -0.0 and -1e-12 (which snaps to -0.0) with a few
    entries in (-1, 1), and rows putting +-2^53 next to entries in
    (-1/2, 0), quarters and signed zeros."""
    m = 150
    uniform = rng.uniform(-10, 10, (m, n))
    tied = rng.integers(-6, 6, (m, n)) + rng.choice([0.25, 0.5, 0.75, 0.3], (m, n))
    quarters = rng.integers(-24, 24, (m, n)) / 4
    eighths = rng.integers(-48, 48, (m, n)) / 8
    snapping = rng.uniform(-10, 10, (m, n))
    hit = rng.random((m, n)) < 0.3
    snapping[hit] = np.round(snapping[hit]) + rng.choice([0.0, 1e-12, -1e-12], hit.sum())
    # a float64 sum of these floors rounds, and 2^53 + 1 rounds to 2^53
    huge = rng.uniform(-10, 10, (m, n))
    far = rng.random((m, n)) < 0.5
    huge[far] = rng.choice([-(2.0**53), 2.0**53], far.sum())
    near_integer = rng.integers(-6, 6, (m, n)) + rng.choice([0.0, 1e-20, -1e-20], (m, n))
    zeros = rng.choice([0.0, -0.0, -1e-12], (m, n))
    some = rng.random((m, n)) < 0.25
    zeros[some] = rng.uniform(-1, 1, some.sum())
    edge = rng.uniform(-0.5, 0, (m, n))
    kind = rng.choice(4, (m, n), p=[0.3, 0.2, 0.2, 0.3])
    edge[kind == 1] = rng.integers(-24, 24, (kind == 1).sum()) / 4
    edge[kind == 2] = rng.choice([0.0, -0.0], (kind == 2).sum())
    edge[kind == 3] = rng.choice([-(2.0**53), 2.0**53], (kind == 3).sum())
    return np.vstack([uniform, tied, quarters, eighths, snapping, huge, near_integer, zeros, edge])


def _minus_half_rows(n, rng, m=100):
    """m rows uniform in (-1/2, 0), where x - floor(x) rounds, the same
    rows with their first coordinate shifted by a random j = 1..n, so that
    other residues k occur, and m rows with about half their entries in
    (-1/2, 0) and the rest uniform in (-10, 10).  With every floor -1 and
    k = 1, an unshifted row raises every coordinate, and its distance is
    the largest -x."""
    base = rng.uniform(-0.5, 0, (m, n))
    shifted = base.copy()
    shifted[:, 0] += rng.integers(1, n + 1, m)
    mixed = rng.uniform(-10, 10, (m, n))
    half = rng.random((m, n)) < 0.5
    mixed[half] = rng.uniform(-0.5, 0, half.sum())
    return np.vstack([base, shifted, mixed])


# from n = 256 on, the rank and the residues are uint16
@pytest.mark.parametrize("n", [*range(1, 13), 255, 256, 300])
def test_batch_locator_matches_fast_center_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    scale = 2.0 ** rng.integers(0, 54, (200, n))
    X = np.vstack([
        _count_cases(n, rng),
        _minus_half_rows(n, rng),
        rng.uniform(-1, 1, (200, n)) * scale,
        rng.uniform(-(2.0**53), 2.0**53, (50, n)),
        rng.uniform(-1, 1, (50, n)) * 2.0**50,
    ])
    for eps in (tg.DEFAULT_EPS, 0.05):
        F, inc, d, snapped, k = _batch._locate_rows(X.T.copy(), eps)
        # the residues, against Python's exact integer sums of the floors
        assert k.dtype == np.min_scalar_type(n)
        assert k.tolist() == [sum(map(int, col)) % (n + 1) for col in F.T.tolist()]
        centers = (F.astype(np.int64) + inc).T.tolist()
        for j, row in enumerate(X.tolist()):
            c, dj, sj = honeycomb._fast_center(row, eps)
            assert bool(snapped[j]) == sj
            # scalar locate answers a snapped row
            if not sj:
                assert tuple(centers[j]) == c
                assert np.float64(d[j]).tobytes() == np.float64(dj).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_batch_locator_snaps_columns_at_2_pow_53_and_leaves_the_rest_alone(n):
    # a column with an entry at +-2^53, where F + 1 can round, comes out
    # snapped, for scalar locate to answer; every other column must come out
    # as it does from a block without such columns
    rng = np.random.default_rng(500 + n)
    X = np.vstack([_count_cases(n, rng), _minus_half_rows(n, rng, 30)])
    X = X[np.abs(X).max(axis=1) < 2.0**53]
    edge = [(2.0**53,) + (0.0,) * (n - 1), (-(2.0**53),) + (0.5,) * (n - 1)]
    if n >= 2:
        # the floor sum is 1 mod n + 1, so every coordinate is raised, and
        # 2^53 + 1 would decide the distance
        t = (1 - 2**53) % (n + 1)
        edge.append((2.0**53, t + 0.5) + (0.5,) * (n - 2))
    m = len(X)
    for eps in (tg.DEFAULT_EPS, 0.05):
        F, *rest = _batch._locate_rows(X.T.copy(), eps)
        plain = [F.copy()] + rest
        F, *rest = _batch._locate_rows(np.vstack([X, edge]).T.copy(), eps)
        for a, b in zip(plain, [F] + rest):
            assert a.tobytes() == np.ascontiguousarray(b[..., :m]).tobytes()
        assert rest[2][m:].all()
        assert all(honeycomb._fast_center(row, eps)[2] for row in edge)


SNAP_FILTER_EPS = [5e-324, 1e-300, 1e-9, 0.2]


def _snap_filter_points(n, eps, rng, count=300):
    """count points of dimension n against the decoder's snap filter.

    A coordinate is an integer plus one of 0, 5e-324, 1e-300, 2^-50,
    eps (1 +- 2^-40), eps, eps + 2^-50 and its neighbours, either sign; or
    uniform in (-1/2, 0), where x - floor(x) rounds; or +-[2^51, 2^53],
    where a float holds at most a half; or uniform in (-10, 10).  eps + 2^-50
    and its neighbours sit where the filter's bound was while it widened
    eps by a margin of 2^-50; the filter now tests eps alone.
    """
    near = eps + 2.0**-50
    offsets = [0.0, 5e-324, 1e-300, 2.0**-50, eps]
    offsets += [eps * (1 + 2.0**-40), eps * (1 - 2.0**-40)]
    offsets += [near, math.nextafter(near, 0.0), math.nextafter(near, 1.0)]
    offsets += [-v for v in offsets]
    bases = [0, 1, -1, 2, -3, 7, 2**20, -(2**40)]
    pts = []
    for _ in range(count):
        coords = []
        for kind in rng.choice(4, n, p=[0.5, 0.2, 0.1, 0.2]):
            if kind == 0:
                coords.append(int(rng.choice(bases)) + float(rng.choice(offsets)))
            elif kind == 1:
                coords.append(-0.5 * float(rng.random()))
            elif kind == 2:
                coords.append(float(rng.choice([-1, 1]) * rng.uniform(2.0**51, 2.0**53)))
            else:
                coords.append(float(rng.uniform(-10, 10)))
        pts.append(tuple(coords))
    return pts


@pytest.mark.parametrize("eps", SNAP_FILTER_EPS)
def test_fast_center_matches_the_rounding_rule_bit_for_bit(eps):
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 5, 8, 12):
        for x in _snap_filter_points(n, eps, rng):
            c, d, snapped = honeycomb._fast_center(x, eps)
            wc, wd, wsnapped = fast_center_rounding_oracle(x, eps)
            # repr tells an int center from a float one
            assert repr((c, snapped)) == repr((wc, wsnapped)), x
            assert np.float64(d).tobytes() == np.float64(wd).tobytes(), x


@pytest.mark.parametrize("eps", SNAP_FILTER_EPS)
def test_batch_locator_matches_the_rounding_rule_bit_for_bit(eps):
    rng = np.random.default_rng(2029)
    for n in (1, 2, 3, 5, 8, 12):
        pts = _snap_filter_points(n, eps, rng)
        F, inc, d, snapped, k = _batch._locate_rows(np.array(pts).T.copy(), eps)
        for j, x in enumerate(pts):
            center, dj, sj = fast_center_rounding_oracle(x, eps)
            assert bool(snapped[j]) == sj, x
            # scalar locate answers a snapped row
            if sj:
                continue
            floors, _ = snap_by_rounding(x, eps)
            assert F[:, j].tolist() == floors, x
            assert inc[:, j].tolist() == [a - b for a, b in zip(center, floors)], x
            assert np.float64(d[j]).tobytes() == np.float64(dj).tobytes(), x
            assert int(k[j]) == sum(floors) % (n + 1), x


@st.composite
def snap_edge_coordinates(draw):
    """(eps, coordinates), each coordinate k +- eps or k +- eps (1 +- 2^-j),
    j = 1..53, as float64 rounds them, or a float neighbour of one, up to
    three steps away; k is 0, +-1, up to 10^6 or up to 2^52 in magnitude."""
    eps = draw(st.sampled_from(
        [5e-324, 2.0**-52, 1e-12, 2.0**-30, 1e-9, 1e-6, 0.01, 0.05, 0.1, 0.2499]
    ))
    ks = st.one_of(
        st.sampled_from([0, 1, -1]), st.integers(-(10**6), 10**6), st.integers(-(2**52), 2**52)
    )
    signs = st.sampled_from([1.0, -1.0])

    def coordinate(k, sign, j, tilt, step):
        x = k + sign * (eps * (1 + tilt * 2.0**-j) if j else eps)
        for _ in range(abs(step)):
            x = math.nextafter(x, math.copysign(math.inf, step))
        return x

    coords = st.builds(coordinate, ks, signs, st.integers(0, 53), signs, st.integers(-3, 3))
    return eps, draw(st.lists(coords, min_size=1, max_size=12))


@settings(max_examples=400, deadline=None)
@given(snap_edge_coordinates())
def test_snap_filter_flags_every_coordinate_that_snaps(case):
    # a coordinate that the filter passes over skips the exact snap test and
    # reads as unsnapped, so in either layout every coordinate within eps of
    # an integer, in exact arithmetic, must come out flagged; _fast_center
    # snaps it onto that integer, while the batch locator only flags it
    eps, xs = case
    snaps = [abs(Fraction(x) - round(x)) <= Fraction(eps) for x in xs]
    kept = [math.floor(x) for x, snap in zip(xs, snaps) if not snap]
    for x, snap in zip(xs, snaps):
        assert honeycomb._fast_center((x,), eps)[2] == snap, x
    assert honeycomb._fast_center(tuple(xs), eps)[2] == any(snaps)
    # each coordinate a point of its own, in one (1, m) block
    F, _, _, snapped, _ = _batch._locate_rows(np.array([xs]), eps)
    assert snapped.tolist() == snaps
    assert [f for f, snap in zip(F[0].tolist(), snaps) if not snap] == kept
    # all of them the coordinates of one point
    F, _, _, snapped, _ = _batch._locate_rows(np.array([xs]).T.copy(), eps)
    assert bool(snapped[0]) == any(snaps)
    if not any(snaps):
        assert F[:, 0].tolist() == kept


def test_fractional_parts_are_within_2_pow_minus_54_of_exact():
    # the snap filter's premise: fl(x - floor x) errs only for x in
    # (-1/2, 0), where the nearest integer is the floor plus 1, and there by
    # at most half an ulp of (1/2, 1)
    rng = np.random.default_rng(54)
    xs = [v for eps in SNAP_FILTER_EPS for x in _snap_filter_points(3, eps, rng, 100)
          for v in x]
    xs += [-0.3, -0.5, math.nextafter(-0.5, 0.0), -5e-324, -1e-300, -(2.0**-54)]
    for x in xs:
        exact = Fraction(x) - math.floor(x)
        got = Fraction(x - math.floor(x))
        assert abs(got - exact) <= Fraction(1, 2**54), x
        if not -0.5 < x < 0.0:
            assert got == exact, x


@pytest.mark.parametrize("n", range(1, 9))
def test_containing_counts_match_the_exhaustive_oracle(n):
    rng = np.random.default_rng(100 + n)
    X = _count_cases(n, rng)
    for eps in (tg.DEFAULT_EPS, 0.05):
        F = _snapped_floors(X, eps)
        got = _counts(X, F, eps)
        assert np.array_equal(got, containing_count_oracle(X, F, eps))


def test_containing_counts_match_the_exhaustive_oracle_at_n16():
    # the oracle tries all 2^16 offsets; C(16, 8) = 12870 candidates fill
    # more than one take of the budget
    n = 16
    X = _count_cases(n, np.random.default_rng(116))[::26]
    for eps in (tg.DEFAULT_EPS, 0.05):
        F = _snapped_floors(X, eps)
        got = _counts(X, F, eps)
        assert np.array_equal(got, containing_count_oracle(X, F, eps))


def test_containing_counts_match_the_exhaustive_oracle_at_n17():
    # from n = 17 on, C(n, r) at r = 7..10 is more candidates than one take
    # of the budget holds even for a class of one row
    n = 17
    X = _count_cases(n, np.random.default_rng(117))[::44]
    for eps in (tg.DEFAULT_EPS, 0.05):
        F = _snapped_floors(X, eps)
        weight = -F.sum(axis=1).astype(np.int64) % (n + 1)
        assert np.isin(weight, range(7, 11)).any()
        assert math.comb(n, 7) > _batch._BROADCAST_BUDGET // n
        got = _counts(X, F, eps)
        assert np.array_equal(got, containing_count_oracle(X, F, eps))


def test_verify_tiling_at_n16():
    report = tg.verify_tiling(16, samples=1500, seed=1)
    assert report.mismatches == 0
    assert report.interior + report.boundary == report.samples == 1500


def test_containing_counts_cut_a_class_into_several_takes_at_n12():
    n = 12
    X = np.random.default_rng(12).uniform(-10, 10, (600, n))
    F = _snapped_floors(X, tg.DEFAULT_EPS)
    weight = -F.sum(axis=1).astype(np.int64) % (n + 1)
    # a take holds all c rows of a class and _BROADCAST_BUDGET // (n c)
    # candidates, so some class here needs more than one take
    sizes = [(r, int(np.count_nonzero(weight == r))) for r in range(n + 1)]
    assert any(c and math.comb(n, r) > _batch._BROADCAST_BUDGET // (n * c) for r, c in sizes)
    got = _counts(X, F, tg.DEFAULT_EPS)
    assert np.array_equal(got, containing_count_oracle(X, F, tg.DEFAULT_EPS))


@pytest.mark.parametrize("n", range(1, 9))
def test_containing_counts_of_blocks_of_one_to_three_rows(n):
    # most residue classes are empty, so most class runs have no columns
    rng = np.random.default_rng(200 + n)
    X = _count_cases(n, rng)
    for eps in (tg.DEFAULT_EPS, 0.05):
        for m in (1, 2, 3):
            for start in rng.choice(len(X) - m, 40, replace=False):
                rows = X[start : start + m]
                F = _snapped_floors(rows, eps)
                assert np.array_equal(_counts(rows, F, eps), containing_count_oracle(rows, F, eps))


@pytest.mark.parametrize("n", range(1, 9))
def test_containing_counts_of_one_row_per_residue_class(n):
    # a row shifted by t = 0..n along the first axis has floor sums s + t,
    # so the n + 1 shifts fill every class, r = 0 and r = n included, once
    rng = np.random.default_rng(210 + n)
    shifts = np.zeros((n + 1, n))
    shifts[:, 0] = np.arange(n + 1)
    bases = np.vstack([rng.uniform(-6, 6, (6, n)), rng.integers(-24, 24, (6, n)) / 4])
    for eps in (tg.DEFAULT_EPS, 0.05):
        for base in bases:
            X = base + shifts
            F = _snapped_floors(X, eps)
            weight = -F.sum(axis=1).astype(np.int64) % (n + 1)
            assert sorted(weight.tolist()) == list(range(n + 1))
            assert np.array_equal(_counts(X, F, eps), containing_count_oracle(X, F, eps))


@pytest.mark.parametrize(
    "n, m",
    # from n = 256 on, the rank is uint16
    [(n, m) for n in range(1, 25) for m in (1, 7, 500)] + [(n, m) for n in (255, 256, 300) for m in (1, 7)],
)
def test_stable_rank_matches_two_argsorts(n, m):
    rng = np.random.default_rng(n * 1000 + m)
    cases = [
        rng.random((n, m)),
        rng.integers(-8, 8, (n, m)) / 4,  # quarters: ties in most columns
        rng.choice([0.0, -0.0, 0.5], (n, m)),  # a few repeated values
        np.full((n, m), 0.25),  # every entry of a column tied
    ]
    for f in cases:
        assert np.array_equal(_batch._stable_rank(f), stable_rank_oracle(f))


def test_containing_counts_do_not_depend_on_the_budget(monkeypatch):
    # a budget of a few elements cuts both the row and the candidate axis
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        X = _count_cases(n, rng)[::10]
        XT, FT = X.T.copy(), _snapped_floors(X, tg.DEFAULT_EPS).T.copy()
        k = _batch._floor_sum_residue(FT)
        # the result is a new array; the copy is only a precaution
        want = _batch._containing_counts(XT, FT, _pair_buffer(XT, FT), k, tg.DEFAULT_EPS)
        want = want.copy()
        monkeypatch.setattr(_batch, "_BROADCAST_BUDGET", 2 * n)
        got = _batch._containing_counts(XT, FT, _pair_buffer(XT, FT), k, tg.DEFAULT_EPS)
        assert np.array_equal(got, want)
        monkeypatch.undo()


def test_subsets_list_each_subset_once_with_its_complement():
    for n in range(1, 8):
        for r in range(n + 1):
            index = _batch._subsets(n, r)
            assert index.dtype == np.uint8
            assert index.shape == (n, math.comb(n, r))
            # the kept coordinates, then the raised ones plus n
            kept = index[: n - r].T.tolist()
            raised = (index[n - r :].T.astype(int) - n).tolist()
            for S, rest in zip(raised, kept):
                assert sorted(S + rest) == list(range(n))
                assert rest == sorted(rest)
            assert [tuple(S) for S in raised] == list(itertools.combinations(range(n), r))
    # 2n - 1 indexes the last row of P1, so one byte holds it up to n = 128
    assert _batch._subsets(128, 127).dtype == np.uint8
    assert _batch._subsets(129, 128).dtype == np.uint16


def _cached_indices():
    """{(n, r): index} of every take index in _subsets' cache."""
    return {
        (n, r): index
        for n, classes in list(_batch._subsets_cache.items())
        for r, index in classes.items()
    }


def _cache_bytes():
    return sum(index.nbytes for index in _cached_indices().values())


def test_subsets_cache_stays_under_64_mb_at_the_tiling_cap():
    # one dimension's classes r = 1..n-1 take n (2^n - 2) one-byte indices,
    # 42 MiB at the cap; whole dimensions are evicted, least recently used
    # first, so the three largest dimensions, filled in turn, stay under the
    # 64 MB that the cap is set by, and each keeps all of its own classes
    cap = honeycomb._MAX_TILING_DIM
    assert _batch._SUBSETS_BYTES <= 64 * 10**6
    _batch._subsets_cache.clear()
    try:
        for n in (cap, cap - 1, cap - 2):
            for r in range(1, n):
                assert _batch._subsets(n, r).nbytes == n * math.comb(n, r)
                assert _cache_bytes() < 64 * 10**6
            assert sorted(_batch._subsets_cache[n]) == list(range(1, n))
        # the cap's 42 MiB went first, to make room for cap - 1
        assert list(_batch._subsets_cache) == [cap - 1, cap - 2]
    finally:
        _batch._subsets_cache.clear()


def test_subsets_cache_keeps_the_benchmark_cycle_after_its_first_pass():
    # the tiling workload's n = 3, 6, 9 cycle asks for the 15 classes
    # r = 1..n-1, once per block; one block each at these sample counts
    cycle = [(3, 24_000), (6, 3_400), (9, 480)]
    _batch._subsets_cache.clear()
    for n, samples in cycle:
        tg.verify_tiling(n, samples=samples, seed=1)
    first = _cached_indices()
    assert sorted(first) == [(n, r) for n, _ in cycle for r in range(1, n)]
    for _ in range(2):
        for n, samples in cycle:
            tg.verify_tiling(n, samples=samples, seed=1)
    # no index was built again: the cache holds the very same arrays
    after = _cached_indices()
    assert after.keys() == first.keys()
    assert all(after[key] is first[key] for key in first)


def test_subsets_cache_keeps_every_class_of_n19_from_call_to_call():
    # each block asks for the 18 classes r = 1..18 in a fixed cycle, so a
    # cache of fewer whole classes would evict each just before its next use
    _batch._subsets_cache.clear()
    try:
        tg.verify_tiling(19, samples=200, seed=1)
        first = _cached_indices()
        assert sorted(first) == [(19, r) for r in range(1, 19)]
        tg.verify_tiling(19, samples=200, seed=1)
        after = _cached_indices()
        assert after.keys() == first.keys()
        assert all(after[key] is first[key] for key in first)
    finally:
        _batch._subsets_cache.clear()


def test_subsets_are_cached_and_read_only():
    # the index is shared by every call, so it may not be written
    index = _batch._subsets(5, 2)
    assert _batch._subsets(5, 2) is index
    with pytest.raises(ValueError):
        index[0, 0] = 0


def test_verify_tiling_memory_stays_bounded():
    tracemalloc.start()
    try:
        rep = tg.verify_tiling(12, samples=8000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.mismatches == 0
    assert peak < 32 * 2**20


@pytest.mark.parametrize("box", [0.0, 0.7, 3.0, 10.0, 1e-300, 2.0**53])
@pytest.mark.parametrize("budget", [1, 7, 13, _batch._TILING_BUDGET])
def test_sample_blocks_are_uniform_byte_for_byte(monkeypatch, box, budget):
    # verify_tiling's samples are each shard's substream of uniform draws,
    # however the blocks cut them: the (n, k) blocks that _verify_block gets,
    # transposed back, concatenate to the shard's uniform(-box, box).  Shards
    # of 20 cut every m below into three or more, the last one shorter
    blocks = []

    def capture(XT, eps):
        assert XT.flags.c_contiguous
        blocks.append(XT.T.copy())
        return 0, XT.shape[1], 0

    monkeypatch.setattr(_batch, "_TILING_BUDGET", budget)
    monkeypatch.setattr(_batch, "_SHARD_SIZE", 20)
    monkeypatch.setattr(_batch, "_verify_block", capture)
    for n, m in [(1, 61), (3, 101), (5, 43)]:
        rows = max(1, budget // n)
        blocks.clear()
        rep = tg.verify_tiling(n, box_halfwidth=box, samples=m, seed=11)
        assert (rep.interior, rep.boundary, rep.mismatches) == (0, m, 0)
        shards = [min(20, m - start) for start in range(0, m, 20)]
        assert len(shards) >= 3 and shards[-1] < 20
        for shard, size in enumerate(shards):
            sizes = [min(rows, size - start) for start in range(0, size, rows)]
            mine, blocks[: len(sizes)] = blocks[: len(sizes)], []
            assert [len(X) for X in mine] == sizes
            want = np.random.default_rng([11, shard]).uniform(-box, box, (size, n))
            assert np.concatenate(mine).tobytes() == want.tobytes()
        assert not blocks


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_tiling_reports_do_not_depend_on_the_block_budget(monkeypatch, n):
    for eps in (tg.DEFAULT_EPS, 0.05):
        for shard_size, samples in [(1, 30), (7, 150), (1500, 150), (65_536, 150)]:
            monkeypatch.setattr(_batch, "_SHARD_SIZE", shard_size)
            kw = dict(box_halfwidth=3.0, samples=samples, seed=4, eps=eps)
            want = tiling_report_oracle(n, **kw)
            for budget in (1, 7, 13 * n, _batch._TILING_BUDGET):
                monkeypatch.setattr(_batch, "_TILING_BUDGET", budget)
                assert tg.verify_tiling(n, **kw) == want, (eps, shard_size, budget)


@pytest.mark.parametrize("eps", [tg.DEFAULT_EPS, 0.05])
def test_verify_block_applies_the_status_rule_to_wrong_answers(monkeypatch, eps):
    # distances and counts moved off on some rows must be judged by
    # locate's status rule, written out per row below, in blocks with and
    # without boundary and snapped rows.  A snapped row's distance and count
    # come from scalar locate, not from the moved batch.  In the moved
    # blocks, locate lists no center for a row whose first coordinate is an
    # integer: such a row is snapped, so a boundary row, and at d < 1 - eps
    # only count < 2 makes it a mismatch
    rng = np.random.default_rng(43)
    seen = []

    def no_centers_on_integers(x, eps):
        res = true_locate(x, eps)
        if move_d and float(x[0]).is_integer():
            return honeycomb.LocateResult(res.center, res.status, (), res.distance)
        return res

    def moved_rows(XT, eps):
        F, inc, d, snapped, k = locate_rows(XT, eps)
        if move_d:
            d += rng.choice([0.0, 0.0, 0.0, 0.5, -0.5, 2 * eps, -2 * eps], len(d))
            d[rng.random(len(d)) < 0.1] = 1.0
        seen.append((d.tolist(), snapped.tolist()))
        return F, inc, d, snapped, k

    def moved_counts(*args):
        count = true_counts(*args)
        count += rng.choice([0, 0, 1, -1], len(count))
        seen.append(count.tolist())
        return count

    locate_rows, true_counts = _batch._locate_rows, _batch._containing_counts
    true_locate = honeycomb.locate
    monkeypatch.setattr(_batch, "_locate_rows", moved_rows)
    monkeypatch.setattr(_batch, "_containing_counts", moved_counts)
    monkeypatch.setattr(honeycomb, "locate", no_centers_on_integers)
    kinds, all_interior, lost_inside = set(), 0, 0
    for n in (1, 2, 3):
        # a block in (-0.3, 0.3)^n with true distances has no boundary row
        for box, move_d in ((0.3, False), (3.0, True)):
            X = rng.uniform(-box, box, (400, n))
            if move_d:
                # one integer coordinate in every fourth row, at any index
                rows = np.arange(0, len(X), 4)
                cols = rng.integers(0, n, len(rows))
                X[rows, cols] = np.round(X[rows, cols])
            got = _batch._verify_block(X.T.copy(), eps)
            (ds, snaps), counts = seen[-2:]
            interior = mismatches = 0
            for row, d, snapped, count in zip(X.tolist(), ds, snaps, counts):
                if snapped:
                    # scalar locate answers a snapped row, its distance too
                    res = honeycomb.locate(row, eps)
                    d, count = res.distance, len(res.all_centers)
                    lost_inside += count == 0 and d < 1.0 - eps
                inside = d < 1.0 - eps and (not snapped or count == 1)
                interior += inside
                if inside:
                    bad = count != 1
                else:
                    bad = d > 1.0 + eps or (count < 2 and abs(d - 1.0) > eps)
                mismatches += bad
                kinds.add((inside, bad))
            assert got == (interior, len(X) - interior, mismatches)
            all_interior += interior == len(X)
    assert len(kinds) == 4 and all_interior and lost_inside, (kinds, all_interior, lost_inside)


def _in_fresh_thread(fn):
    """fn() run in a new thread, so with an empty workspace."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    return out[0]


def _workspace_bytes():
    return sum(buf.nbytes for buf in _batch._WS.buffers.values())


def test_verify_tiling_threads_get_the_serial_reports():
    # more threads than cores, each cycling through blocks of other shapes
    # than its neighbours, with frequent switches between them
    jobs = [(3, 24_000), (6, 3_400), (9, 480), (2, 70_000), (4, 900)]
    want = [tg.verify_tiling(n, samples=s, seed=s) for n, s in jobs]
    start = threading.Barrier(4)
    got = {}

    def run(k):
        start.wait(timeout=60)
        order = list(range(k, len(jobs))) + list(range(k))
        got[k] = [(i, tg.verify_tiling(jobs[i][0], samples=jobs[i][1], seed=jobs[i][1])) for i in order * 2]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == [0, 1, 2, 3]
    for runs in got.values():
        assert len(runs) == 2 * len(jobs)
        assert all(rep == want[i] for i, rep in runs)


def test_verify_tiling_allocates_its_workspace_once(monkeypatch):
    monkeypatch.setattr(_batch, "_SHARD_SIZE", 20_000)

    def peaks():
        out = []
        for samples in (20_000, 20_000, 200_000):
            tracemalloc.start()
            try:
                rep = tg.verify_tiling(3, samples=samples, seed=2)
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rep.mismatches == 0
        return out

    first, second, ten_shards = _in_fresh_thread(peaks)
    # the first call maps in the workspace; later calls, one shard or ten,
    # draw only small transients next to it
    assert second <= first and ten_shards <= first
    assert max(second, ten_shards) < first / 4


def test_verify_tiling_workspace_is_bounded_by_the_budget(monkeypatch):
    def retained(n):
        block = _batch._TILING_BUDGET // n
        sizes = []
        for samples, shard_size in [(block, 65_536), (3 * block + 5, 3 * block), (block, block)]:
            monkeypatch.setattr(_batch, "_SHARD_SIZE", shard_size)
            for _ in range(2):
                tg.verify_tiling(n, samples=samples, seed=3)
                sizes.append(_workspace_bytes())
        return sizes

    for n in (1, 3):
        sizes = _in_fresh_thread(lambda: retained(n))
        # once a full block has been checked, nothing grows
        assert len(set(sizes[2:])) == 1
        # n = 1 has the most rows per block and reserves 8 MiB, n = 3 about
        # 8.67 MiB, since its takes hold up to three candidates
        assert max(sizes) <= 20 * 8 * _batch._TILING_BUDGET


def test_batch_results_share_no_memory_with_the_workspace():
    # only the block's float64 arrays live in the workspace; what the kernels
    # hand back per row is new, so no later block can overwrite it
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        XT = _count_cases(n, rng).T.copy()
        F, inc, d, snapped, k = _batch._locate_rows(XT, tg.DEFAULT_EPS)
        count = _batch._containing_counts(XT, F, _pair_buffer(XT, F), k, tg.DEFAULT_EPS)
        for out in (inc, d, snapped, k, count):
            assert not any(np.shares_memory(out, buf) for buf in _batch._WS.buffers.values())


# the benchmark's tiling loop in a fresh interpreter, so that no earlier
# test's memory decides where the allocator puts the plain arrays: it prints
# the minor page faults per call once the workspace is warm
TILING_FAULTS = (
    "import resource, tropgeo as tg\n"
    "sizes = [(3, 24_000), (6, 3_400), (9, 480)]\n"
    "def run(calls):\n"
    "    for i in range(calls):\n"
    "        n, samples = sizes[i % 3]\n"
    "        tg.verify_tiling(n, samples=samples, seed=i)\n"
    "run(30)\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "run(150)\n"
    "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 150)\n"
)


def test_verify_tiling_maps_in_no_pages_once_warm():
    # the workspace's purpose: a fresh float64 block array each call faulted
    # its pages in again
    src = os.path.dirname(os.path.dirname(tg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", TILING_FAULTS], capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 2


def test_batch_engine_agrees_with_scalar_locate():
    rng = np.random.default_rng(46)
    for n in (2, 3):
        X = rng.uniform(-6, 6, (500, n))
        centers = np.array([tg.locate(tuple(row)).center for row in X], dtype=float)
        d = batch_dist(X, centers)
        assert (d <= 1.0 + 1e-9).all()


def test_hexagon_rings():
    rings = hexagon_rings(2.0)
    centers = [c for c, _ in rings]
    assert (0, 0) in centers
    assert len(set(centers)) == len(centers)
    offsets = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    for c, ring in rings:
        assert tg.in_lattice(c)
        assert max(abs(v) for v in c) <= 2
        assert len(ring) == 6
        for (ox, oy), v in zip(offsets, ring):
            assert v == (c[0] + ox, c[1] + oy)


@pytest.mark.parametrize("box", [math.nan, math.inf, -1.0, 101.0], ids=repr)
def test_hexagon_rings_rejects_a_box_outside_0_to_100(box):
    with pytest.raises(tg.DomainError, match="box halfwidth must be finite and in"):
        hexagon_rings(box)


def test_hexagon_rings_accepts_the_largest_box():
    assert len(hexagon_rings(100)) == len(list(lattice_window(2, 100)))


def test_locate_result_is_frozen():
    res = tg.locate((0.5, 0.3))
    with pytest.raises(AttributeError):
        res.center = (1, 1)
