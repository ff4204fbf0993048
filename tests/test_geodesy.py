import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import tropgeo as tg
from tropgeo import _batch, geodesy
from tropgeo.geodesy import (
    EDGE_NAMES,
    POINT_ID,
    SEGMENT_DIAG_ID,
    SEGMENT_X_ID,
    SEGMENT_Y_ID,
    GeodesicRegion,
)

from helpers import (
    close_bounds_oracle,
    contains_batch_oracle,
    hull_iterate_oracle,
    independent_masks,
    random_pl_geodesic,
    region_point,
)

# lengths


def test_polyline_length_worked_values():
    assert tg.polyline_length([(0, 0)]) == 0.0
    assert tg.polyline_length([(0, 0), (1, 1), (1, 2)]) == 2.0
    assert tg.polyline_length([(0, 0), (1, 0), (0, 0)]) == 2.0


def test_polyline_evaluator_hits_breakpoints():
    pts = [(0.0, 0.0), (1.0, 1.0), (1.0, 2.0), (3.0, 2.0), (3.0, 0.0)]
    curve = tg.polyline_evaluator(pts)
    for k, p in enumerate(pts):
        assert curve(k / 4) == p
    mid = curve(1 / 8)
    assert mid == (0.5, 0.5)


def test_curve_length_straight_segment():
    x, y = (1.0, -2.0, 0.5), (4.0, 0.0, 0.25)

    def line(t):
        return tuple((1 - t) * a + t * b for a, b in zip(x, y))

    assert tg.curve_length(line) == pytest.approx(tg.dist(x, y), abs=1e-9)


def test_curve_length_circle():
    for r in (0.5, 1.0, 3.0):
        def circle(t, r=r):
            return (r * math.cos(2 * math.pi * t), r * math.sin(2 * math.pi * t))

        want = (4 + 2 * math.sqrt(2)) * r
        assert tg.curve_length(circle, tol=1e-6) == pytest.approx(want, abs=1e-6)


def test_curve_length_polyline_exact_at_dyadic_breakpoints():
    pts = [(0.0, 0.0), (2.0, 1.0), (2.0, 3.0), (-1.0, 3.0), (-1.0, -1.0)]
    curve = tg.polyline_evaluator(pts)
    # breakpoints sit at quarters, inside the first refinement level
    assert tg.curve_length(curve, tol=1e-9) == tg.polyline_length(pts)


def test_curve_length_reports_bracket_on_nonconvergence(monkeypatch):
    monkeypatch.setattr(geodesy, "_MAX_DEPTH", 4)

    def shifted(t):
        return (math.cos(2 * math.pi * t + 0.3), math.sin(2 * math.pi * t + 0.3))

    # both refinement steps available below depth 4 still move the estimate
    # by ~0.2, so a 1e-12 tolerance cannot stabilize in time
    with pytest.raises(tg.ConvergenceError) as exc:
        tg.curve_length(shifted, tol=1e-12)
    low, high = exc.value.bracket
    assert 0 < low < high <= 4 + 2 * math.sqrt(2) + 1e-6


def test_curve_length_zero_refinement_budget(monkeypatch):
    monkeypatch.setattr(geodesy, "_MAX_DEPTH", 2)

    def circle(t):
        return (math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))

    with pytest.raises(tg.ConvergenceError) as exc:
        tg.curve_length(circle, tol=1e-9)
    # one level, through the circle's quarter points, is the only estimate,
    # so it is both ends of the bracket
    low, high = exc.value.bracket
    assert low == high == pytest.approx(6.0)


def test_curve_length_rejects_bad_tol():
    # a NaN tol never stops the refinement, which then samples the curve
    # 2^(_MAX_DEPTH + 1) times, so the curve must not be sampled before tol
    # is checked
    def curve(t):
        raise AssertionError("curve sampled before tol was checked")

    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(tg.DomainError):
            tg.curve_length(curve, tol=tol)


def test_curve_length_memory_does_not_grow_with_the_depth(monkeypatch):
    # sampled at the dyadics, this curve jumps about at every level, so its
    # length never settles and every level up to _MAX_DEPTH is summed
    def rough(t):
        return (math.sin(1e9 * t), 0.0)

    peaks = []
    # the first call warms up the interpreter's own caches and is not compared
    for depth in (10, 12, 16):
        monkeypatch.setattr(geodesy, "_MAX_DEPTH", depth)
        tracemalloc.start()
        try:
            with pytest.raises(tg.ConvergenceError):
                tg.curve_length(rough, tol=1e-6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a level of 2^16 + 1 points held at once would take megabytes
    assert peaks[2] <= peaks[1] + 4096, peaks


# geodesic predicates


def test_is_geodesic_worked_values():
    assert tg.is_geodesic(tg.segment((0, 0), (1, 2)).vertices)
    assert not tg.is_geodesic([(0, 0), (1, 0), (0, 1)])
    assert tg.is_geodesic([(5.0, 5.0)])


def test_shuffled_subsegments_stay_geodesic():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        x = tuple(rng.uniform(-5, 5, n))
        y = tuple(rng.uniform(-5, 5, n))
        assert tg.is_geodesic(random_pl_geodesic(x, y, rng), eps=1e-7)


def test_projections_of_geodesics_are_geodesics():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        x = tuple(rng.uniform(-5, 5, n))
        y = tuple(rng.uniform(-5, 5, n))
        poly = random_pl_geodesic(x, y, rng)
        for i in range(n):
            for j in range(i + 1, n):
                proj = [(p[i], p[j]) for p in poly]
                assert tg.is_geodesic(proj, eps=1e-7)


def test_is_between_worked_values():
    assert tg.is_between((0, 0), (0, 0), (1, 2))
    assert tg.is_between((0, 0), (1, 1), (1, 2))
    assert not tg.is_between((0, 0), (1, 0), (0, 1))


# two-point hulls


def test_pair_hull_parallelogram():
    reg = tg.hull([(0, 0), (1, 2)])
    assert reg.lower == (0.0, 0.0)
    assert reg.upper == (1.0, 2.0)
    # 0 <= y - x <= 1
    assert reg.diff_lb[1][0] == 0.0
    assert reg.diff_lb[0][1] == -1.0
    assert reg.contains((0.5, 1.0))
    assert not reg.contains((0.0, 2.0))  # corner cut off by the diagonal


def test_pair_hull_rectangle_with_redundant_diagonals():
    reg = tg.hull([(0, 2), (3, 0)])
    assert reg.lower == (0.0, 0.0)
    assert reg.upper == (3.0, 2.0)
    # diagonal bounds don't cut into the box
    for corner in ((0, 0), (3, 0), (0, 2), (3, 2)):
        assert reg.contains(corner)


def test_pair_hull_of_equal_points_is_a_point():
    reg = tg.hull([(1.5, -2.0), (1.5, -2.0)])
    assert reg.affine_dim() == 0
    assert reg.lower == (1.5, -2.0)


def test_pair_hull_matches_betweenness_in_low_dimensions():
    # membership in the two-point hull is the same predicate as metric
    # betweenness for n <= 2
    rng = np.random.default_rng(101)
    for n in (1, 2):
        for _ in range(10_000):
            x = tuple(rng.uniform(-3, 3, n))
            y = tuple(rng.uniform(-3, 3, n))
            z = tuple(rng.uniform(-4, 4, n))
            assert tg.hull([x, y]).contains(z) == tg.is_between(x, z, y)


def test_pair_hull_members_are_between_in_all_dimensions():
    rng = np.random.default_rng(55)
    r = random.Random(55)
    for n in range(1, 7):
        for _ in range(800):
            x = tuple(rng.uniform(-3, 3, n))
            y = tuple(rng.uniform(-3, 3, n))
            reg = tg.hull([x, y])
            assert tg.is_between(x, region_point(reg, r), y, eps=1e-8)
            assert tg.is_between(x, reg.lower, y, eps=1e-8)


def test_betweenness_is_strictly_wider_than_the_pair_hull_for_n3():
    # a middle coordinate may wander past the coordinatewise extremes while
    # both leg distances stay controlled by the other coordinates, so the
    # bounded region is a strict subset of the metric between-set once n >= 3
    x, y, w = (0, 0, 0), (-4, 4, 0), (-1, 2, 1)
    assert tg.dist(x, w) == 3.0
    assert tg.dist(w, y) == 5.0
    assert tg.dist(x, y) == 8.0
    assert tg.is_between(x, w, y)
    assert not tg.hull([x, y]).contains(w)


# finite-set hulls


def test_hull_single_point():
    reg = tg.hull([(2.0, -1.0)])
    assert reg.affine_dim() == 0
    assert reg.lower == (2.0, -1.0)


SIMPLEX = tg.hull([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])


def test_hull_simplex_golden():
    want = GeodesicRegion(
        lower=(0, 0, 0),
        upper=(1, 1, 1),
        diff_lb=((0, 0, 0), (-1, 0, 0), (-1, -1, 0)),
    )
    assert SIMPLEX == want


def test_region_contains_simplex_examples():
    assert SIMPLEX.contains((0.5, 0.2, 0.1))
    assert not SIMPLEX.contains((0.1, 0.5, 0.2))
    for gen in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)):
        assert SIMPLEX.contains(gen)


def test_hull_bounds_are_extrema_of_the_generators():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        pts = [tuple(rng.uniform(-4, 4, n)) for _ in range(int(rng.integers(1, 7)))]
        reg = tg.hull(pts)
        for i in range(n):
            assert reg.lower[i] == min(p[i] for p in pts)
            assert reg.upper[i] == max(p[i] for p in pts)
            for j in range(n):
                if i != j:
                    assert reg.diff_lb[i][j] == min(p[i] - p[j] for p in pts)
        # extremal bounds are already canonical, closed form is a fixed point
        again = GeodesicRegion(reg.lower, reg.upper, reg.diff_lb)
        assert again == reg


def test_hull_is_monotone_and_minimal():
    rng = np.random.default_rng(32)
    r = random.Random(32)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        pts = [tuple(rng.uniform(-4, 4, n)) for _ in range(3)]
        extra = [tuple(rng.uniform(-4, 4, n)) for _ in range(2)]
        small = tg.hull(pts)
        big = tg.hull(pts + extra)
        for _ in range(10):
            assert big.contains(region_point(small, r), eps=1e-9)


def test_segments_between_region_members_stay_inside():
    rng = np.random.default_rng(33)
    r = random.Random(33)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        pts = [tuple(rng.uniform(-3, 3, n)) for _ in range(int(rng.integers(2, 6)))]
        reg = tg.hull(pts)
        u, v = region_point(reg, r), region_point(reg, r)
        for mode in ("min", "max"):
            for vert in tg.segment(u, v, mode).vertices:
                assert reg.contains(vert, eps=1e-7)


def test_feasible_bound_systems_are_regions():
    assert GeodesicRegion(SIMPLEX.lower, SIMPLEX.upper, SIMPLEX.diff_lb) == SIMPLEX
    # contradictory bounds: y - x >= 2 inside the unit square
    with pytest.raises(tg.EmptyRegionError):
        GeodesicRegion((0, 0), (1, 1), ((0, 0), (2, 0)))
    ball = tg.hrep(tg.unit_ball(2))
    assert GeodesicRegion(ball.lower, ball.upper, ball.diff_lb) == ball


def _random_system(rng, n, integral):
    """Bounds of a random point cloud's hull, each moved by its own slack.

    Positive slack loosens a bound and keeps the system feasible; negative
    slack tightens it and can make the system contradict itself.  Integral
    systems hit exact ties, zeros of both signs among them.
    """
    m = int(rng.integers(1, 8))
    shapes = (n, n, (n, n))
    if integral:
        P = rng.integers(-3, 4, (m, n)).astype(float)
        slack = [rng.integers(-1, 2, shape) for shape in shapes]
    else:
        P = rng.uniform(-5, 5, (m, n))
        slack = [rng.uniform(-0.4, 1.0, shape) for shape in shapes]
    lo = P.min(axis=0) - slack[0]
    up = P.max(axis=0) + slack[1]
    diff = (P[:, :, None] - P[:, None, :]).min(axis=0) - slack[2]
    return tuple(lo.tolist()), tuple(up.tolist()), diff.tolist()


def _oracle_region(lower, upper, diff):
    """The closed system by the pure-Python oracle, or None when it is empty.

    Bounds are read off as the library stores them, with every zero as 0.0.
    """
    L = close_bounds_oracle(lower, upper, diff)
    m = len(L)
    if max(L[k][k] for k in range(m)) > tg.DEFAULT_EPS:
        return None, L
    lo = tuple(L[i][0] + 0.0 for i in range(1, m))
    up = tuple(0.0 - L[0][i] for i in range(1, m))
    dl = tuple(tuple(L[i][j] + 0.0 if i != j else 0.0 for j in range(1, m)) for i in range(1, m))
    return (lo, up, dl), L


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("integral", [False, True], ids=["real", "integral"])
@pytest.mark.parametrize("n", list(range(1, 13)) + [60])
def test_closure_matches_the_oracle_bit_for_bit(n, integral):
    rng = np.random.default_rng([n, integral])
    verdicts = set()
    for _ in range(200 if n <= 12 else 4):
        lower, upper, diff = _random_system(rng, n, integral)
        want, L = _oracle_region(lower, upper, diff)
        verdicts.add(want is None)
        if want is None:
            with pytest.raises(tg.EmptyRegionError):
                GeodesicRegion(lower, upper, diff)
            continue
        reg = GeodesicRegion(lower, upper, diff)
        if max(L[k][k] for k in range(n + 1)) <= 0.0:
            # compared as bytes, so the sign of a zero counts too
            assert _bits(reg.lower) == _bits(want[0])
            assert _bits(reg.upper) == _bits(want[1])
            assert _bits(reg.diff_lb) == _bits(want[2])
    assert verdicts == {True, False}


# values of geodesy._SMALL_WORK that force the pure-Python layout of every
# region and small hull, and numpy's
FORCE_PURE, FORCE_NUMPY = 10**9, 0


def _unreachable(*args):
    raise AssertionError("the numpy layout ran")


@pytest.mark.parametrize("integral", [False, True], ids=["real", "integral"])
@pytest.mark.parametrize("n", range(1, 13))
def test_both_closure_layouts_agree_bit_for_bit(monkeypatch, n, integral):
    # one closure rule in two layouts: geodesy._SMALL_WORK picks pure Python
    # up to n = 6 and numpy above, and either one forced must give the same
    # verdict and the same bits, the default difference bounds included
    rng = np.random.default_rng([n, integral])
    verdicts = set()
    for _ in range(200):
        lower, upper, diff = _random_system(rng, n, integral)
        for args in ((lower, upper, diff), (lower, upper)):
            out = []
            for pure in (True, False):
                with monkeypatch.context() as patch:
                    patch.setattr(geodesy, "_SMALL_WORK", FORCE_PURE if pure else FORCE_NUMPY)
                    if pure:
                        patch.setattr(_batch, "_closed_rows", _unreachable)
                    try:
                        reg = GeodesicRegion(*args)
                        out.append((_bits(reg.lower), _bits(reg.upper), _bits(reg.diff_lb)))
                    except tg.EmptyRegionError as exc:
                        out.append(str(exc))
            assert out[0] == out[1]
            verdicts.add(isinstance(out[0], str))
    assert verdicts == {True, False}


def _in_both_layouts(monkeypatch, call):
    """call()'s outcome with the pure-Python layout forced, then numpy's:
    the repr of its result, which tells every float bit apart but a NaN's,
    or the class and message of its error."""
    out = []
    for work in (FORCE_PURE, FORCE_NUMPY):
        with monkeypatch.context() as patch:
            patch.setattr(geodesy, "_SMALL_WORK", work)
            try:
                out.append(repr(call()))
            except tg.TropgeoError as exc:
                out.append((type(exc), str(exc)))
    return out


def test_cycle_excess_is_held_to_eps():
    # a lower bound t above the upper bound closes to a diagonal of 2t, as
    # the positive cycle is walked twice
    with pytest.raises(tg.EmptyRegionError):
        GeodesicRegion((2e-9,), (0.0,))
    assert GeodesicRegion((2e-9,), (0.0,), eps=1e-8).dim == 1
    assert GeodesicRegion((0.25e-9,), (0.0,)).dim == 1


def test_every_zero_bound_is_stored_as_positive_zero():
    # inside the closure a tie of -0.0 and 0.0 may fall either way
    for n in range(1, 13):
        reg = GeodesicRegion((-0.0,) * n, (0.0,) * n, [[-0.0] * n] * n)
        bounds = reg.lower + reg.upper + sum(reg.diff_lb, ())
        assert all(math.copysign(1.0, v) == 1.0 for v in bounds)


def _hull_clouds():
    """(P, integral): 100 random clouds of 1 to 59 points at n = 1 to 12."""
    rng = np.random.default_rng(34)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 60))
        # a quarter of the clouds have integer coordinates, which an int64
        # array holds exactly
        integral = rng.random() < 0.25
        yield (rng.integers(-4, 5, (m, n)).astype(float) if integral
               else rng.uniform(-4, 4, (m, n))), integral


def test_hull_matches_pure_python_bounds():
    for P, integral in _hull_clouds():
        m, n = P.shape
        pts = [tuple(p) for p in P.tolist()]
        lo = [min(p[i] for p in pts) for i in range(n)]
        up = [max(p[i] for p in pts) for i in range(n)]
        diff = [[min(p[i] - p[j] for p in pts) for j in range(n)] for i in range(n)]
        want = GeodesicRegion(lo, up, diff)
        wide = np.zeros((m, n + 3))
        wide[:, 1 : n + 1] = P
        layouts = [pts, P, np.asfortranarray(P), wide[:, 1 : n + 1], np.repeat(P, 2, axis=0)[::2]]
        if integral:
            layouts.append(P.astype(np.int64))
        for layout in layouts:
            assert repr(tg.hull(layout)) == repr(want)


def test_both_hull_layouts_agree(monkeypatch):
    for P, integral in _hull_clouds():
        pts = [tuple(p) for p in P.tolist()]
        layouts = [pts, [list(p) for p in pts]]
        if integral:
            layouts.append([tuple(map(int, p)) for p in pts])
        for layout in layouts:
            pure, numpy = _in_both_layouts(monkeypatch, lambda: tg.hull(layout))
            assert pure == numpy
    # and the forced pure-Python layout runs no numpy kernel
    monkeypatch.setattr(geodesy, "_SMALL_WORK", FORCE_PURE)
    monkeypatch.setattr(_batch, "_hull_bounds", _unreachable)
    monkeypatch.setattr(_batch, "_closed_rows", _unreachable)
    assert tg.hull([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]) == SIMPLEX


MALFORMED_HULLS = [
    ([], tg.DomainError, "hull needs at least one point"),
    (np.empty((0, 3)), tg.DomainError, "hull needs at least one point"),
    ([(0, 0), (1,)], tg.DimensionMismatch, "hull points must be an (m, n) table of numbers"),
    ([(0, 0), ("a", 1)], tg.DimensionMismatch, "hull points must be an (m, n) table of numbers"),
    (np.zeros(3), tg.DimensionMismatch, "hull points must be an (m, n) table of numbers"),
    (np.zeros((2, 2, 2)), tg.DimensionMismatch, "hull points must be an (m, n) table of numbers"),
    ([(0, 0), (1, math.nan)], tg.DomainError, "coordinates must be finite, got (1.0, nan)"),
    ([(0, 0), (math.inf, 1), (math.nan, 0)], tg.DomainError, "coordinates must be finite, got (inf, 1.0)"),
    ([(-math.inf, 2), (0, 0)], tg.DomainError, "coordinates must be finite, got (-inf, 2.0)"),
    ([()], tg.DomainError, "a point needs at least one coordinate"),
    # numpy reads None as NaN
    ([(None, 0)], tg.DomainError, "coordinates must be finite, got (nan, 0.0)"),
]
MALFORMED_HULL_IDS = ["empty", "0x3", "ragged", "non-number", "1-D", "3-D", "nan", "+inf", "-inf",
                      "no coordinate", "None"]


@pytest.mark.parametrize("points, error, message", MALFORMED_HULLS, ids=MALFORMED_HULL_IDS)
def test_hull_rejects_a_malformed_point_set(points, error, message):
    with pytest.raises(error) as exc:
        tg.hull(points)
    assert str(exc.value) == message


BOUND_OVERFLOWS = [
    (lambda: tg.hull([(1e308, -1e308)]), "coordinate differences overflow float64"),
    (lambda: tg.hull([(0, 0), (-1e308, 1e308)]), "coordinate differences overflow float64"),
    (lambda: GeodesicRegion((-1e308,), (1e308,)), "the bound system overflows float64"),
    # the box is fine; the cycle x_1 - x_2 + x_2 - x_1 >= 2e308 is not
    (lambda: GeodesicRegion((0, 0), (1, 1), [[0, 1e308], [1e308, 0]]),
     "the bound system overflows float64"),
]
BOUND_OVERFLOW_IDS = ["hull", "hull-second-point", "region-box", "region-closure"]


@pytest.mark.parametrize("call, message", BOUND_OVERFLOWS, ids=BOUND_OVERFLOW_IDS)
def test_bound_overflow_is_a_domain_error(call, message):
    # finite input whose differences overflow float64 raises, with no numpy
    # RuntimeWarning on the way (the test run turns those into errors)
    with pytest.raises(tg.DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_closure_drops_sums_that_overflow_below_a_finite_bound():
    # lower_1 - upper_2 is -2e308, which the given bound -1e308 beats
    region = GeodesicRegion((-1e308, 0), (0, 1e308), [[0, -1e308], [-1e308, 0]])
    assert region.lower == (-1e308, 0.0)
    assert region.upper == (0.0, 1e308)
    assert region.diff_lb == ((0.0, -1e308), (0.0, 0.0))


# the region type itself


def test_empty_region_raises():
    with pytest.raises(tg.EmptyRegionError):
        GeodesicRegion((1.0,), (0.0,))


def test_closure_propagates_difference_chains():
    # -100 entries are slack enough to never bind inside the box
    reg = GeodesicRegion(
        lower=(0, 0, 0),
        upper=(20, 20, 20),
        diff_lb=((0, 5, -100), (-100, 0, 5), (-100, -100, 0)),
    )
    assert reg.lower == (10.0, 5.0, 0.0)
    assert reg.upper == (20.0, 15.0, 10.0)
    assert reg.diff_lb[0][2] == 10.0


def test_region_equality_and_hash():
    a = tg.hull([(0, 0), (1, 2)])
    b = tg.hull([(0, 0), (1, 2)])
    c = tg.hull([(0, 0), (1, 3)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert "GeodesicRegion" in repr(a)


def test_region_is_immutable():
    reg = tg.hull([(0, 0), (1, 2)])
    with pytest.raises(AttributeError):
        reg.lower = (5.0, 5.0)


MALFORMED_DIFFS = [
    (((0, 0), (0,)), tg.DimensionMismatch),
    (((0, 0, 0), (0, 0, 0)), tg.DimensionMismatch),
    ((0, 0), tg.DimensionMismatch),
    (([{}, 0], [0, 0]), tg.DimensionMismatch),
    (((0, math.nan), (0, 0)), tg.DomainError),
    (((0, 0), (-math.inf, 0)), tg.DomainError),
]


@pytest.mark.parametrize("diff, error", MALFORMED_DIFFS, ids=repr)
def test_region_rejects_a_malformed_difference_table(diff, error):
    with pytest.raises(error):
        GeodesicRegion((0, 0), (1, 1), diff)


@pytest.mark.parametrize(
    "call",
    [lambda p=p: tg.hull(p) for p, _, _ in MALFORMED_HULLS]
    + [call for call, _ in BOUND_OVERFLOWS]
    + [lambda d=d: GeodesicRegion((0, 0), (1, 1), d) for d, _ in MALFORMED_DIFFS]
    # a string row that numpy would read as numbers, and an int past float64
    + [lambda: GeodesicRegion((0, 0), (1, 1), [["0", "1"], [0, 0]]),
       lambda: GeodesicRegion((0,), (1,), [[10**400]]),
       lambda: tg.hull([(0, 10**400)])],
    ids=["hull-" + i for i in MALFORMED_HULL_IDS]
    + ["overflow-" + i for i in BOUND_OVERFLOW_IDS]
    + ["diff-%d" % k for k in range(len(MALFORMED_DIFFS))]
    + ["diff-strings", "diff-10**400", "hull-10**400"],
)
def test_both_layouts_raise_alike(monkeypatch, call):
    # the pure-Python layout passes what it cannot read to numpy's, so each
    # error keeps one class and one message
    pure, numpy = _in_both_layouts(monkeypatch, call)
    assert pure == numpy
    assert isinstance(numpy, tuple), numpy


def test_region_intersect():
    square = GeodesicRegion((0, 0), (2, 2))
    shifted = GeodesicRegion((1, 1), (3, 3))
    meet = square.intersect(shifted)
    assert meet.lower == (1.0, 1.0)
    assert meet.upper == (2.0, 2.0)
    with pytest.raises(tg.EmptyRegionError):
        square.intersect(GeodesicRegion((5, 5), (6, 6)))


def test_region_affine_dim():
    assert GeodesicRegion((0, 0), (0, 0)).affine_dim() == 0
    assert GeodesicRegion((0, 0), (1, 0)).affine_dim() == 1
    assert GeodesicRegion((0, 0), (1, 1)).affine_dim() == 2
    # x - y pinned to 1: a diagonal segment
    pinned = GeodesicRegion((0, -1), (1, 0), ((0, 1), (-1, 0)))
    assert pinned.affine_dim() == 1


def test_contains_batch_matches_scalar():
    rng = np.random.default_rng(12)
    reg = tg.hull([tuple(rng.uniform(-2, 2, 3)) for _ in range(4)])
    X = rng.uniform(-3, 3, (200, 3))
    got = reg.contains_batch(X)
    want = np.array([reg.contains(tuple(row)) for row in X])
    assert np.array_equal(got, want)


class _EndpointRng:
    """An rng for helpers.region_point that draws only the end of each
    interval it is offered, so every sample lies on the region's boundary."""

    def __init__(self, rng):
        self.rng = rng

    def uniform(self, lo, up):
        return up if self.rng.random() < 0.5 else lo


def _membership_rows(rng, regions, points, eps):
    """Rows that probe a region's bounds: random rows, boundary samples with
    and without an offset of about eps, the hull's own points, rows with a
    NaN or an infinity, and finite rows whose differences overflow float64."""
    n = points.shape[1]
    ends = _EndpointRng(rng)
    edge = np.array([region_point(reg, ends) for reg in regions for _ in range(40)])
    shifts = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], edge.shape) * eps
    bad = rng.uniform(-1.0, 1.0, (6, n))
    bad[np.arange(6), rng.integers(0, n, 6)] = [np.nan, np.inf, -np.inf] * 2
    huge = np.zeros((2, n))
    huge[:, 0] = (1e308, -1e308)
    huge[:, -1] = (-1e308, 1e308)
    return np.concatenate([
        rng.uniform(-2.5, 2.5, (120, n)),
        edge,
        edge + shifts,
        points,
        bad,
        huge,
    ])


def _as_ints(X):
    """X rounded to int64, with each NaN read as 0 and everything else
    clipped to [-3, 3]."""
    return np.rint(np.clip(np.nan_to_num(X), -3.0, 3.0)).astype(np.int64)


def _survivor_batches(inbox, step):
    """Row indices into a pool, whose rows do (inbox) or do not pass the
    box test, for batches at the edges of contains_batch's survivor buffer
    of width step: every row outside the box, every row inside it, the two
    alternating, runs of step // 3 + 1 inside rows between 5 outside ones,
    so that the buffer fills in the middle of a chunk, and alternating
    chunks between chunks wholly inside the box, which are tested in place
    while the buffer holds survivors of the chunk before.  Each pattern
    comes at 0, 1, step - 1, step, step + 1 and 3 step + 7 rows."""
    ins, outs = np.flatnonzero(inbox), np.flatnonzero(~inbox)
    run = step // 3 + 1
    for m in (0, 1, step - 1, step, step + 1, 3 * step + 7):
        r = np.arange(m)
        patterns = {
            "outside": np.zeros(m, bool),
            "inside": np.ones(m, bool),
            "alternating": r % 2 == 0,
            "runs": r % (run + 5) < run,
            "whole-chunks": (r % 2 == 0) | (r // step % 2 == 1),
        }
        for name, take in patterns.items():
            # the k-th inside row is ins[k % len(ins)], and so on, so every
            # pool row of each kind is used
            idx = np.where(take, ins[r % len(ins)], outs[r % len(outs)])
            yield "%s-%d" % (name, m), idx


@pytest.mark.parametrize("eps", [1e-9, 0.05])
@pytest.mark.parametrize("n", range(1, 13))
def test_contains_batch_matches_the_row_major_oracle(n, eps):
    rng = np.random.default_rng([n, int(eps * 100)])
    # both clouds hold the origin, so their hulls meet
    a = np.vstack([np.zeros(n), rng.uniform(-2.0, 1.0, (n + 2, n))])
    b = np.vstack([np.zeros(n), rng.uniform(-1.0, 2.0, (n + 2, n))])
    ha = tg.hull(a.tolist())
    regions = [ha, ha.intersect(tg.hull(b.tolist())), tg.hrep(tg.unit_ball(n))]
    pool = _membership_rows(rng, regions, a, eps)
    finite = np.isfinite(pool).all(axis=1)
    ipool = _as_ints(pool)
    chunk = max(1, _batch._CONTAINS_BUDGET // n)
    seen = set()
    for reg in regions:
        mask = reg.contains_batch(pool, eps=eps)
        assert np.array_equal(mask, contains_batch_oracle(reg, pool, eps))
        scalar = [reg.contains(tuple(row), eps=eps) for row in pool[finite].tolist()]
        assert mask[finite].tolist() == scalar
        assert not mask[~finite].any()
        seen.update(mask.tolist())
        # rows drawn from the pool, so every chunk edge falls between two
        # unrelated rows
        for m in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 7):
            X = pool[rng.integers(0, len(pool), m)]
            assert np.array_equal(reg.contains_batch(X, eps=eps), contains_batch_oracle(reg, X, eps))
        wide = np.zeros((len(X), n + 3))
        wide[:, 1 : n + 1] = X
        for Y in (np.asfortranarray(X), wide[:, 1 : n + 1], X[::3], _as_ints(X)):
            assert np.array_equal(reg.contains_batch(Y, eps=eps), contains_batch_oracle(reg, Y, eps))
        if n not in (1, 2, 12):
            continue
        # batches at the edges of the survivor buffer, for float64 and int64
        # pools; the scalar answer of a pool row is False when it is not finite
        want = np.zeros(len(pool), bool)
        want[finite] = scalar
        iwant = np.array([reg.contains(tuple(row), eps=eps) for row in ipool.tolist()])
        lo, up = np.array(reg.lower) - eps, np.array(reg.upper) + eps
        for P, expected in ((pool, want), (ipool, iwant)):
            inbox = np.all(P >= lo, axis=1) & np.all(P <= up, axis=1)
            assert inbox.any() and not inbox.all()
            for name, idx in _survivor_batches(inbox, chunk):
                X = P[idx]
                spread = np.repeat(X, 2, axis=0)
                for Y in (X, np.asfortranarray(X), spread[::2]):
                    got = reg.contains_batch(Y, eps=eps)
                    assert np.array_equal(got, contains_batch_oracle(reg, Y, eps)), name
                    assert np.array_equal(got, expected[idx]), name
    assert seen == {True, False}


def test_contains_batch_rejects_a_non_finite_row_at_any_eps():
    # at the largest eps accepted, upper + eps is still finite, so no
    # infinite row passes the box, where a subtraction inf - inf would be
    # invalid
    inf, nan = math.inf, math.nan
    eps, big = math.nextafter(0.25, 0.0), sys.float_info.max
    assert not GeodesicRegion((0,), (big,)).contains_batch([[inf]], eps=eps).any()
    rows = [[inf, inf], [inf, 0.0], [nan, 0.0]]
    assert not GeodesicRegion((0, 0), (big, big)).contains_batch(rows, eps=eps).any()


def test_contains_batch_does_not_warn_when_a_difference_overflows():
    # the row lies outside the box, so no subtraction is made
    assert tg.hull([(0, 0), (1, 1)]).contains_batch([[1e308, -1e308]]).tolist() == [False]
    # inside the box, x_1 - x_2 = -2e308 overflows to -inf, which fails the
    # bound -1e308 as the exact difference does
    region = GeodesicRegion((-1e308, 0), (0, 1e308), [[0, -1e308], [-1e308, 0]])
    rows = [(-1e308, 1e308), (-1e308, 0.0), (0.0, 1e308), (0.0, 0.0)]
    want = [region.contains(r) for r in rows]
    assert want == [False, True, True, True]
    assert region.contains_batch(rows).tolist() == want


@pytest.mark.parametrize(
    "X", [[(0, 0), (1,)], [("a", "b")], [({}, 1)]], ids=["ragged", "non-numeric", "non-number"]
)
def test_contains_batch_rejects_a_malformed_array(X):
    with pytest.raises(tg.DimensionMismatch):
        tg.hull([(0, 0), (1, 1)]).contains_batch(X)


def test_contains_batch_memory_does_not_grow_with_the_rows():
    # numpy reports its buffers to tracemalloc; the row-major kernel peaked
    # at about 1.3 and 5.2 MB above its output here, and a whole-array cast
    # of the int64 input at 38.7 MB for 400000 rows
    reg = tg.hrep(tg.unit_ball(12))
    rng = np.random.default_rng(5)
    for dtype in (np.float64, np.int64):
        peaks = []
        for m in (100_000, 400_000):
            X = rng.uniform(-1.5, 1.5, (m, 12)).astype(dtype)
            tracemalloc.start()
            try:
                mask = reg.contains_batch(X)
                peaks.append(tracemalloc.get_traced_memory()[1] - mask.nbytes)
            finally:
                tracemalloc.stop()
            assert np.array_equal(mask, contains_batch_oracle(reg, X, tg.DEFAULT_EPS))
        assert max(peaks) < 1 << 20, dtype
        assert peaks[1] - peaks[0] < 1 << 14, dtype


def test_contains_batch_reuses_the_thread_workspace():
    # the buffers persist in _batch._WS, shared with verify_tiling's
    # kernels; every mask must still be right, and stay right after later
    # calls of other shapes, since only the mask is a fresh array
    rng = np.random.default_rng(9)
    regions = {n: tg.hull(rng.uniform(-1.0, 1.0, (n + 2, n))) for n in (1, 3, 7, 12)}
    seen = []

    def run():
        for n, m in [(12, 20_000), (3, 5), (7, 0), (1, 4_000), (12, 37_000), (3, 20_000), (7, 3)]:
            reg = regions[n]
            X = rng.uniform(-1.2, 1.2, (m, n))
            mask = reg.contains_batch(X)
            assert np.array_equal(mask, contains_batch_oracle(reg, X, tg.DEFAULT_EPS)), (n, m)
            seen.append((reg, X, mask))
            assert tg.verify_tiling(n, samples=3_000, seed=m).mismatches == 0
        # a repeated call takes its buffers from the workspace: beyond the
        # mask it peaked at about 0.13 MiB at n = 12 (numpy's reduction
        # transients), where fresh buffers came to about 0.74 MiB
        reg, X, _ = seen[4]
        tracemalloc.start()
        try:
            mask = reg.contains_batch(X)
            return tracemalloc.get_traced_memory()[1] - mask.nbytes
        finally:
            tracemalloc.stop()

    out = []
    worker = threading.Thread(target=lambda: out.append(run()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(out) == 1
    assert out[0] < 1 << 18
    for reg, X, mask in seen:
        assert np.array_equal(mask, contains_batch_oracle(reg, X, tg.DEFAULT_EPS))


def test_sample_stays_inside():
    # the tests' own sampler, which several oracles above rely on
    r = random.Random(3)
    reg = SIMPLEX
    for _ in range(200):
        assert reg.contains(region_point(reg, r), eps=1e-9)


# planar classification


def test_classify_unit_disk_is_full_hexagon():
    shape = tg.classify2d(tg.hrep(tg.unit_ball(2)))
    assert shape.kind == "polygon"
    assert shape.edge_count == 6
    assert shape.present_edges == (0, 1, 2, 3, 4, 5)
    assert shape.canonical_id == 0


def test_classify_triangle():
    reg = GeodesicRegion((0, 0), (1, 1), ((0, -1), (0, 0)))
    shape = tg.classify2d(reg)
    assert shape.kind == "polygon"
    assert shape.edge_count == 3
    assert shape.present_edges == (1, 3, 5)
    assert {EDGE_NAMES[k] for k in shape.present_edges} == {"y=b'", "x=a", "y-x=c"}
    assert shape.canonical_id == 2**0 + 2**2 + 2**4


def test_classify_degenerates():
    assert tg.classify2d(tg.hull([(1, 1), (1, 1)])).canonical_id == POINT_ID
    assert tg.classify2d(tg.hull([(0, 0), (2, 0)])).canonical_id == SEGMENT_X_ID
    assert tg.classify2d(tg.hull([(0, 0), (0, 2)])).canonical_id == SEGMENT_Y_ID
    assert tg.classify2d(tg.hull([(0, 0), (2, 2)])).canonical_id == SEGMENT_DIAG_ID
    assert tg.classify2d(tg.hull([(1, 1), (1, 1)])).kind == "point"
    assert tg.classify2d(tg.hull([(0, 0), (2, 0)])).kind == "segment-x"


def test_classify_requires_two_dimensions():
    with pytest.raises(tg.DimensionMismatch):
        tg.classify2d(GeodesicRegion((0, 0, 0), (1, 1, 1)))


def test_classified_missing_edges_never_adjacent():
    legal = set(independent_masks())
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(4000):
        a, a2 = np.sort(rng.uniform(-1, 1, 2))
        b, b2 = np.sort(rng.uniform(-1, 1, 2))
        c, c2 = np.sort(rng.uniform(-2, 2, 2))
        try:
            reg = GeodesicRegion((a, b), (a2, b2), ((0.0, -c2), (c, 0.0)))
        except tg.EmptyRegionError:
            continue
        shape = tg.classify2d(reg)
        if shape.kind == "polygon":
            assert shape.canonical_id in legal
            seen.add(shape.canonical_id)
    assert len(seen) >= 12  # the full 18 take a bigger sweep


# the Monte-Carlo hull oracle


def test_oracle_depth_zero_returns_input():
    pts = [(0.0, 0.0), (1.0, 2.0)]
    assert hull_iterate_oracle(pts, depth=0, samples=50) == pts


def test_oracle_outputs_stay_in_hull():
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    out = hull_iterate_oracle(pts, depth=2, samples=120, seed=5)
    assert len(out) == 4 + 120 + 120
    for p in out:
        assert SIMPLEX.contains(p, eps=1e-9)


def test_oracle_reaches_the_interior():
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    out = hull_iterate_oracle(pts, depth=2, samples=200, seed=5)
    slack = []
    for x, y, z in out:
        slack.append(min(x - y, y - z, z - 0.0, 1.0 - x))
    assert max(slack) > 0.05


def test_interior_witness_line_of_the_simplex():
    # an interior point sits on the straight segment through two boundary
    # points built from its own coordinates
    a, b, c = 0.5, 0.2, 0.1
    p = (a, b, c)
    u = ((a - b) / (1 - b), 0.0, 0.0)
    v = (1.0, 1.0, c / b)
    assert SIMPLEX.contains(u) and SIMPLEX.contains(v)
    assert tg.is_between(u, p, v, eps=1e-12)


def test_oracle_deterministic_under_seed():
    pts = [(0.0, 0.0), (3.0, 1.0)]
    a = hull_iterate_oracle(pts, depth=1, samples=30, seed=9)
    b = hull_iterate_oracle(pts, depth=1, samples=30, seed=9)
    assert a == b
