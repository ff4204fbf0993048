import itertools
import time

import numpy as np
import pytest

import tropgeo as tg
from tropgeo import ball
from tropgeo.ball import FacetId, facet_contains, iter_vertices, sphere_position_2d, zonotope_point

from helpers import ball_points, batch_norm, facet_of_oracle, sphere_points


def test_ball_validation():
    with pytest.raises(tg.DomainError):
        tg.Ball((0.0, 0.0), 0.0)
    with pytest.raises(tg.DomainError):
        tg.Ball((0.0, 0.0), -1.0)


@pytest.mark.parametrize("radius", [float("inf"), float("-inf"), float("nan"), "a", None], ids=repr)
def test_ball_rejects_a_radius_that_is_not_a_positive_real(radius):
    # unchecked, an infinite radius fails only later, in hrep, with a
    # message about infinite coordinates
    with pytest.raises(tg.DomainError, match="radius must be a positive real"):
        tg.Ball((0.0, 0.0), radius)


def test_contains_worked_values():
    b1 = tg.unit_ball(1)
    assert tg.contains(b1, (1.0,))
    assert tg.contains(b1, (-1.0,))
    assert not tg.contains(b1, (1.01,))
    b3 = tg.unit_ball(3)
    ones = (1.0, 1.0, 1.0)
    assert tg.contains(b3, ones)
    assert tg.norm(ones) == 1.0
    assert not tg.contains(tg.unit_ball(2), (0.6, -0.6))


def test_contains_respects_center_and_radius():
    b = tg.Ball((2.0, -1.0), 0.5)
    assert tg.contains(b, (2.5, -1.0))
    assert not tg.contains(b, (2.6, -1.0))
    assert tg.contains(b, (2.0, -1.0))


def test_units_and_neg_units():
    assert tg.units(2) == ((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0))
    assert tg.neg_units(2) == ((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0))
    for u in tg.units(4):
        assert tg.norm(u) == 1.0


def test_hrep_equals_hull_of_unit_directions():
    for n in range(1, 6):
        assert tg.hrep(tg.unit_ball(n)) == tg.hull(tg.units(n))


def test_hrep_of_translated_ball():
    b = tg.Ball((1.0, 2.0), 0.5)
    reg = tg.hrep(b)
    assert reg.lower == (0.5, 1.5)
    assert reg.upper == (1.5, 2.5)
    rng = np.random.default_rng(4)
    for _ in range(300):
        x = tuple(rng.uniform(-0.2, 2.8, 2))
        assert reg.contains(x) == tg.contains(b, x)


def test_vertex_counts():
    for n in range(1, 9):
        vs = tg.vertices(n)
        assert len(vs) == 2 ** (n + 1) - 2
        assert len(set(vs)) == len(vs)
        for v in vs:
            assert tg.norm(v) == 1.0


def test_vertices_low_dimensions():
    assert set(tg.vertices(1)) == {(1.0,), (-1.0,)}
    assert set(tg.vertices(2)) == {
        (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
        (-1.0, 0.0), (-1.0, -1.0), (0.0, -1.0),
    }
    assert len(tg.vertices(3)) == 14


def test_iter_vertices_is_lazy_and_complete():
    it = iter_vertices(3)
    assert next(it) is not None
    assert list(iter_vertices(2)) == tg.vertices(2)


@pytest.mark.parametrize("n", [2.5, 0])
def test_iter_vertices_checks_the_dimension_at_the_call(n):
    # the call itself raises, before anything is iterated
    with pytest.raises(tg.DomainError):
        tg.iter_vertices(n)


@pytest.mark.parametrize(
    "listing, cap", [(tg.vertices, 17), (tg.facets, 800)], ids=["vertices", "facets"]
)
def test_a_listing_is_capped_at_about_64_mb(listing, cap):
    # the cap is a dimension whose whole list fits; one above raises before
    # anything is built, at any size
    assert len(listing(cap)) == (2 ** (cap + 1) - 2 if listing is tg.vertices else cap * (cap + 1))
    for n in (cap + 1, 10**9):
        with pytest.raises(tg.DomainError) as exc:
            listing(n)
        assert str(exc.value) == "%s are listed up to dimension %d, got %d" % (
            listing.__name__, cap, n)


def test_hrep_is_capped_at_about_64_mb(monkeypatch):
    # the region and its O(n^3) closure at the cap itself are too slow for
    # tier-1, so a lowered cap shows where the check sits
    for n in (801, 10**6):
        with pytest.raises(tg.DomainError) as exc:
            tg.hrep(tg.Ball((0.0,) * n))
        assert str(exc.value) == (
            "balls are written as bound systems up to dimension 800, got %d" % n)
    monkeypatch.setattr(ball, "_MAX_HREP_DIM", 3)
    assert tg.hrep(tg.unit_ball(3)) == tg.hull(tg.units(3))
    with pytest.raises(tg.DomainError):
        tg.hrep(tg.unit_ball(4))


def test_iter_vertices_has_no_cap():
    it = iter_vertices(30)
    assert next(it) == (0.0,) * 29 + (1.0,)


def test_facet_of_has_no_cap(monkeypatch):
    # it tests the facets one at a time, without their list
    monkeypatch.setattr(ball, "_MAX_FACET_DIM", 2)
    assert [str(f) for f in tg.facet_of((1.0, 0.5, 0.0))] == ["upper(1)", "diff(1,3)"]


def test_facet_counts_and_order():
    for n in range(1, 9):
        fs = tg.facets(n)
        assert len(fs) == n * (n + 1)
    fs = tg.facets(2)
    assert str(fs[0]) == "upper(1)"
    assert {str(f) for f in fs} == {
        "upper(1)", "upper(2)", "lower(1)", "lower(2)", "diff(1,2)", "diff(2,1)",
    }


def test_facet_id_validation():
    with pytest.raises(tg.DomainError):
        FacetId("upper", 1, 2)
    with pytest.raises(tg.DomainError):
        FacetId("diff", 1, None)
    with pytest.raises(tg.DomainError):
        FacetId("diff", 2, 2)
    with pytest.raises(tg.DomainError):
        FacetId("sideways", 1, None)


def test_opposite_worked_values_and_involution():
    assert tg.opposite(FacetId("upper", 2)) == FacetId("lower", 2)
    assert tg.opposite(FacetId("diff", 1, 3)) == FacetId("diff", 3, 1)
    for f in tg.facets(3):
        assert tg.opposite(tg.opposite(f)) == f


def test_facet_of_worked_values():
    assert tg.facet_of((1.0, 0.5)) == [FacetId("upper", 1)]
    assert tg.facet_of((0.5, -0.5)) == [FacetId("diff", 1, 2)]
    ones = (1.0, 1.0, 1.0)
    assert tg.facet_of(ones) == [FacetId("upper", i) for i in (1, 2, 3)]


def _facet_cases(n, eps, rng):
    """Sphere points, the ball's vertices, the vertices moved by up to eps
    per coordinate, and quarter-grid points; some of the moved vertices and
    most grid points are off the sphere."""
    verts = np.array(tg.vertices(n))
    moved = verts + rng.choice([-eps, -eps / 2, 0.0, eps / 2, eps], verts.shape)
    grid = rng.integers(-4, 5, (400, n)) / 4
    return [tuple(x) for part in (sphere_points(n, 100, rng), verts, moved, grid) for x in part.tolist()]


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 0.05])
@pytest.mark.parametrize("n", range(1, 9))
def test_facet_of_matches_the_scan_of_all_facets(n, eps):
    rng = np.random.default_rng(40 + n)
    on_sphere = 0
    for x in _facet_cases(n, eps, rng):
        try:
            want = facet_of_oracle(x, eps)
        except tg.DomainError:
            with pytest.raises(tg.DomainError):
                tg.facet_of(x, eps)
            continue
        assert tg.facet_of(x, eps) == want
        on_sphere += 1
    assert on_sphere >= 100


def test_facet_of_is_fast_at_n901():
    # a scan of all n(n+1) facets at O(n) each took about 22 s at this n on
    # a 2-core x86 host; the candidates here are upper(1) alone
    x = (1.0,) + (0.5,) * 900
    start = time.perf_counter()
    assert tg.facet_of(x) == [FacetId("upper", 1)]
    assert time.perf_counter() - start < 2.0


def test_facet_of_lists_every_facet_at_n1600():
    # upper(i) for i <= 800 and diff(i, j) for i <= 800 < j: every pair of a
    # 1 and a 0, each confirmed in O(1); confirming each with facet_contains,
    # which scans all n coordinates, took about 74 s on a 2-core x86 host
    x = (1.0,) * 800 + (0.0,) * 800
    start = time.perf_counter()
    fs = tg.facet_of(x)
    assert time.perf_counter() - start < 20.0
    assert len(fs) == 800 + 800 * 800 == 640_800
    assert fs[0] == FacetId("upper", 1)
    assert fs[799:801] == [FacetId("upper", 800), FacetId("diff", 1, 801)]
    assert fs[-1] == FacetId("diff", 800, 1600)


def test_facet_of_requires_sphere_point():
    with pytest.raises(tg.DomainError):
        tg.facet_of((0.5, 0.0))


def test_facet_cover_of_the_sphere():
    # every sphere point lies on at least one facet, and facet_contains
    # agrees with facet_of
    rng = np.random.default_rng(9)
    for x in sphere_points(3, 200, rng):
        p = tuple(x)
        fs = tg.facet_of(p)
        assert fs
        for f in tg.facets(3):
            assert (f in fs) == facet_contains(f, p)


def test_diametral_worked_values():
    b = tg.unit_ball(3)
    ones = (1.0, 1.0, 1.0)
    neg = (-1.0, -1.0, -1.0)
    assert tg.is_diametral_pair(b, ones, neg)
    assert tg.is_diametral_pair(tg.unit_ball(2), (1.0, 0.3), (-1.0, -0.2))
    assert not tg.is_diametral_pair(tg.unit_ball(2), (1.0, 0.2), (1.0, 0.8))


def test_diametral_requires_sphere_points():
    with pytest.raises(tg.DomainError):
        tg.is_diametral_pair(tg.unit_ball(2), (0.5, 0.0), (1.0, 0.0))


def test_antipodes_are_diametral():
    rng = np.random.default_rng(21)
    b = tg.unit_ball(4)
    for x in sphere_points(4, 100, rng):
        p = tuple(x)
        q = tuple(-v for v in x)
        assert tg.is_diametral_pair(b, p, q)


def test_opposite_facet_points_are_diametral():
    rng = np.random.default_rng(22)
    b = tg.unit_ball(2)
    for _ in range(100):
        u = float(rng.uniform(0.05, 0.95))
        v = float(rng.uniform(0.05, 0.95))
        # relative interiors of diff(1,2) and diff(2,1)
        assert tg.is_diametral_pair(b, (u, u - 1.0), (v - 1.0, v))
        # relative interiors of upper(1) and lower(1)
        assert tg.is_diametral_pair(b, (1.0, u), (-1.0, -v))


def test_minkowski_coeffs_worked_values():
    assert tg.minkowski_coeffs((0.0, 0.0)) == (0.0, 0.0, 0.0)
    assert tg.minkowski_coeffs((-1.0, -1.0)) == (0.0, 0.0, 1.0)
    got = tg.minkowski_coeffs((0.5, -0.3))
    assert got == pytest.approx((0.8, 0.0, 0.3), abs=1e-12)


def test_minkowski_rejects_outside_points():
    with pytest.raises(tg.DomainError):
        tg.minkowski_coeffs((0.6, -0.6))
    with pytest.raises(tg.DomainError):
        tg.minkowski_coeffs((1.2, 0.0))


def test_minkowski_round_trip():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5):
        for x in ball_points(n, 300, rng):
            p = tuple(x)
            a = tg.minkowski_coeffs(p)
            assert len(a) == n + 1
            assert all(-1e-12 <= c <= 1 + 1e-12 for c in a)
            back = zonotope_point(a)
            assert max(abs(u - v) for u, v in zip(back, p)) < 1e-12


def test_orthant_of_worked_values():
    assert tg.orthant_of((0.4, 0.2, 0.7)) == (4,)
    assert tg.orthant_of((0.0, 0.0)) == (1, 2, 3)
    assert tg.orthant_of((-0.4, 0.3)) == (1,)


def test_orthant_partition():
    rng = np.random.default_rng(24)
    n = 3
    seen = set()
    for x in ball_points(n, 2000, rng):
        p = tuple(x)
        js = tg.orthant_of(p)
        assert len(js) >= 1
        seen.update(js)
        if len(js) > 1:
            # a tie means the point sits on a shared hypercube facet
            h = list(p) + [0.0]
            vals = sorted(h[j - 1] for j in js)
            assert vals[-1] - vals[0] <= 1e-9
    assert seen == {1, 2, 3, 4}


def test_orthant_matches_chart_choice():
    rng = np.random.default_rng(25)
    for x in ball_points(2, 200, rng):
        p = tuple(x)
        oc = tg.to_orthant_coords(tg.embed(p))
        assert oc.omitted_index == tg.orthant_of(p)[0]


def test_generator_coeffs_worked_values():
    assert tg.generator_coeffs((-1.0, -1.0)) == (0.0, 0.0, 0.0)
    assert tg.generator_coeffs((0.0, 0.0)) == (1.0, 1.0, 0.0)
    gens = tg.neg_units(2)
    assert tg.eval_trop_combination((1.0, 1.0, 0.0), gens) == (0.0, 0.0)


def test_generator_round_trip():
    rng = np.random.default_rng(26)
    for n in (1, 2, 4):
        gens = tg.neg_units(n)
        for x in ball_points(n, 300, rng):
            p = tuple(x)
            c = tg.generator_coeffs(p)
            back = tg.eval_trop_combination(c, gens)
            assert max(abs(u - v) for u, v in zip(back, p)) < 1e-12


def test_eval_trop_combination_basics():
    assert tg.eval_trop_combination((0.0,), [(2.0, -1.0)]) == (2.0, -1.0)
    # coeffs (0,0) give the coordinatewise min, the apex of the two points
    got = tg.eval_trop_combination((0.0, 0.0), [(0.0, 2.0), (1.0, -1.0)])
    assert got == (0.0, -1.0)
    with pytest.raises(tg.DimensionMismatch):
        tg.eval_trop_combination((0.0, 0.0), [(1.0,)])


@pytest.mark.parametrize(
    "coeffs, gens",
    [
        (["a", 0.0], [(0.0, 1.0), (1.0, 0.0)]),
        ([None, 0.0], [(0.0, 1.0), (1.0, 0.0)]),
        ([float("nan"), 0.0], [(0.0, 1.0), (1.0, 0.0)]),
        ([float("inf"), 0.0], [(0.0, 1.0), (1.0, 0.0)]),
        ([0.0, float("-inf")], [(0.0, 1.0), (1.0, 0.0)]),
        # finite input whose sum overflows
        ((1e308,), [(1e308,)]),
        ((-1e308,), [(-1e308, 0.0)]),
    ],
)
def test_eval_trop_combination_rejects_bad_coefficients(coeffs, gens):
    with pytest.raises(tg.DomainError):
        tg.eval_trop_combination(coeffs, gens)


def test_generators_are_minimal():
    # no unit direction is a normalized min-plus combination of the others;
    # the coefficient grid is normalized (min entry 0) because combinations
    # are compared in the quotient modulo the all-ones shift
    for n in (2, 3):
        gens = tg.neg_units(n)
        grid = np.linspace(0.0, 2.0, 9)
        for j, target in enumerate(gens):
            others = [g for k, g in enumerate(gens) if k != j]
            best = np.inf
            for raw in itertools.product(grid, repeat=len(others)):
                c = tuple(v - min(raw) for v in raw)
                got = tg.eval_trop_combination(c, others)
                best = min(best, max(abs(u - v) for u, v in zip(got, target)))
            assert best >= 0.5


def test_pole_distances_worked_values():
    ones3 = (1.0, 1.0, 1.0)
    assert tg.pole_distances(ones3) == (0.0, 3.0)
    assert tg.pole_distances((-1.0, -1.0)) == (3.0, 0.0)
    # a point of the top facet with smallest coordinate 0.2
    assert tg.pole_distances((0.2, 1.0)) == pytest.approx((0.8, 2.2), abs=1e-12)
    # a point of a difference facet with smallest coordinate -0.5
    assert tg.pole_distances((0.5, -0.5)) == pytest.approx((1.5, 1.5), abs=1e-12)
    # a point with all coordinates nonpositive, largest -0.3
    d = tg.pole_distances((-0.3, -1.0))
    assert d == pytest.approx((2.3, 0.7), abs=1e-12)


def test_pole_distances_requires_sphere():
    with pytest.raises(tg.DomainError):
        tg.pole_distances((0.5, 0.0))


def test_pole_distances_sum_to_three():
    rng = np.random.default_rng(27)
    for n in range(2, 7):
        for x in sphere_points(n, 400, rng):
            dp, dm = tg.pole_distances(tuple(x))
            assert dp + dm == 3.0
            assert 0.0 <= dp <= 3.0


def test_pole_distances_match_planar_arcs():
    # for n = 2 the pole formulas agree with walking the hexagon boundary
    rng = np.random.default_rng(28)
    for x in sphere_points(2, 400, rng):
        p = tuple(x)
        dp, dm = tg.pole_distances(p)
        assert abs(dp - tg.intrinsic_distance_2d((0.0, 0.0), p, (1.0, 1.0))) < 1e-12
        assert abs(dm - tg.intrinsic_distance_2d((0.0, 0.0), p, (-1.0, -1.0))) < 1e-12


def test_sphere_position_walks_the_hexagon():
    ring = [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, -1.0), (0.0, -1.0)]
    for k, v in enumerate(ring):
        assert sphere_position_2d(v) == float(k)
    assert sphere_position_2d((1.0, 0.5)) == 0.5
    assert sphere_position_2d((-0.5, 0.5)) == 2.5
    with pytest.raises(tg.DomainError):
        sphere_position_2d((0.2, 0.2))


def test_intrinsic_distance_worked_values():
    c = (0.0, 0.0)
    assert tg.intrinsic_distance_2d(c, (1.0, 0.5), (1.0, 0.5)) == 0.0
    assert tg.intrinsic_distance_2d(c, (1.0, 1.0), (-1.0, -1.0)) == 3.0
    assert tg.intrinsic_distance_2d(c, (1.0, 0.0), (1.0, 1.0)) == 1.0
    assert tg.intrinsic_distance_2d(c, (1.0, 0.0), (0.0, -1.0)) == 1.0  # wraps


def test_intrinsic_distance_properties():
    rng = np.random.default_rng(29)
    c = (0.0, 0.0)
    pts = [tuple(x) for x in sphere_points(2, 60, rng)]
    for p in pts:
        for q in pts[:10]:
            d = tg.intrinsic_distance_2d(c, p, q)
            assert 0.0 <= d <= 3.0
            assert d == tg.intrinsic_distance_2d(c, q, p)
            # never shorter than the ambient distance
            assert d >= tg.dist(p, q) - 1e-9


def test_intrinsic_distance_translated_center():
    c = (2.0, -3.0)
    x = (c[0] + 1.0, c[1] + 1.0)
    y = (c[0] - 1.0, c[1] - 1.0)
    assert tg.intrinsic_distance_2d(c, x, y) == 3.0


def test_angle_worked_values():
    z = (0.0, 0.0)
    assert tg.angle_2d(z, (1.0, 0.0), (1.0, 0.0)) == 0.0
    assert tg.angle_2d(z, (1.0, 0.0), (0.0, 1.0)) == 2.0
    assert tg.angle_2d(z, (1.0, 0.0), (-1.0, -1.0)) == 2.0
    assert tg.angle_2d(z, (0.0, 1.0), (-1.0, -1.0)) == 2.0


def test_angle_properties():
    rng = np.random.default_rng(30)
    for _ in range(200):
        p = tuple(rng.uniform(-5, 5, 2))
        v1 = tuple(rng.uniform(-1, 1, 2))
        v2 = tuple(rng.uniform(-1, 1, 2))
        if tg.norm(v1) < 1e-6 or tg.norm(v2) < 1e-6:
            continue
        a = tg.angle_2d(p, v1, v2)
        assert 0.0 <= a <= 3.0
        assert a == tg.angle_2d(p, v2, v1)
        # direction only: rescaling a ray changes nothing
        assert a == pytest.approx(
            tg.angle_2d(p, tuple(3.0 * v for v in v1), v2), abs=1e-12
        )
        # base-point independence
        assert a == pytest.approx(tg.angle_2d((0.0, 0.0), v1, v2), abs=1e-12)


@pytest.mark.parametrize("p", [(1e16, 3.0), (1e17, 0.0)])
def test_angle_does_not_depend_on_the_magnitude_of_p(p):
    # p + v would round the unit directions away at these magnitudes
    for v1, v2 in (((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.5), (-1.0, -1.0))):
        assert tg.angle_2d(p, v1, v2) == tg.angle_2d((0.0, 0.0), v1, v2)
    assert tg.angle_2d(p, (1.0, 0.0), (0.0, 1.0)) == 2.0


def test_sphere_position_names_an_overflow():
    with pytest.raises(tg.DomainError) as exc:
        sphere_position_2d((1e308, 0.0), (-1e308, 0.0))
    assert str(exc.value) == "the distance overflows float64"


def test_angle_rejects_zero_direction():
    with pytest.raises(tg.DomainError):
        tg.angle_2d((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))


def test_ball_volume_is_dimension_plus_one():
    # Euclidean volume of the unit ball; Monte-Carlo against the bounding box
    rng = np.random.default_rng(31)
    for n in range(1, 5):
        m = 400_000
        X = rng.uniform(-1.0, 1.0, (m, n))
        inside = batch_norm(X) <= 1.0
        vol = inside.mean() * 2.0**n
        assert vol == pytest.approx(n + 1, rel=0.02)


def test_four_membership_presentations_agree():
    rng = np.random.default_rng(32)
    n = 3
    eps = 1e-9
    X = rng.uniform(-1.3, 1.3, (2000, n))
    by_hrep = tg.hrep(tg.unit_ball(n)).contains_batch(X, eps=eps)
    by_dist = batch_norm(X) <= 1.0 + eps
    by_hull = tg.hull(tg.units(n)).contains_batch(X, eps=eps)

    def mink_ok(row):
        m = min(0.0, min(row))
        coeffs = [v - m for v in row] + [-m]
        return all(c <= 1.0 + eps for c in coeffs)

    by_mink = np.array([mink_ok(tuple(r)) for r in X])
    assert np.array_equal(by_hrep, by_dist)
    assert np.array_equal(by_hrep, by_hull)
    assert np.array_equal(by_hrep, by_mink)
