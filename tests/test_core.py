import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tropgeo as tg
from tropgeo import core

from helpers import dist_oracle

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def points(n):
    return st.lists(finite, min_size=n, max_size=n).map(tuple)


@st.composite
def point_pairs(draw, max_dim=8):
    n = draw(st.integers(1, max_dim))
    return draw(points(n)), draw(points(n))


@st.composite
def point_triples(draw, max_dim=8):
    n = draw(st.integers(1, max_dim))
    return draw(points(n)), draw(points(n)), draw(points(n))


# dyadic coordinates make +/- of small integers exact in binary floats
dyadic = st.integers(-(2**30), 2**30).map(lambda k: k / 2**20)


def dyadic_points(n):
    return st.lists(dyadic, min_size=n, max_size=n).map(tuple)


def test_dist_worked_values():
    assert tg.dist((0, 0), (1, 2)) == 2.0
    assert tg.dist((2, 1), (1.2, 0.7)) == pytest.approx(0.8, abs=1e-12)
    assert tg.dist((3.5, -1.0, 2.0), (3.5, -1.0, 2.0)) == 0.0


def test_dist_one_sided_and_two_sided():
    # all deltas one sign: plain range; mixed signs: max minus min
    assert tg.dist((4, 2), (0, 0)) == 4.0
    assert tg.dist((3, -2), (0, 0)) == 5.0


@settings(max_examples=300)
@given(point_pairs())
def test_dist_matches_exhaustive_oracle(pair):
    x, y = pair
    assert tg.dist(x, y) == dist_oracle(x, y)


@settings(max_examples=300)
@given(point_triples())
def test_metric_axioms(triple):
    x, y, z = triple
    dxy = tg.dist(x, y)
    assert dxy >= 0.0
    assert dxy == tg.dist(y, x)
    assert tg.dist(x, x) == 0.0
    assert dxy <= tg.dist(x, z) + tg.dist(z, y) + 1e-8


@settings(max_examples=300)
@given(point_pairs())
def test_bilipschitz_sandwich(pair):
    x, y = pair
    n = len(x)
    d = tg.dist(x, y)
    d1, dinf = tg.lp_distances(x, y)
    assert dinf <= d + 1e-9
    assert d <= 2 * dinf + 1e-9
    assert d <= d1 + 1e-9
    assert d1 <= n * d + 1e-9


@settings(max_examples=200)
@given(st.data())
def test_translation_invariance_exact_on_dyadic_grid(data):
    n = data.draw(st.integers(1, 6))
    x = data.draw(dyadic_points(n))
    y = data.draw(dyadic_points(n))
    t = data.draw(st.integers(-500, 500))
    xs = tuple(a + t for a in x)
    ys = tuple(b + t for b in y)
    assert tg.dist(xs, ys) == tg.dist(x, y)


def test_translation_invariance_real_shift():
    x = (0.1, -2.7, 3.3)
    y = (1.05, 0.4, -9.9)
    t = (math.pi, -math.e, 0.125)
    xs = tuple(a + b for a, b in zip(x, t))
    ys = tuple(a + b for a, b in zip(y, t))
    assert tg.dist(xs, ys) == pytest.approx(tg.dist(x, y), abs=1e-9)


def test_dist_proj_worked_values():
    assert tg.dist_proj((5, 5, 5), (0, 0, 0)) == 0.0
    assert tg.dist_proj((-3, -2, -1), (0, 0, 0)) == 2.0


@settings(max_examples=200)
@given(point_pairs())
def test_projective_consistency(pair):
    x, y = pair
    assert tg.dist(x, y) == tg.dist_proj(tg.embed(x), tg.embed(y))


def test_dist_proj_scale_invariance():
    h = (1.5, -0.25, 2.0, 0.0)
    g = (0.5, 0.75, -1.0, 0.25)
    for c in (1.0, -3.5, 100.0):
        hs = tuple(v + c for v in h)
        assert tg.dist_proj(hs, g) == pytest.approx(tg.dist_proj(h, g), abs=1e-9)


def test_norm_worked_values():
    assert tg.norm((-3, -2, 1)) == 4.0
    assert tg.norm((-3, -2, -1)) == 3.0
    assert tg.norm((0, 0, 0)) == 0.0
    assert tg.norm_proj((-3, -2, -1)) == 2.0
    assert tg.norm_proj((7, 7)) == 0.0


@settings(max_examples=200)
@given(points(4))
def test_norm_symmetry_and_dist_consistency(x):
    neg = tuple(-v for v in x)
    assert tg.norm(x) == tg.norm(neg)
    assert tg.norm(x) == tg.dist(x, (0.0,) * len(x))


def test_norm_scaling_by_powers_of_two():
    x = (-3.0, -2.0, 1.0)
    for t in (0.25, 0.5, 2.0, 8.0):
        assert tg.norm(tuple(t * v for v in x)) == t * tg.norm(x)


def test_lp_distances_worked_values():
    assert tg.lp_distances((0, 0), (1, 2)) == (3.0, 2.0)


def test_dimension_mismatch_raises():
    with pytest.raises(tg.DimensionMismatch):
        tg.dist((1, 2), (1, 2, 3))
    with pytest.raises(tg.DimensionMismatch):
        tg.lp_distances((1,), (1, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: tg.dist((1e308,), (-1e308,)),
        lambda: tg.dist((1e308, 0.0), (0.0, 1e308)),
        lambda: tg.dist_proj((1e308, 0.0), (-1e308, 0.0)),
        lambda: tg.dist_proj((1e308, 1e308), (-1e308, -1e308)),
        lambda: tg.norm((1e308, -1e308)),
        lambda: tg.norm_proj((1e308, -1e308)),
        lambda: tg.lp_distances((1e308, 1e308), (0.0, 0.0)),
        lambda: tg.lp_distances((1e308,), (-1e308,)),
    ],
    ids=["dist", "dist-two-coordinates", "dist_proj", "dist_proj-inf-minus-inf", "norm", "norm_proj",
         "lp_distances-l1", "lp_distances-both"],
)
def test_metric_overflow_is_a_domain_error(call):
    # finite input whose distance overflows float64 raises, never returns
    # inf or (for dist_proj, as inf - inf) nan
    with pytest.raises(tg.DomainError, match="the distance overflows float64"):
        call()


def test_metric_keeps_the_largest_finite_distances():
    big = 1.7976931348623157e308
    assert tg.dist((big,), (0.0,)) == big
    assert tg.norm((big / 2, -big / 2)) == big
    assert tg.norm_proj((big, 0.0)) == big
    assert tg.dist_proj((big, 0.0), (0.0, 0.0)) == big
    assert tg.lp_distances((big,), (0.0,)) == (big, big)


def test_as_point_rejects_bad_values():
    with pytest.raises(tg.DomainError):
        core.as_point((1.0, float("inf")))
    with pytest.raises(tg.DomainError):
        core.as_point((float("nan"),))
    with pytest.raises(tg.DomainError):
        core.as_point(())


def test_canon_and_embed_round_trip():
    h = (2.0, 5.0, 3.0)
    x = tg.canon(h)
    assert x == (-1.0, 2.0)
    assert tg.embed(x) == (-1.0, 2.0, 0.0)
    assert tg.dist_proj(tg.embed(x), h) == 0.0


# segments


def test_segment_min_worked_example():
    seg = tg.segment((0, 0), (1, 2), "min")
    assert seg.apex == (0.0, 0.0)
    assert seg.vertices == ((0.0, 0.0), (1.0, 1.0), (1.0, 2.0))
    assert seg.mode == "min"
    assert seg.length() == 2.0


def test_segment_max_worked_example():
    seg = tg.segment((0, 0), (1, 2), "max")
    assert seg.apex == (1.0, 2.0)
    assert seg.vertices == ((0.0, 0.0), (0.0, 1.0), (1.0, 2.0))


def test_segment_degenerate():
    seg = tg.segment((1.5, -2.0), (1.5, -2.0))
    assert seg.vertices == ((1.5, -2.0),)
    assert seg.length() == 0.0


def test_segment_bad_mode():
    with pytest.raises(tg.DomainError):
        tg.segment((0,), (1,), "median")


@settings(max_examples=300)
@given(point_pairs(max_dim=6))
def test_segment_chain_properties(pair):
    x, y = pair
    n = len(x)
    for mode in ("min", "max"):
        seg = tg.segment(x, y, mode)
        verts = seg.vertices
        assert verts[0] == tuple(map(float, x))
        assert verts[-1] == tuple(map(float, y))
        assert len(verts) <= 2 * n + 1
        # no stalls
        for a, b in zip(verts, verts[1:]):
            assert a != b
        # chain length equals the distance: each vertex lies between the ends
        total = sum(tg.dist(a, b) for a, b in zip(verts, verts[1:]))
        assert total == pytest.approx(tg.dist(x, y), abs=1e-8)
        for v in verts:
            assert tg.is_between(x, v, y, eps=1e-8)
        # apex is the coordinatewise extreme and sits on the chain
        agg = min if mode == "min" else max
        assert seg.apex == tuple(agg(a, b) for a, b in zip(verts[0], verts[-1]))
        assert any(tg.dist(v, seg.apex) < 1e-9 for v in verts)


@settings(max_examples=200)
@given(point_pairs(max_dim=6))
def test_segment_edges_move_uniformly(pair):
    # every straight edge moves a subset of coordinates by one common amount;
    # edges below float resolution for the coordinate scale are skipped
    x, y = pair
    scale = max(1.0, max(abs(v) for v in x + y))
    seg = tg.segment(x, y)
    genuine = 0
    for a, b in zip(seg.vertices, seg.vertices[1:]):
        moves = [q - p for p, q in zip(a, b) if abs(q - p) > 1e-12 * scale]
        if not moves:
            continue
        genuine += 1
        assert max(moves) - min(moves) < 1e-8 * scale
        assert min(moves) > 0 or max(moves) < 0
    if tg.dist(x, y) > 1e-6 * scale:
        assert genuine >= 1


@settings(max_examples=200)
@given(point_pairs(max_dim=6))
def test_min_and_max_chains_use_reversed_edges(pair):
    x, y = pair
    a = tg.segment(x, y, "min").vertices
    b = tg.segment(x, y, "max").vertices
    ea = [tuple(q - p for p, q in zip(u, v)) for u, v in zip(a, a[1:])]
    eb = [tuple(q - p for p, q in zip(u, v)) for u, v in zip(b, b[1:])]
    assert len(ea) == len(eb)
    for u, v in zip(ea, reversed(eb)):
        assert all(abs(p - q) < 1e-8 for p, q in zip(u, v))


# orthant charts


def test_orthant_coords_worked_values():
    oc = tg.to_orthant_coords((0, 0, 0))
    assert oc.omitted_index == 1 and oc.values == (0.0, 0.0)
    oc = tg.to_orthant_coords((0.5, 0.3, 0))
    assert oc.omitted_index == 3 and oc.values == (0.5, 0.3)
    oc = tg.to_orthant_coords((-1, 2, 0))
    assert oc.omitted_index == 1 and oc.values == (3.0, 1.0)


@settings(max_examples=200)
@given(points(4))
def test_orthant_coords_round_trip(h):
    oc = tg.to_orthant_coords(h)
    assert all(v >= 0.0 for v in oc.values)
    back = tg.orthant_to_projective(oc)
    assert tg.dist_proj(back, h) < 1e-9


def test_orthant_coords_bad_index():
    with pytest.raises(tg.DomainError):
        tg.orthant_to_projective(core.OrthantCoords(5, (1.0, 1.0)))


# parsing and formatting


def test_parse_point():
    assert tg.parse_point("1.5,-2,0") == (1.5, -2.0, 0.0)
    assert tg.parse_point(" 3 , 4 ") == (3.0, 4.0)


def test_parse_projective():
    assert tg.parse_projective("1:2:0") == (1.0, 2.0, 0.0)


@pytest.mark.parametrize("bad", ["", "1,,2", "abc", "1;2", "inf,0", "nan"])
def test_parse_rejects(bad):
    with pytest.raises(tg.ParseError):
        tg.parse_point(bad)


def test_format_number():
    assert core.format_number(4.0) == "4"
    assert core.format_number(-0.0) == "0"
    assert core.format_number(0.8) == "0.8"
    assert core.format_number(2.5e-7) == repr(2.5e-7)


@settings(max_examples=200)
@given(points(3))
def test_format_parse_round_trip(x):
    assert tg.parse_point(core.format_point(x)) == x


def test_point_text_round_trip_examples():
    assert core.format_point((1.0, -2.5, 0.0)) == "1,-2.5,0"


EPS_CALLS = {
    "GeodesicRegion": lambda eps: tg.GeodesicRegion((1,), (0,), eps=eps),
    "hull": lambda eps: tg.hull([(0, 0)], eps=eps),
    "hrep": lambda eps: tg.hrep(tg.unit_ball(2), eps=eps),
    "intersect": lambda eps: tg.hull([(0, 0)]).intersect(tg.hull([(0, 0)]), eps=eps),
    "locate": lambda eps: tg.locate((0.5, 0.25), eps=eps),
    "neighbors": lambda eps: tg.neighbors((0, 0), eps=eps),
    "verify_tiling": lambda eps: tg.verify_tiling(2, samples=0, eps=eps),
    # the region predicates: unchecked, a nan eps admits every point and a
    # negative one rejects the hull's own vertices
    "contains": lambda eps: tg.hull([(0, 0), (1, 1)]).contains((5, 5), eps=eps),
    "contains_batch": lambda eps: tg.hull([(0, 0), (1, 1)]).contains_batch([(0, 0)], eps=eps),
    "affine_dim": lambda eps: tg.hull([(0, 0), (1, 1)]).affine_dim(eps=eps),
    "classify2d": lambda eps: tg.classify2d(tg.hull([(0, 0), (1, 1)]), eps=eps),
    # the ball and geodesy predicates: unchecked, a nan eps answered False
    "ball_contains": lambda eps: tg.contains(tg.unit_ball(2), (5, 5), eps=eps),
    "facet_contains": lambda eps: tg.facet_contains(tg.FacetId("upper", 1), (1, 0), eps=eps),
    "facet_of": lambda eps: tg.facet_of((1, 0), eps=eps),
    "is_diametral_pair": lambda eps: tg.is_diametral_pair(
        tg.unit_ball(2), (1, 0), (-1, 0), eps=eps),
    "minkowski_coeffs": lambda eps: tg.minkowski_coeffs((0.5, 0.25), eps=eps),
    "orthant_of": lambda eps: tg.orthant_of((0.5, 0.25), eps=eps),
    "generator_coeffs": lambda eps: tg.generator_coeffs((0.5, 0.25), eps=eps),
    "pole_distances": lambda eps: tg.pole_distances((1, 0), eps=eps),
    "sphere_position_2d": lambda eps: tg.sphere_position_2d((1, 0), eps=eps),
    "is_geodesic": lambda eps: tg.is_geodesic([(0, 0), (1, 1)], eps=eps),
    "is_between": lambda eps: tg.is_between((0, 0), (5, 5), (1, 1), eps=eps),
}


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1.0], ids=repr)
@pytest.mark.parametrize("call", sorted(EPS_CALLS))
def test_every_entry_point_rejects_a_bad_eps(call, eps, caplog):
    with pytest.raises(tg.DomainError, match="eps must be a positive real"):
        EPS_CALLS[call](eps)
    assert not caplog.records



# one coordinate that float() rejects: a string, None, an int past float64
NUMBER_CALLS = {
    "dist": lambda x: tg.dist(x, (1,)),
    "norm": tg.norm,
    "segment": lambda x: tg.segment(x, (1,)),
    "polyline_length": lambda x: tg.polyline_length([(0,), x]),
    "locate": tg.locate,
    "Ball": lambda x: tg.Ball(x, 1.0),
    "GeodesicRegion.lower": lambda x: tg.GeodesicRegion(x, (1,)),
    "GeodesicRegion.upper": lambda x: tg.GeodesicRegion((0,), x),
    "GeodesicRegion.diff_lb": lambda x: tg.GeodesicRegion((0,), (1,), [x]),
    "hull": lambda x: tg.hull([x]),
    "contains": lambda x: tg.GeodesicRegion((0,), (1,)).contains(x),
    "ball_contains": lambda x: tg.contains(tg.unit_ball(1), x),
    "contains_batch": lambda x: tg.GeodesicRegion((0,), (1,)).contains_batch([x]),
}


@pytest.mark.parametrize("x", [("a",), (None,), (10**400,)], ids=["str", "None", "10**400"])
@pytest.mark.parametrize("call", sorted(NUMBER_CALLS))
def test_every_entry_point_rejects_a_malformed_number(call, x):
    if call == "contains_batch" and x == (None,):
        # numpy reads None as NaN, and a row with a NaN tests False
        assert NUMBER_CALLS[call](x).tolist() == [False]
        return
    with pytest.raises(tg.TropgeoError):
        NUMBER_CALLS[call](x)
