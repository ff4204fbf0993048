import inspect
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tropgeo as tg
from tropgeo import core

from helpers import as_point_oracle, dist_oracle, segment_oracle

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


# signed magnitudes from 1e-300 to 1e15 and both zeros
magnitude = st.floats(min_value=1e-300, max_value=1e15)
wide = st.one_of(st.sampled_from([0.0, -0.0]), magnitude, magnitude.map(operator.neg))


@st.composite
def wide_pairs(draw):
    """Two points of one dimension n = 1..12 whose coordinates come from a
    small drawn pool, so that coordinates repeat within and across points;
    one pair in four has equal endpoints."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(wide, min_size=1, max_size=n + 1))
    coords = st.lists(st.sampled_from(pool), min_size=n, max_size=n).map(tuple)
    x = draw(coords)
    y = x if draw(st.integers(0, 3)) == 0 else draw(coords)
    return x, y


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
@given(wide_pairs())
def test_dist_matches_exhaustive_oracle_at_every_magnitude(pair):
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


def _huge_circle():
    # radius 3e307: each quarter chord is finite, four of them overflow.  A
    # refinement that ignores the overflow stops here after 2^12 samples
    # instead of running to _MAX_DEPTH
    calls = 0

    def circle(t):
        nonlocal calls
        calls += 1
        if calls > 2**12:
            raise AssertionError("curve_length kept refining an overflowed length")
        return (3e307 * math.cos(2 * math.pi * t), 3e307 * math.sin(2 * math.pi * t))

    return circle


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: tg.polyline_length([(0.0,), (1e308,), (1.0,)]), "distance"),
        (lambda: tg.polyline_length(iter([(0.0,), (1e308,), (0.0,)])), "distance"),
        (lambda: tg.segment((0.0, 2.5, 1e308), (1e308, 3e307, 1.0)).length(), "distance"),
        (lambda: tg.curve_length(_huge_circle()), "distance"),
        (lambda: tg.is_geodesic([(0.0,), (1e308,), (0.0,)]), "distance"),
        (lambda: tg.is_between((0.0,), (1e308,), (0.0,)), "distance"),
        (lambda: tg.canon((1e308, -1e308)), "point"),
        (lambda: tg.to_orthant_coords((1e308, -1e308)), "point"),
        (lambda: tg.zonotope_point((1e308, -1e308)), "point"),
        (lambda: tg.polyline_evaluator([(0.0,), (1e308,)])(2.0), "point"),
    ],
    ids=["polyline_length", "polyline_length-iterator", "segment-length", "curve_length",
         "is_geodesic", "is_between", "canon", "to_orthant_coords", "zonotope_point",
         "polyline_evaluator"],
)
def test_length_and_point_overflow_is_a_domain_error(call, what):
    # finite input whose length or point overflows float64 raises, never
    # returns inf; each piece of the lengths here is finite on its own
    with pytest.raises(tg.DomainError, match="the %s overflows float64" % what):
        call()


def test_combination_overflow_keeps_its_message():
    with pytest.raises(tg.DomainError, match="the combination overflows float64"):
        tg.eval_trop_combination((1e308,), [(1e308,)])


def test_lengths_keep_the_largest_finite_sum():
    big = 1.7976931348623157e308
    assert tg.polyline_length([(0.0,), (big / 2,), (0.0,)]) == big
    assert tg.segment((0.0, big / 2), (big / 2, 0.0)).length() == big
    assert tg.canon((big / 2, -big / 2)) == (big,)


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


# inputs of as_point, built afresh for each call since a generator is read once
AS_POINT_INPUTS = {
    "str": lambda: "a",
    "None": lambda: None,
    "None coordinate": lambda: (1.0, None),
    "10**400": lambda: (10**400, 0),
    "nan": lambda: (0.0, math.nan),
    "+inf": lambda: (math.inf,),
    "-inf": lambda: (1, -math.inf),
    "empty": lambda: (),
    "generator": lambda: (v / 2 for v in range(3)),
    "numpy row": lambda: np.arange(6.0).reshape(2, 3)[1],
    "ints": lambda: [1, -2, 3],
    # sums that overflow to +-inf, so the per-coordinate check decides
    "sum overflows": lambda: (1e308, 1e308),
    "sum overflows down": lambda: (-1e308, -1e308, 5.0),
    "nan alone": lambda: (math.nan,),
    "inf - inf": lambda: (math.inf, -math.inf),
    "1e308 + inf": lambda: (1e308, math.inf),
}


@pytest.mark.parametrize("case", sorted(AS_POINT_INPUTS))
def test_as_point_matches_its_first_body(case):
    # the same exception type and message, or the same tuple of floats
    def outcome(as_point):
        try:
            pt = as_point(AS_POINT_INPUTS[case]())
        except tg.TropgeoError as exc:
            return type(exc), str(exc)
        return pt, [type(v) for v in pt]

    assert outcome(core.as_point) == outcome(as_point_oracle)


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


@settings(max_examples=500)
@given(wide_pairs())
def test_segment_matches_its_oracle_bit_for_bit(pair):
    # repr tells -0.0 from 0.0, so every coordinate of every field matches
    x, y = pair
    for mode in ("min", "max"):
        assert repr(tg.segment(x, y, mode)) == repr(segment_oracle(x, y, mode))


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


def test_segment_drops_a_stop_that_rounds_back_onto_the_start():
    # at the stop t = 15.999999, 1e17 + t rounds to 1e17 + 16, where an ulp
    # is 16, so that vertex is the start again
    start, end = (1e17 + 16, 15.999999), (1e17, 0.0)
    assert tg.segment(start, end).vertices == (start, end)


@st.composite
def near_stop_pairs(draw):
    """(x, y, mode) where a large coordinate stops at T, a multiple of its
    ulp, and another at a time within an ulp of T, so that at one of the two
    stops the large coordinate rounds onto its position at the other."""
    big = draw(st.floats(2.0**53, 1e300)) * draw(st.sampled_from([1.0, -1.0]))
    u = math.ulp(big)
    T = draw(st.integers(1, 4)) * u
    t = draw(st.floats(T - u, T + u, exclude_min=True, exclude_max=True))
    low = draw(st.sampled_from([0.0, 1.0, -3.5]))
    x, y = [big + T, low + t], [big, low]
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.floats(-1e3, 1e3))
        x.append(v + draw(st.floats(0.0, 1e3)))
        y.append(v)
    order = draw(st.permutations(range(len(x))))
    x, y = tuple(x[i] for i in order), tuple(y[i] for i in order)
    if draw(st.booleans()):
        x, y = y, x
    return x, y, draw(st.sampled_from(["min", "max"]))


@settings(max_examples=300)
@given(near_stop_pairs())
def test_segment_never_repeats_a_vertex_at_stops_an_ulp_apart(case):
    x, y, mode = case
    verts = tg.segment(x, y, mode).vertices
    assert verts[0] == x and verts[-1] == y
    assert all(a != b for a, b in zip(verts, verts[1:])), verts


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


# record constructors


def test_plain_records_take_their_fields_from_slots():
    # a record declares its fields once: one with no __init__ of its own
    # takes its __slots__, in order, with no defaults
    for cls in (tg.OrthantCoords, tg.TropSegment, tg.Shape2DType, tg.LocateResult,
                tg.TilingReport):
        assert "def __init__" not in inspect.getsource(cls)
        params = inspect.signature(cls).parameters
        assert list(params) == list(cls.__slots__)
        assert all(p.default is p.empty for p in params.values())
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
        assert cls.__init__.__qualname__ == cls.__qualname__ + ".__init__"
        assert cls.__init__.__module__ == cls.__module__
    # a record that checks, defaults or closes its inputs keeps its own
    for cls in (tg.Ball, tg.FacetId, tg.GeodesicRegion):
        assert "def __init__" in inspect.getsource(cls)
    assert list(inspect.signature(tg.Ball).parameters) == ["center", "radius"]
    rec = tg.OrthantCoords(values=(1.0,), omitted_index=2)
    assert rec == tg.OrthantCoords(2, (1.0,))
    with pytest.raises(TypeError):
        tg.OrthantCoords(2)
    with pytest.raises(AttributeError):
        rec.values = ()


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


# 0.25 and above: a tie gives a coordinate more than two offsets
@pytest.mark.parametrize(
    "eps", [math.nan, math.inf, -math.inf, 0.0, -1.0, "a", 0.25, 1.0, 1e308], ids=repr
)
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tg.facets(2.0), "dimension must be an integer, got 2.0"),
        (lambda: tg.lattice_basis(2.0), "dimension must be an integer, got 2.0"),
        (lambda: tg.units(2.0), "dimension must be an integer, got 2.0"),
        (lambda: list(tg.iter_vertices(2.5)), "dimension must be an integer, got 2.5"),
        (lambda: tg.vertices("2"), "dimension must be an integer, got '2'"),
        (lambda: tg.unit_ball("2"), "dimension must be an integer, got '2'"),
        (lambda: tg.unit_ball(0), "dimension must be at least 1"),
        (lambda: tg.lattice_basis(-1), "dimension must be at least 1"),
        (lambda: tg.verify_tiling(2, box_halfwidth="a", samples=0),
         "box halfwidth must be finite and nonnegative"),
        (lambda: tg.verify_tiling(2, box_halfwidth=10**400, samples=0),
         "box halfwidth must be finite and nonnegative"),
        (lambda: tg.hexagon_rings("a"), "box halfwidth must be finite and in"),
        (lambda: tg.hexagon_rings(None), "box halfwidth must be finite and in"),
    ],
    ids=["facets", "lattice_basis", "units", "iter_vertices", "vertices", "unit_ball",
         "unit_ball-0", "lattice_basis--1", "verify_tiling-box", "verify_tiling-huge-box",
         "hexagon_rings-box", "hexagon_rings-None"],
)
def test_a_bad_dimension_or_box_raises_domain_error(call, message):
    # one check in core for every dimension, and the radius check for a box
    with pytest.raises(tg.DomainError, match=message):
        call()
