"""Every public entry point checks its tolerance and its other scalar
inputs at the door, and raises a TropgeoError subclass on bad input."""

import inspect
import math

import pytest

import tropgeo as tg

HULL = [(0, 0), (1, 1)]

# one sample call per public callable, and per public method, that takes eps
EPS_CALLS = {
    "is_geodesic": lambda eps: tg.is_geodesic([(0, 0), (1, 1)], eps=eps),
    "is_between": lambda eps: tg.is_between((0, 0), (5, 5), (1, 1), eps=eps),
    "GeodesicRegion": lambda eps: tg.GeodesicRegion((0,), (1,), eps=eps),
    "GeodesicRegion.contains": lambda eps: tg.hull(HULL).contains((5, 5), eps=eps),
    "GeodesicRegion.contains_batch": lambda eps: tg.hull(HULL).contains_batch([(0, 0)], eps=eps),
    "GeodesicRegion.intersect": lambda eps: tg.hull(HULL).intersect(tg.hull(HULL), eps=eps),
    "GeodesicRegion.affine_dim": lambda eps: tg.hull(HULL).affine_dim(eps=eps),
    "hull": lambda eps: tg.hull(HULL, eps=eps),
    "classify2d": lambda eps: tg.classify2d(tg.hull(HULL), eps=eps),
    "contains": lambda eps: tg.contains(tg.unit_ball(2), (5, 5), eps=eps),
    "hrep": lambda eps: tg.hrep(tg.unit_ball(2), eps=eps),
    "facet_contains": lambda eps: tg.facet_contains(tg.FacetId("upper", 1), (1, 0), eps=eps),
    "facet_of": lambda eps: tg.facet_of((1, 0), eps=eps),
    "is_diametral_pair": lambda eps: tg.is_diametral_pair(
        tg.unit_ball(2), (1, 0), (-1, 0), eps=eps),
    "minkowski_coeffs": lambda eps: tg.minkowski_coeffs((0.5, 0.25), eps=eps),
    "orthant_of": lambda eps: tg.orthant_of((0.5, 0.25), eps=eps),
    "generator_coeffs": lambda eps: tg.generator_coeffs((0.5, 0.25), eps=eps),
    "pole_distances": lambda eps: tg.pole_distances((1, 0), eps=eps),
    "sphere_position_2d": lambda eps: tg.sphere_position_2d((1, 0), eps=eps),
    "intrinsic_distance_2d": lambda eps: tg.intrinsic_distance_2d(
        (0, 0), (1, 0), (0, 1), eps=eps),
    "angle_2d": lambda eps: tg.angle_2d((0, 0), (1, 0), (0, 1), eps=eps),
    "locate": lambda eps: tg.locate((0.5, 0.25), eps=eps),
    "neighbors": lambda eps: tg.neighbors((0, 0), eps=eps),
    "verify_tiling": lambda eps: tg.verify_tiling(2, samples=0, eps=eps),
}

TOL_CALLS = {
    "curve_length": lambda tol: tg.curve_length(lambda t: (t, 0.0), tol=tol),
}


def _tolerance_entry_points():
    """The public callables, and the public methods of the public classes,
    whose signature has an eps or a tol."""
    found = set()

    def takes_tolerance(fn):
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # an alias such as Point
            return False
        return "eps" in params or "tol" in params

    for name in tg.__all__:
        obj = getattr(tg, name)
        if callable(obj) and takes_tolerance(obj):
            found.add(name)
        if inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and takes_tolerance(fn):
                    found.add("%s.%s" % (name, attr))
    return found


def test_the_tables_name_every_entry_point_that_takes_a_tolerance():
    # a new entry point with an eps or a tol must join a table, and so be
    # checked below
    assert _tolerance_entry_points() == set(EPS_CALLS) | set(TOL_CALLS)


def test_every_sample_call_accepts_the_default_tolerance():
    # so a failure below comes from the tolerance, not from the sample
    for call in EPS_CALLS.values():
        call(tg.DEFAULT_EPS)
    for call in TOL_CALLS.values():
        call(1e-6)


@pytest.mark.parametrize("eps", ["a", None, math.nan, -1.0, 0.3], ids=repr)
@pytest.mark.parametrize("call", sorted(EPS_CALLS))
def test_a_bad_eps_raises_a_library_error(call, eps):
    with pytest.raises(tg.TropgeoError):
        EPS_CALLS[call](eps)


@pytest.mark.parametrize("tol", ["a", None, math.nan, 0, -1], ids=repr)
@pytest.mark.parametrize("call", sorted(TOL_CALLS))
def test_a_bad_tol_raises_a_library_error(call, tol):
    # the message is the one tropgeo circle-length prints for a bad --tol
    with pytest.raises(tg.DomainError, match="tol must be positive and finite"):
        TOL_CALLS[call](tol)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tg.FacetId("upper", "a"),
        lambda: tg.FacetId("upper", 1.5),
        lambda: tg.FacetId("lower", None),
        lambda: tg.FacetId("diff", 1, "a"),
        lambda: tg.FacetId("diff", 1, 2.0),
        lambda: tg.polyline_evaluator([(0, 0), (1, 1)])(math.nan),
        lambda: tg.polyline_evaluator([(0, 0), (1, 1)])(math.inf),
        lambda: tg.polyline_evaluator([(0, 0), (1, 1)])("a"),
        lambda: tg.polyline_evaluator([(0, 0), (1, 1)])(None),
        lambda: tg.orthant_to_projective(tg.OrthantCoords("a", (1.0,))),
        lambda: tg.orthant_to_projective(tg.OrthantCoords(1.0, (1.0,))),
        # the chart's values are read as a point is
        lambda: tg.orthant_to_projective(tg.OrthantCoords(1, ("a",))),
        lambda: tg.orthant_to_projective(tg.OrthantCoords(1, (None,))),
        lambda: tg.orthant_to_projective(tg.OrthantCoords(1, (math.nan,))),
        lambda: tg.orthant_to_projective(tg.OrthantCoords(2, (1.0, math.inf))),
        lambda: tg.orthant_to_projective(tg.OrthantCoords(1, None)),
    ],
    ids=["FacetId-str", "FacetId-float", "FacetId-None", "FacetId-diff-str",
         "FacetId-diff-float", "evaluator-nan", "evaluator-inf", "evaluator-str",
         "evaluator-None", "orthant-str", "orthant-float", "orthant-value-str",
         "orthant-value-None", "orthant-value-nan", "orthant-value-inf",
         "orthant-values-None"],
)
def test_a_malformed_index_or_parameter_raises_domain_error(call):
    with pytest.raises(tg.DomainError):
        call()


def test_an_empty_orthant_chart_is_no_projective_class():
    # it would give the one-entry class (0.0,), which every projective
    # function rejects, as to_orthant_coords and canon do
    with pytest.raises(tg.DomainError, match="projective input needs at least two entries"):
        tg.orthant_to_projective(tg.OrthantCoords(1, ()))


def test_checked_indices_and_parameters_keep_their_answers():
    # an index is stored as the int operator.index gives
    assert tg.FacetId("diff", True, 2).i == 1
    curve = tg.polyline_evaluator([(0, 0), (1, 1)])
    assert curve(0.25) == (0.25, 0.25)
    assert curve(-1) == (-1.0, -1.0)  # a t outside [0, 1] extends the first segment
