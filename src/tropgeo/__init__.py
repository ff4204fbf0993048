"""Min-plus (tropical) metric geometry of R^n.

Distances and norms, canonical shortest chains, geodesically closed
regions and hulls, the combinatorics of the unit ball, and the honeycomb
tiling of space by unit balls, with a CLI front door in tropgeo.cli.

``import tropgeo`` runs none of the submodules: each loads when one of its
names is first used (PEP 562), so a CLI command loads only the modules it
runs.
"""

__version__ = "0.1.0"

# Every public name, under the submodule that defines it.
_EXPORTS = {
    "core": (
        "DEFAULT_EPS",
        "TropgeoError",
        "DimensionMismatch",
        "DomainError",
        "ParseError",
        "EmptyRegionError",
        "ConvergenceError",
        "Point",
        "as_point",
        "dist",
        "dist_proj",
        "norm",
        "norm_proj",
        "lp_distances",
        "canon",
        "embed",
        "OrthantCoords",
        "to_orthant_coords",
        "orthant_to_projective",
        "TropSegment",
        "segment",
        "parse_point",
        "parse_projective",
        "format_number",
        "format_point",
    ),
    "geodesy": (
        "polyline_length",
        "polyline_evaluator",
        "curve_length",
        "is_geodesic",
        "is_between",
        "GeodesicRegion",
        "hull",
        "EDGE_NAMES",
        "Shape2DType",
        "classify2d",
    ),
    "ball": (
        "Ball",
        "unit_ball",
        "units",
        "neg_units",
        "contains",
        "hrep",
        "iter_vertices",
        "vertices",
        "FacetId",
        "facets",
        "facet_contains",
        "facet_of",
        "opposite",
        "is_diametral_pair",
        "minkowski_coeffs",
        "zonotope_point",
        "orthant_of",
        "generator_coeffs",
        "eval_trop_combination",
        "pole_distances",
        "sphere_position_2d",
        "intrinsic_distance_2d",
        "angle_2d",
    ),
    "honeycomb": (
        "in_lattice",
        "LocateResult",
        "locate",
        "locate_bruteforce",
        "neighbors",
        "lattice_basis",
        "HEX_BASIS_2D",
        "spans_same_lattice",
        "TilingReport",
        "verify_tiling",
        "hexagon_rings",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    # __import__, not importlib.import_module: -X importtime times only the
    # import statement's path, so this keeps every module in its log
    if name in _EXPORTS:
        return __import__(name, globals(), level=1)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(__import__(_MODULE_OF[name], globals(), level=1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
